//! Property tests for causal gap attribution: the verdict must be a pure
//! function of event *content* — never of the incidental order same-tick
//! events merged in — and synthetic fault scenarios must name the cause
//! class the fault implies.

use hermes_core::MediaTime;
use hermes_obs::{
    attribute_events, fill_critical_paths, AttributionConfig, CauseClass, Event, GapAttribution,
    Labels, ProvenanceLog, Severity, SpanId, PATH_HOPS,
};

fn ev(at_ms: i64, seq: u64, node: u64, name: &'static str, labels: Labels, value: i64) -> Event {
    Event::new(
        MediaTime::from_millis(at_ms),
        seq,
        node,
        Severity::Warn,
        name,
        labels,
        value,
    )
}

/// Deterministic Fisher–Yates driven by a tiny LCG: enough entropy to
/// exercise many merge orders, no RNG dependency.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    for i in (1..items.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        items.swap(i, j);
    }
}

/// Strip the merge-order field so comparisons see content only.
fn verdicts(attrs: &[GapAttribution]) -> Vec<(i64, u64, CauseClass, u64, &'static str)> {
    attrs
        .iter()
        .map(|a| (a.at.as_micros(), a.session, a.class, a.score, a.evidence))
        .collect()
}

/// A same-tick burst of mixed evidence: every permutation of the merge
/// order (re-stamped with fresh `seq` values, as the engine would) must
/// produce the identical attribution.
#[test]
fn attribution_is_merge_order_independent() {
    // All evidence lands on the same tick — the worst case for any
    // implementation that accidentally leans on log order.
    let burst = vec![
        ev(500, 0, 1, "link_down", Labels::for_peer(9), 0),
        ev(500, 0, 2, "fetch_shed", Labels::session(7), 3),
        ev(500, 0, 3, "fetch_shed", Labels::NONE, 2),
        ev(500, 0, 4, "cache_miss", Labels::session(7), 0),
        ev(500, 0, 5, "cache_miss", Labels::session(8), 0),
        ev(500, 0, 6, "breaker_trip", Labels::for_peer(9), 1),
        ev(500, 0, 7, "stream_regraded", Labels::session(7), 1),
    ];
    let gap = ev(900, 99, 3, "playout_gap", Labels::session(7), 2);
    let cfg = AttributionConfig::default();

    let reference = {
        let mut log = burst.clone();
        log.push(gap);
        verdicts(&attribute_events(&log, &cfg))
    };
    assert_eq!(reference.len(), 1, "one disruption, one attribution");

    for seed in 0..64u64 {
        let mut permuted = burst.clone();
        shuffle(&mut permuted, seed);
        for (i, e) in permuted.iter_mut().enumerate() {
            e.seq = i as u64; // the merge re-stamps arrival order
        }
        let mut log = permuted;
        log.push(gap);
        assert_eq!(
            verdicts(&attribute_events(&log, &cfg)),
            reference,
            "permutation seed {seed} changed the verdict"
        );
    }
}

/// Critical-path extraction must rank hops identically no matter what
/// order the provenance records were appended in, including ties on the
/// in-flight time (broken by message kind, not insertion order).
#[test]
fn critical_path_is_provenance_order_independent() {
    let root = SpanId(11);
    let hops: Vec<(&'static str, i64)> = vec![
        ("fetch_chunk", 4000),
        ("rtp", 900),
        ("rtp", 900), // tie with the previous record
        ("heartbeat", 100),
        ("fetch_chunk", 2500),
        ("control", 900), // same in-flight µs, different kind
    ];
    let base: Vec<(MediaTime, &'static str, i64)> = hops
        .iter()
        .enumerate()
        .map(|(i, &(kind, us))| (MediaTime::from_millis(400 + i as i64), kind, us))
        .collect();
    let cfg = AttributionConfig::default();
    let gap = ev(900, 9, 2, "playout_gap", Labels::session(7), 1);

    // Every delivery sits inside the gap's window, so the window search
    // keeps them all whatever order they were appended in.
    let run = |deliveries: &[(MediaTime, &'static str, i64)]| {
        let mut prov = ProvenanceLog::default();
        for &(at, kind, us) in deliveries {
            prov.record(at, root.0, kind, us);
        }
        let mut attrs = attribute_events(std::slice::from_ref(&gap), &cfg);
        fill_critical_paths(&mut attrs, &prov, |s| (s == 7).then_some(root), &cfg);
        attrs[0].path.clone()
    };

    let reference = run(&base);
    assert_eq!(reference.len(), PATH_HOPS.min(hops.len()));
    assert_eq!(reference[0], ("fetch_chunk", 4000), "slowest hop first");
    for seed in 0..64u64 {
        let mut permuted = base.clone();
        shuffle(&mut permuted, seed);
        assert_eq!(
            run(&permuted),
            reference,
            "provenance permutation seed {seed} changed the critical path"
        );
    }
}

/// A forced link partition: the hard link event must dominate the routine
/// session-matched cache misses and refill traffic around the gap.
#[test]
fn forced_partition_gap_names_link_loss() {
    let mut log = vec![ev(1000, 0, 5, "link_down", Labels::for_peer(5), 0)];
    // Routine fetch traffic for the victim session, before and after.
    for i in 0..12 {
        log.push(ev(
            600 + 100 * i,
            1 + i as u64,
            1,
            "cache_miss",
            Labels::session(3).segment(i as u64),
            0,
        ));
    }
    log.push(ev(2400, 90, 9, "playout_gap", Labels::session(3), 4));
    log.sort_by_key(|e| e.sort_key());
    let attrs = attribute_events(&log, &AttributionConfig::default());
    assert_eq!(attrs.len(), 1);
    assert_eq!(attrs[0].class, CauseClass::LinkLoss);
    assert_eq!(attrs[0].evidence, "link_down");
}

/// Forced media-queue saturation: a shed storm must win — even over a
/// coincidental link blip — and cache misses alone must never outrank it.
#[test]
fn forced_queue_saturation_gap_names_media_queue() {
    let mut log = Vec::new();
    for i in 0..10 {
        let labels = if i % 2 == 0 {
            Labels::session(4)
        } else {
            Labels::NONE
        };
        log.push(ev(1000 + 50 * i, i as u64, 8, "fetch_shed", labels, 1));
    }
    for i in 0..6 {
        log.push(ev(
            1100 + 60 * i,
            20 + i as u64,
            1,
            "cache_miss",
            Labels::session(4),
            0,
        ));
    }
    // One unrelated link event elsewhere in the fleet: outweighed by the
    // sustained shed storm on the serving path.
    log.push(ev(1300, 40, 6, "link_down", Labels::for_peer(6), 0));
    log.push(ev(2000, 50, 9, "playout_gap", Labels::session(4), 2));
    log.sort_by_key(|e| e.sort_key());
    let attrs = attribute_events(&log, &AttributionConfig::default());
    assert_eq!(attrs.len(), 1);
    assert_eq!(attrs[0].class, CauseClass::MediaQueue);
    assert_eq!(attrs[0].evidence, "fetch_shed");
}
