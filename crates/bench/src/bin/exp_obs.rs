//! OBS — observability: trace one lossy streaming session end-to-end.
//!
//! Part 1 (trace): a session over a lossy access link with short-term
//! recovery and grading disabled, so playout gaps actually happen. The run
//! is checked against the acceptance properties — admission, prefill and
//! playout spans nested under the session root with correct sim-time
//! ordering, every engine glitch surfaced as a `playout_gap` event, and the
//! gap's flight-recorder dump carrying the preceding buffer-occupancy
//! context. `--trace PATH` exports `PATH.jsonl` (event log) and
//! `PATH.trace.json` (Chrome trace-event, loadable in Perfetto / UI at
//! ui.perfetto.dev); the per-session timeline and the flight report print
//! through the sink.
//!
//! Part 2 (degradations): the same lossy link with grading *on*: the QoS
//! loop's transitions must appear as `qos_degrade` / `stream_regraded`
//! events in the trace.
//!
//! What tracing costs is the benchmark's `bench.trace_overhead_pct`.

use hermes_bench::{run_streaming_session_traced, ExpOpts, Sink, StreamingParams};
use hermes_client::PlayoutConfig;
use hermes_core::MediaTime;
use hermes_simnet::obs::{chrome_trace, events_jsonl, flight_report, session_timeline};
use hermes_simnet::{LossModel, Obs};

fn lossy_params(seed: u64, smoke: bool, grading: bool) -> StreamingParams {
    StreamingParams {
        seed,
        clip_secs: if smoke { 6 } else { 15 },
        horizon: MediaTime::from_secs(if smoke { 20 } else { 40 }),
        loss: LossModel::Bernoulli { p: 0.08 },
        // Starve the gap run: with recovery and grading off, a link slower
        // than the media rate runs the buffer dry at playout deadlines —
        // the visible glitches the trace must capture. The graded run keeps
        // the full rate so the QoS loop (not starvation) drives the story.
        access_bps: if grading { 4_000_000 } else { 800_000 },
        playout: if grading {
            PlayoutConfig::default()
        } else {
            PlayoutConfig::no_recovery()
        },
        grading,
        ..Default::default()
    }
}

/// The traced session id (from the root spans; exactly one session runs).
fn the_session(obs: &Obs) -> u64 {
    obs.spans
        .all()
        .iter()
        .find(|s| s.name == "session")
        .and_then(|s| s.labels.session)
        .expect("traced run recorded a session root span")
}

fn count(obs: &Obs, name: &str) -> usize {
    obs.events().iter().filter(|e| e.name == name).count()
}

fn check_gap_trace(obs: &Obs, glitches: u64, sink: &mut Sink) {
    let session = the_session(obs);
    let spans = obs.spans.for_session(session);
    let span_of = |name: &str| {
        *spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing {name} span"))
    };
    let root = span_of("session");
    let admission = span_of("admission");
    let prefill = span_of("prefill");
    let playout = span_of("playout");
    // Nesting: lifecycle phases hang under the session root and stay within
    // its sim-time extent, and prefill hands over to playout.
    for child in [admission, prefill, playout] {
        assert_eq!(child.parent, root.id, "{} not under root", child.name);
        assert!(child.start >= root.start);
    }
    assert!(prefill.end.expect("prefill closed") <= playout.start);
    assert!(admission.start <= prefill.start);
    // Every glitch the playout engine counted is in the trace.
    let gap_total: i64 = obs
        .events()
        .iter()
        .filter(|e| e.name == "playout_gap")
        .map(|e| e.value)
        .sum();
    assert!(glitches > 0, "the lossy run must actually glitch");
    assert_eq!(gap_total as u64, glitches, "every playout gap is traced");
    // The gap dumped the flight ring, and the dump carries the preceding
    // buffer-occupancy context.
    let dump = obs
        .flight
        .dumps()
        .iter()
        .find(|d| d.reason == "playout_gap")
        .expect("playout gap produced a flight dump");
    assert!(
        dump.events.iter().any(|e| e.name == "buffer_occupancy"),
        "gap dump carries buffer-occupancy history"
    );
    sink.line(&format!(
        "gap trace: {} events, {} spans, {} playout gaps, {} flight dumps",
        obs.events().len(),
        obs.spans.len(),
        gap_total,
        obs.flight.dumps().len()
    ));
}

fn main() {
    let opts = ExpOpts::parse();
    let mut sink = opts.sink();
    let seed = opts.seed(7);
    sink.line("OBS: sim-time tracing across the service stack (lossy session)");
    if !hermes_simnet::obs::TRACE_COMPILED {
        // The no-trace build still runs every workload; there is just
        // nothing to assert about or export.
        sink.line("trace feature compiled out — running workloads untraced");
        let p = lossy_params(seed, opts.smoke, false);
        let (m, _) = run_streaming_session_traced(&p);
        sink.line(&format!("glitches={} (untraced run ok)", m.glitches));
        return;
    }

    // -- Part 1: the forced-gap trace ------------------------------------
    let p = lossy_params(seed, opts.smoke, false);
    let (m, obs) = run_streaming_session_traced(&p);
    check_gap_trace(&obs, m.glitches, &mut sink);
    let session = the_session(&obs);
    sink.line(&session_timeline(&obs, session));
    // The full report repeats one dump per gap (bounded at the recorder's
    // cap); the first dump shows the shape, the files carry everything.
    let report = flight_report(&obs);
    let first_dump: String = report
        .lines()
        .enumerate()
        .take_while(|(i, l)| *i == 0 || !l.starts_with("flight dump"))
        .map(|(_, l)| format!("{l}\n"))
        .collect();
    sink.line(&first_dump);
    sink.line(&format!(
        "({} more dumps omitted, {} suppressed past the cap)",
        obs.flight.dumps().len().saturating_sub(1),
        obs.flight.suppressed
    ));
    if let Some(prefix) = &opts.trace {
        let mut jsonl = prefix.clone();
        jsonl.set_extension("jsonl");
        std::fs::write(&jsonl, events_jsonl(&obs)).expect("write JSONL trace");
        let mut chrome = prefix.clone();
        chrome.set_extension("trace.json");
        std::fs::write(&chrome, chrome_trace(&obs, p.horizon)).expect("write Chrome trace");
        sink.line(&format!(
            "exported {} and {} (load the latter in ui.perfetto.dev)",
            jsonl.display(),
            chrome.display()
        ));
    }

    // -- Part 2: degradation transitions under grading -------------------
    let pg = lossy_params(seed, opts.smoke, true);
    let (_, graded) = run_streaming_session_traced(&pg);
    let degrades = count(&graded, "qos_degrade");
    let regrades = count(&graded, "stream_regraded");
    assert!(
        degrades > 0,
        "8% loss with grading on must trace degrade transitions"
    );
    assert_eq!(
        degrades + count(&graded, "qos_upgrade"),
        regrades,
        "client sees exactly the regrades the server issued"
    );
    sink.line(&format!(
        "graded run: {degrades} degrades, {} upgrades, {} stops — all traced",
        count(&graded, "qos_upgrade"),
        count(&graded, "qos_stop"),
    ));
}
