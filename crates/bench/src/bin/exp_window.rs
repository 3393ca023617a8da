//! EXP-WINDOW — claim: the media time window (buffer prefill) smooths
//! delay variation inserted by the network, at the cost of startup delay.
//!
//! The disturbance is a periodic near-outage (congestion burst at 90% load)
//! of varying length — the "times of network congestion" the paper's buffer
//! layer targets. Sweep the media time window against the outage length and
//! report startup delay and presentation disruptions (duplicates played +
//! glitches + late-dropped frames). Averaged over three seeds per point.

use hermes_bench::harness::run_seeds;
use hermes_bench::mean_by;
use hermes_bench::{ExpOpts, StreamingParams, Table};
use hermes_core::{MediaDuration, MediaTime};
use hermes_simnet::{CongestionEpoch, CongestionProfile};

/// A periodic outage profile: every `period_ms`, `outage_ms` of 98% load.
fn outages(outage_ms: i64, period_ms: i64, horizon_s: i64) -> CongestionProfile {
    if outage_ms == 0 {
        return CongestionProfile::idle();
    }
    let mut epochs = Vec::new();
    let mut t = 3_000i64; // first outage after the session is established
    while t < horizon_s * 1_000 {
        epochs.push(CongestionEpoch {
            start: MediaTime::from_millis(t),
            end: MediaTime::from_millis(t + outage_ms),
            load: 0.90,
            extra_loss: 0.0,
        });
        t += period_ms;
    }
    CongestionProfile::new(epochs)
}

fn main() {
    let opts = ExpOpts::parse();
    let mut out = opts.sink();
    let windows_ms = [100i64, 250, 500, 1_000, 2_000, 3_000];
    let outages_ms = [0i64, 250, 450];
    let seeds = opts.seeds(&[5, 6, 7]);
    let mut t = Table::new(vec![
        "window (ms)",
        "outage (ms)",
        "startup (ms)",
        "disruptions",
        "underflow events",
        "frames played",
    ]);
    out.line(
        "workload: 15 s synchronized A/V clip, 4 Mbps access link, a 90%-load\n\
         congestion burst every 4 s (the outage length varies per column)",
    );
    for &w in &windows_ms {
        for &o in &outages_ms {
            let p = StreamingParams {
                time_window: MediaDuration::from_millis(w),
                queue_bytes: 512 << 10,
                congestion: outages(o, 4_000, 40),
                grading: false,
                clip_secs: 15,
                horizon: MediaTime::from_secs(40),
                ..Default::default()
            };
            let runs = run_seeds(&p, &seeds);
            t.row(vec![
                w.to_string(),
                o.to_string(),
                format!("{:.0}", mean_by(&runs, |m| m.startup.as_millis() as f64)),
                format!(
                    "{:.1}",
                    mean_by(&runs, |m| (m.duplicates + m.glitches + m.dropped) as f64)
                ),
                format!("{:.1}", mean_by(&runs, |m| m.underflows as f64)),
                format!("{:.0}", mean_by(&runs, |m| m.frames_played as f64)),
            ]);
        }
    }
    out.table(
        "EXP-WINDOW — media time window vs congestion-burst length (3 seeds)",
        &t,
    );
    out.line(
        "expected shape: startup delay grows linearly with the window; disruptions\n\
         vanish once the window comfortably exceeds the burst (and its queue-drain\n\
         tail) — the paper's smoothing trade-off: the intentional initial delay\n\
         buys immunity to bursts. Note the mid-window hump on long bursts: tiny\n\
         windows recover by overflow-dropping the stale backlog (fewer frames,\n\
         fewer stalls), mid windows replay/drop stale content frame by frame,\n\
         large windows absorb the burst entirely.",
    );
}
