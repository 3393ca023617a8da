//! EXP-SKEW — claim: the short-term drop/duplicate mechanism bounds
//! intermedia skew under network load.
//!
//! Sweep background load on the client's access link from 0 to 60% with the
//! short-term recovery (underflow duplication, overflow dropping, sync
//! enforcement) on vs. off, and report max A/V skew, glitches and repairs.
//! Each point is averaged over three seeds; points run in parallel.

use hermes_bench::harness::run_seeds;
use hermes_bench::{fmt_dur_ms, ExpOpts, StreamingParams, Table};
use hermes_bench::{max_dur_by, mean_by};
use hermes_client::PlayoutConfig;
use hermes_core::{MediaDuration, MediaTime};
use hermes_simnet::{CongestionEpoch, CongestionProfile, JitterModel, LossModel};

fn main() {
    let opts = ExpOpts::parse();
    let mut out = opts.sink();
    let loads = [0.0, 0.1, 0.2, 0.3, 0.4, 0.45];
    let seeds = opts.seeds(&[11, 22, 33]);
    let mut t = Table::new(vec![
        "load",
        "recovery",
        "max skew (ms)",
        "glitches",
        "duplicates",
        "dropped",
        "frames",
    ]);
    out.line("workload: 20 s synchronized A/V clip over a 4 Mbps access link (32 KiB queue)");
    for &load in &loads {
        for &(label, playout) in &[
            ("on", PlayoutConfig::default()),
            ("off", PlayoutConfig::no_recovery()),
        ] {
            let p = StreamingParams {
                access_bps: 4_000_000,
                queue_bytes: 32 << 10,
                congestion: if load > 0.0 {
                    // Load also brings loss, as real cross-traffic does.
                    CongestionProfile::new(vec![CongestionEpoch {
                        start: hermes_core::MediaTime::ZERO,
                        end: hermes_core::MediaTime::MAX,
                        load,
                        extra_loss: load * 0.05,
                    }])
                } else {
                    CongestionProfile::idle()
                },
                jitter: JitterModel::Exponential {
                    mean: MediaDuration::from_millis(2),
                },
                loss: LossModel::Bernoulli { p: 0.002 },
                playout,
                grading: false, // isolate the short-term mechanism
                clip_secs: 20,
                horizon: MediaTime::from_secs(50),
                ..Default::default()
            };
            let runs = run_seeds(&p, &seeds);
            t.row(vec![
                format!("{:.0}%", load * 100.0),
                label.to_string(),
                fmt_dur_ms(max_dur_by(&runs, |m| m.max_skew)),
                format!("{:.0}", mean_by(&runs, |m| m.glitches as f64)),
                format!("{:.0}", mean_by(&runs, |m| m.duplicates as f64)),
                format!("{:.0}", mean_by(&runs, |m| m.dropped as f64)),
                format!("{:.0}", mean_by(&runs, |m| m.frames_played as f64)),
            ]);
        }
    }
    out.table(
        "EXP-SKEW — intermedia skew vs load, short-term recovery on/off (3 seeds)",
        &t,
    );
    out.line(
        "expected shape: skew grows with load; with recovery ON the skew stays bounded\n\
         (repairs appear as duplicates/drops) while OFF it grows unchecked.\n\
         Beyond ~45% load the nominal-rate flows no longer fit the link: admission\n\
         rejects them (EXP-ADMIT) and the grading engine must shed rate (EXP-GRADE).",
    );
}
