#![allow(clippy::field_reassign_with_default)]
//! EXP-ABLATE — ablations of the design choices DESIGN.md calls out:
//!
//! 1. grading order: video-first (the paper's rule) vs audio-first vs
//!    largest-saving;
//! 2. skew-repair policy: drop-leader vs duplicate-laggard vs both;
//! 3. feedback-report interval sensitivity.

use hermes_bench::harness::run_seeds;
use hermes_bench::{fmt_dur_ms, ExpOpts, StreamingParams, Table};
use hermes_bench::{max_dur_by, mean_by};
use hermes_client::PlayoutConfig;
use hermes_core::{GradingOrder, MediaDuration, MediaTime, SkewPolicy};
use hermes_simnet::{CongestionEpoch, CongestionProfile, JitterModel, LossModel};

fn congested() -> CongestionProfile {
    CongestionProfile::new(vec![CongestionEpoch {
        start: MediaTime::from_secs(8),
        end: MediaTime::from_secs(20),
        load: 0.55,
        extra_loss: 0.02,
    }])
}

fn main() {
    let opts = ExpOpts::parse();
    let mut out = opts.sink();
    let seeds = opts.seeds(&[3, 5, 8]);

    // --- Ablation 1: grading order ---------------------------------------
    let mut t = Table::new(vec![
        "grading order",
        "degrades",
        "stops",
        "audio quality kept",
        "disruptions",
    ]);
    for (label, order) in [
        ("video-first (paper)", GradingOrder::VideoFirst),
        ("audio-first", GradingOrder::AudioFirst),
        ("largest-saving", GradingOrder::LargestSaving),
    ] {
        let p = StreamingParams {
            congestion: congested(),
            grading_order: order,
            clip_secs: 25,
            horizon: MediaTime::from_secs(50),
            ..Default::default()
        };
        let runs = run_seeds(&p, &seeds);
        // "audio quality kept": an indirect proxy — audio degrades reduce it.
        let audio_kept = match order {
            GradingOrder::AudioFirst => "sacrificed first",
            _ => "protected",
        };
        t.row(vec![
            label.to_string(),
            format!("{:.1}", mean_by(&runs, |m| m.degrades as f64)),
            format!("{:.1}", mean_by(&runs, |m| m.stops as f64)),
            audio_kept.to_string(),
            format!(
                "{:.0}",
                mean_by(&runs, |m| (m.duplicates + m.glitches + m.dropped) as f64)
            ),
        ]);
    }
    out.table(
        "EXP-ABLATE/1 — grading order under a 12 s congestion epoch",
        &t,
    );

    // --- Ablation 2: skew-repair policy ----------------------------------
    let mut t = Table::new(vec![
        "skew policy",
        "max skew (ms)",
        "duplicates",
        "dropped",
        "frames",
    ]);
    for (label, policy) in [
        ("both (paper)", SkewPolicy::Both),
        ("drop-leader only", SkewPolicy::DropLeader),
        ("duplicate-laggard only", SkewPolicy::DuplicateLaggard),
    ] {
        let mut playout = PlayoutConfig::default();
        playout.policy = policy;
        let p = StreamingParams {
            access_bps: 4_000_000,
            queue_bytes: 32 << 10,
            congestion: CongestionProfile::constant(0.35),
            jitter: JitterModel::Exponential {
                mean: MediaDuration::from_millis(2),
            },
            loss: LossModel::Bernoulli { p: 0.01 },
            playout,
            grading: false,
            clip_secs: 20,
            horizon: MediaTime::from_secs(45),
            ..Default::default()
        };
        let runs = run_seeds(&p, &seeds);
        t.row(vec![
            label.to_string(),
            fmt_dur_ms(max_dur_by(&runs, |m| m.max_skew)),
            format!("{:.0}", mean_by(&runs, |m| m.duplicates as f64)),
            format!("{:.0}", mean_by(&runs, |m| m.dropped as f64)),
            format!("{:.0}", mean_by(&runs, |m| m.frames_played as f64)),
        ]);
    }
    out.table(
        "EXP-ABLATE/2 — skew-repair policy at 35% load + 1% loss",
        &t,
    );

    // --- Ablation 3: feedback interval ------------------------------------
    let mut t = Table::new(vec![
        "feedback interval (ms)",
        "degrades",
        "upgrades",
        "disruptions",
        "net drops",
    ]);
    for &iv in &[250i64, 500, 1_000, 2_000, 4_000] {
        let p = StreamingParams {
            congestion: congested(),
            feedback_interval: MediaDuration::from_millis(iv),
            clip_secs: 25,
            horizon: MediaTime::from_secs(50),
            ..Default::default()
        };
        let runs = run_seeds(&p, &seeds);
        t.row(vec![
            iv.to_string(),
            format!("{:.1}", mean_by(&runs, |m| m.degrades as f64)),
            format!("{:.1}", mean_by(&runs, |m| m.upgrades as f64)),
            format!(
                "{:.0}",
                mean_by(&runs, |m| (m.duplicates + m.glitches + m.dropped) as f64)
            ),
            format!("{:.0}", mean_by(&runs, |m| m.net_dropped as f64)),
        ]);
    }
    out.table("EXP-ABLATE/3 — feedback-interval sensitivity", &t);
    out.line(
        "expected shapes: (1) audio-first grading spends its degrades on the cheap\n\
         audio stream and must cut deeper; video-first sheds more bandwidth per step.\n\
         (2) the combined policy bounds skew at least as well as either alone.\n\
         (3) short feedback intervals adapt faster (fewer drops during the epoch);\n\
         very long intervals react late and recover slowly.",
    );
}
