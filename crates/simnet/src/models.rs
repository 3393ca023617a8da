//! Stochastic network-behaviour models: delay jitter, packet loss and
//! background-traffic (congestion) profiles.
//!
//! The paper's mechanisms exist precisely because "network connections are
//! experiencing significant delays, delay variation, and data loss in times
//! of network congestion"; these models generate that behaviour with
//! controlled, seedable distributions.

use crate::rng::SimRng;
use hermes_core::{MediaDuration, MediaTime};

/// Per-packet delay-jitter model (added on top of propagation + transmission
/// delay on a link).
#[derive(Debug, Clone, PartialEq)]
pub enum JitterModel {
    /// No jitter.
    None,
    /// Uniform in `[0, max]`.
    Uniform {
        /// Upper bound.
        max: MediaDuration,
    },
    /// Truncated Gaussian: `N(mean, std)`, clamped at zero.
    Gaussian {
        /// Mean added delay.
        mean: MediaDuration,
        /// Standard deviation.
        std_dev: MediaDuration,
    },
    /// Exponential with the given mean (heavy upper tail).
    Exponential {
        /// Mean added delay.
        mean: MediaDuration,
    },
    /// Pareto-distributed jitter: scale `floor`, shape `alpha_tenths`/10
    /// (integer tenths keep the model `Eq`-friendly and serializable).
    /// Heavy-tailed — models the rare multi-hundred-millisecond stalls real
    /// Internet paths exhibit.
    Pareto {
        /// Minimum added delay (the Pareto scale x_m).
        floor: MediaDuration,
        /// Shape α in tenths (e.g. 15 → α = 1.5). Must be > 10 for a
        /// finite mean.
        alpha_tenths: u32,
    },
}

impl JitterModel {
    /// Sample one jitter value (never negative).
    pub fn sample(&self, rng: &mut SimRng) -> MediaDuration {
        match self {
            JitterModel::None => MediaDuration::ZERO,
            JitterModel::Uniform { max } => {
                if max.as_micros() == 0 {
                    MediaDuration::ZERO
                } else {
                    MediaDuration::from_micros(rng.range_u64(0, max.as_micros() as u64 + 1) as i64)
                }
            }
            JitterModel::Gaussian { mean, std_dev } => {
                let v = rng.normal(mean.as_micros() as f64, std_dev.as_micros() as f64);
                MediaDuration::from_micros(v.max(0.0).round() as i64)
            }
            JitterModel::Exponential { mean } => {
                if mean.as_micros() == 0 {
                    MediaDuration::ZERO
                } else {
                    MediaDuration::from_micros(
                        rng.exponential(mean.as_micros() as f64).round() as i64
                    )
                }
            }
            JitterModel::Pareto {
                floor,
                alpha_tenths,
            } => {
                if floor.as_micros() == 0 {
                    return MediaDuration::ZERO;
                }
                let alpha = (*alpha_tenths).max(11) as f64 / 10.0;
                let v = rng.pareto(floor.as_micros() as f64, alpha);
                MediaDuration::from_micros(v.round() as i64)
            }
        }
    }
}

/// Packet-loss model for a link.
#[derive(Debug, Clone, PartialEq)]
pub enum LossModel {
    /// Lossless.
    None,
    /// Independent per-packet loss with probability `p`.
    Bernoulli {
        /// Loss probability in [0, 1].
        p: f64,
    },
    /// Two-state Gilbert–Elliott bursty loss.
    GilbertElliott {
        /// P(good → bad) per packet.
        p_gb: f64,
        /// P(bad → good) per packet.
        p_bg: f64,
        /// Loss probability in the good state.
        loss_good: f64,
        /// Loss probability in the bad state.
        loss_bad: f64,
    },
}

/// Mutable per-link loss state (the Gilbert–Elliott state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LossState {
    /// True while in the "bad" (bursty) state.
    pub bad: bool,
}

impl LossModel {
    /// Decide whether the next packet is lost, advancing the state.
    pub fn sample(&self, state: &mut LossState, rng: &mut SimRng) -> bool {
        match self {
            LossModel::None => false,
            LossModel::Bernoulli { p } => rng.chance(*p),
            LossModel::GilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            } => {
                // Transition first, then sample loss in the new state.
                if state.bad {
                    if rng.chance(*p_bg) {
                        state.bad = false;
                    }
                } else if rng.chance(*p_gb) {
                    state.bad = true;
                }
                let p = if state.bad { *loss_bad } else { *loss_good };
                rng.chance(p)
            }
        }
    }

    /// The long-run average loss probability of the model (analytic).
    pub fn steady_state_loss(&self) -> f64 {
        match self {
            LossModel::None => 0.0,
            LossModel::Bernoulli { p } => *p,
            LossModel::GilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            } => {
                if *p_gb <= 0.0 && *p_bg <= 0.0 {
                    return *loss_good;
                }
                let pi_bad = p_gb / (p_gb + p_bg);
                (1.0 - pi_bad) * loss_good + pi_bad * loss_bad
            }
        }
    }
}

/// One epoch of a background-traffic (congestion) profile: during
/// `[start, end)` the link carries cross traffic equal to `load` of its
/// capacity, and suffers `extra_loss` additional loss probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestionEpoch {
    /// Epoch start (simulation time).
    pub start: MediaTime,
    /// Epoch end (exclusive).
    pub end: MediaTime,
    /// Cross-traffic load as a fraction of link capacity, in [0, 1).
    pub load: f64,
    /// Extra loss probability during the epoch.
    pub extra_loss: f64,
}

/// A schedule of congestion epochs on a link. Gaps between epochs are
/// uncongested. Epochs must be sorted and non-overlapping.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CongestionProfile {
    /// The epochs, sorted by start.
    pub epochs: Vec<CongestionEpoch>,
}

impl CongestionProfile {
    /// An always-idle profile.
    pub fn idle() -> Self {
        CongestionProfile { epochs: Vec::new() }
    }

    /// A constant load over all time.
    pub fn constant(load: f64) -> Self {
        CongestionProfile {
            epochs: vec![CongestionEpoch {
                start: MediaTime::ZERO,
                end: MediaTime::MAX,
                load,
                extra_loss: 0.0,
            }],
        }
    }

    /// Construct from epochs; panics if unsorted/overlapping or load ≥ 1.
    pub fn new(epochs: Vec<CongestionEpoch>) -> Self {
        for e in &epochs {
            assert!(e.start <= e.end, "epoch ends before it starts");
            assert!(
                (0.0..1.0).contains(&e.load),
                "load must be in [0,1): {}",
                e.load
            );
            assert!((0.0..=1.0).contains(&e.extra_loss));
        }
        for w in epochs.windows(2) {
            assert!(w[0].end <= w[1].start, "epochs overlap or are unsorted");
        }
        CongestionProfile { epochs }
    }

    /// The cross-traffic load at instant `t`.
    pub fn load_at(&self, t: MediaTime) -> f64 {
        self.epochs
            .iter()
            .find(|e| t >= e.start && t < e.end)
            .map(|e| e.load)
            .unwrap_or(0.0)
    }

    /// Extra loss probability at instant `t`.
    pub fn extra_loss_at(&self, t: MediaTime) -> f64 {
        self.epochs
            .iter()
            .find(|e| t >= e.start && t < e.end)
            .map(|e| e.extra_loss)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(123)
    }

    #[test]
    fn none_models_do_nothing() {
        let mut r = rng();
        assert_eq!(JitterModel::None.sample(&mut r), MediaDuration::ZERO);
        let mut st = LossState::default();
        assert!(!LossModel::None.sample(&mut st, &mut r));
        assert_eq!(LossModel::None.steady_state_loss(), 0.0);
    }

    #[test]
    fn uniform_jitter_bounded() {
        let mut r = rng();
        let m = JitterModel::Uniform {
            max: MediaDuration::from_millis(10),
        };
        for _ in 0..1000 {
            let j = m.sample(&mut r);
            assert!(j >= MediaDuration::ZERO && j <= MediaDuration::from_millis(10));
        }
    }

    #[test]
    fn gaussian_jitter_never_negative() {
        let mut r = rng();
        let m = JitterModel::Gaussian {
            mean: MediaDuration::from_millis(1),
            std_dev: MediaDuration::from_millis(5),
        };
        assert!((0..1000).all(|_| m.sample(&mut r) >= MediaDuration::ZERO));
    }

    #[test]
    fn exponential_jitter_mean_close() {
        let mut r = rng();
        let m = JitterModel::Exponential {
            mean: MediaDuration::from_millis(4),
        };
        let n = 20_000;
        let total: i64 = (0..n).map(|_| m.sample(&mut r).as_micros()).sum();
        let mean_us = total as f64 / n as f64;
        assert!((mean_us - 4000.0).abs() < 120.0, "mean {mean_us}");
    }

    #[test]
    fn pareto_jitter_heavy_tailed() {
        let mut r = rng();
        let m = JitterModel::Pareto {
            floor: MediaDuration::from_millis(1),
            alpha_tenths: 12, // α = 1.2: heavy tail, finite mean
        };
        let samples: Vec<MediaDuration> = (0..20_000).map(|_| m.sample(&mut r)).collect();
        // Never below the floor.
        assert!(samples.iter().all(|&s| s >= MediaDuration::from_millis(1)));
        // The tail produces rare large spikes (≥ 50× the floor).
        let spikes = samples
            .iter()
            .filter(|&&s| s >= MediaDuration::from_millis(50))
            .count();
        assert!(spikes > 10 && spikes < 2_000, "spikes {spikes}");
        // Degenerate shapes are clamped rather than panicking.
        let degenerate = JitterModel::Pareto {
            floor: MediaDuration::from_millis(1),
            alpha_tenths: 5,
        };
        let _ = degenerate.sample(&mut r);
    }

    #[test]
    fn bernoulli_rate_close() {
        let mut r = rng();
        let m = LossModel::Bernoulli { p: 0.1 };
        let mut st = LossState::default();
        let n = 50_000;
        let lost = (0..n).filter(|_| m.sample(&mut st, &mut r)).count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn gilbert_elliott_bursty_and_matches_steady_state() {
        let mut r = rng();
        let m = LossModel::GilbertElliott {
            p_gb: 0.02,
            p_bg: 0.2,
            loss_good: 0.001,
            loss_bad: 0.3,
        };
        let mut st = LossState::default();
        let n = 200_000;
        let mut lost = 0usize;
        let mut burst_lens = Vec::new();
        let mut cur_burst = 0usize;
        for _ in 0..n {
            if m.sample(&mut st, &mut r) {
                lost += 1;
                cur_burst += 1;
            } else if cur_burst > 0 {
                burst_lens.push(cur_burst);
                cur_burst = 0;
            }
        }
        let rate = lost as f64 / n as f64;
        let expect = m.steady_state_loss();
        assert!((rate - expect).abs() < 0.01, "rate {rate} vs {expect}");
        // Burstiness: some bursts of ≥3 consecutive losses must occur, which
        // would be vanishingly rare at the same average rate i.i.d.
        assert!(burst_lens.iter().any(|&b| b >= 3));
    }

    #[test]
    fn steady_state_loss_analytic() {
        assert_eq!(LossModel::None.steady_state_loss(), 0.0);
        assert_eq!(LossModel::Bernoulli { p: 0.25 }.steady_state_loss(), 0.25);
        // π_bad = p_gb / (p_gb + p_bg) = 0.02 / 0.22; loss = (1-π)·lg + π·lb.
        let m = LossModel::GilbertElliott {
            p_gb: 0.02,
            p_bg: 0.2,
            loss_good: 0.001,
            loss_bad: 0.3,
        };
        let pi_bad = 0.02 / 0.22;
        let expect = (1.0 - pi_bad) * 0.001 + pi_bad * 0.3;
        assert!((m.steady_state_loss() - expect).abs() < 1e-12);
        // Degenerate chain (no transitions at all) stays in the good state.
        let frozen = LossModel::GilbertElliott {
            p_gb: 0.0,
            p_bg: 0.0,
            loss_good: 0.07,
            loss_bad: 0.9,
        };
        assert_eq!(frozen.steady_state_loss(), 0.07);
    }

    #[test]
    fn gilbert_elliott_forced_transitions_alternate() {
        // p_gb = p_bg = 1 forces a strict good/bad alternation; with
        // loss_bad = 1 and loss_good = 0 every second packet is lost,
        // starting with the first (transition happens before sampling).
        let mut r = rng();
        let m = LossModel::GilbertElliott {
            p_gb: 1.0,
            p_bg: 1.0,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        let mut st = LossState::default();
        for i in 0..100 {
            let lost = m.sample(&mut st, &mut r);
            assert_eq!(lost, i % 2 == 0, "packet {i}");
            assert_eq!(st.bad, i % 2 == 0, "state after packet {i}");
        }
        // And the analytic long-run rate agrees: π_bad = 1/2, loss = 1/2.
        assert_eq!(m.steady_state_loss(), 0.5);
    }

    #[test]
    fn congestion_epoch_boundaries() {
        let p = CongestionProfile::new(vec![CongestionEpoch {
            start: MediaTime::from_secs(10),
            end: MediaTime::from_secs(20),
            load: 0.6,
            extra_loss: 0.04,
        }]);
        let eps = MediaTime::from_micros(1) - MediaTime::ZERO;
        // Start is inclusive…
        assert_eq!(p.load_at(MediaTime::from_secs(10)), 0.6);
        assert_eq!(p.extra_loss_at(MediaTime::from_secs(10)), 0.04);
        assert_eq!(p.extra_loss_at(MediaTime::from_secs(10) - eps), 0.0);
        // …end is exclusive.
        assert_eq!(p.load_at(MediaTime::from_secs(20)), 0.0);
        assert_eq!(p.extra_loss_at(MediaTime::from_secs(20)), 0.0);
        assert_eq!(p.load_at(MediaTime::from_secs(20) - eps), 0.6);
    }

    #[test]
    fn zero_length_epoch_is_inert() {
        // start == end is accepted by the validator but matches no instant:
        // [t, t) is empty under inclusive-start/exclusive-end.
        let t = MediaTime::from_secs(5);
        let p = CongestionProfile::new(vec![CongestionEpoch {
            start: t,
            end: t,
            load: 0.9,
            extra_loss: 0.5,
        }]);
        assert_eq!(p.load_at(t), 0.0);
        assert_eq!(p.extra_loss_at(t), 0.0);
    }

    #[test]
    fn congestion_profile_lookup() {
        let p = CongestionProfile::new(vec![
            CongestionEpoch {
                start: MediaTime::from_secs(10),
                end: MediaTime::from_secs(20),
                load: 0.8,
                extra_loss: 0.05,
            },
            CongestionEpoch {
                start: MediaTime::from_secs(30),
                end: MediaTime::from_secs(40),
                load: 0.5,
                extra_loss: 0.0,
            },
        ]);
        assert_eq!(p.load_at(MediaTime::from_secs(5)), 0.0);
        assert_eq!(p.load_at(MediaTime::from_secs(15)), 0.8);
        assert_eq!(p.extra_loss_at(MediaTime::from_secs(15)), 0.05);
        assert_eq!(p.load_at(MediaTime::from_secs(25)), 0.0);
        assert_eq!(p.load_at(MediaTime::from_secs(35)), 0.5);
        assert_eq!(p.load_at(MediaTime::from_secs(40)), 0.0);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_epochs_rejected() {
        let _ = CongestionProfile::new(vec![
            CongestionEpoch {
                start: MediaTime::ZERO,
                end: MediaTime::from_secs(10),
                load: 0.5,
                extra_loss: 0.0,
            },
            CongestionEpoch {
                start: MediaTime::from_secs(5),
                end: MediaTime::from_secs(15),
                load: 0.5,
                extra_loss: 0.0,
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "load must be in")]
    fn full_load_rejected() {
        let _ = CongestionProfile::constant_checked(1.0);
    }

    impl CongestionProfile {
        fn constant_checked(load: f64) -> Self {
            CongestionProfile::new(vec![CongestionEpoch {
                start: MediaTime::ZERO,
                end: MediaTime::MAX,
                load,
                extra_loss: 0.0,
            }])
        }
    }
}
