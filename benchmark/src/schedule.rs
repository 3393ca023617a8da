//! The arrival schedule: a pure function of the seed and the workload's
//! rate, horizon, title skew and spike. The program under test only ever
//! sees the resulting connects.
//!
//! Arrivals are *stratified*: the cumulative arrival intensity is cut into
//! `count` equal slices and each slice holds exactly one arrival, uniform
//! inside it. At a constant rate that is one arrival per `1/rate` slot. The
//! count — and so the work of a run — is the same on every seed; the seed
//! moves each arrival inside its slot and deals the titles. Titles follow
//! Zipf by quota (largest remainder), dealt to the arrivals by a seeded
//! shuffle, so title popularity is the same on every seed too.
//!
//! The generator has its own small RNG rather than the program's `SimRng`, so
//! that a change to the program's generator cannot move the benchmark's
//! inputs.

/// A burst of `mult` times the base rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spike {
    pub at_s: f64,
    pub len_s: f64,
    pub mult: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleSpec {
    /// Base arrivals per second.
    pub rate: f64,
    /// Arrivals come in `[0, horizon_s)`.
    pub horizon_s: f64,
    pub titles: usize,
    pub zipf_s: f64,
    pub spike: Option<Spike>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When the viewer asks, in microseconds of simulated time.
    pub due_us: i64,
    /// Catalog rank of the title asked for (0 = most popular).
    pub title: usize,
}

/// SplitMix64.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

impl ScheduleSpec {
    /// Cumulative intensity (expected arrivals) up to `t` seconds.
    fn intensity(&self, t: f64) -> f64 {
        let extra = self.spike.map_or(0.0, |s| {
            let inside = (t.min(s.at_s + s.len_s) - s.at_s).max(0.0);
            (s.mult - 1.0) * inside
        });
        self.rate * (t + extra)
    }

    /// The instant at which the cumulative intensity reaches `u`.
    fn instant_of(&self, u: f64) -> f64 {
        let Some(s) = self.spike else {
            return u / self.rate;
        };
        let before = self.rate * s.at_s;
        let inside = self.rate * s.mult * s.len_s;
        if u <= before {
            u / self.rate
        } else if u <= before + inside {
            s.at_s + (u - before) / (self.rate * s.mult)
        } else {
            s.at_s + s.len_s + (u - before - inside) / self.rate
        }
    }

    /// Arrivals in a run: the whole number nearest the total intensity.
    pub fn count(&self) -> usize {
        self.intensity(self.horizon_s).round() as usize
    }
}

/// Zipf quotas over `titles` ranks that sum to `count` (largest remainder).
pub fn zipf_quotas(count: usize, titles: usize, s: f64) -> Vec<usize> {
    let weights: Vec<f64> = (1..=titles).map(|r| (r as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * count as f64).collect();
    let mut quotas: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..titles).collect();
    // Largest fractional part first; ties go to the more popular rank.
    order.sort_by(|&a, &b| {
        let (fa, fb) = (exact[a].fract(), exact[b].fract());
        fb.partial_cmp(&fa).unwrap().then(a.cmp(&b))
    });
    let short = count - quotas.iter().sum::<usize>();
    for &r in order.iter().take(short) {
        quotas[r] += 1;
    }
    quotas
}

pub fn generate(seed: u64, spec: &ScheduleSpec) -> Vec<Arrival> {
    let mut rng = Rng::new(seed ^ 0x5C4E_D01E);
    let n = spec.count();
    let total = spec.intensity(spec.horizon_s);
    let mut titles: Vec<usize> = zipf_quotas(n, spec.titles, spec.zipf_s)
        .into_iter()
        .enumerate()
        .flat_map(|(rank, q)| std::iter::repeat_n(rank, q))
        .collect();
    for i in (1..titles.len()).rev() {
        titles.swap(i, rng.below(i + 1));
    }
    (0..n)
        .map(|k| {
            let u = (k as f64 + rng.unit()) / n as f64 * total;
            Arrival {
                due_us: (spec.instant_of(u) * 1e6) as i64,
                title: titles[k],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAT: ScheduleSpec = ScheduleSpec {
        rate: 12.0,
        horizon_s: 30.0,
        titles: 16,
        zipf_s: 1.2,
        spike: None,
    };
    const SPIKED: ScheduleSpec = ScheduleSpec {
        rate: 10.0,
        horizon_s: 22.0,
        titles: 8,
        zipf_s: 1.1,
        spike: Some(Spike {
            at_s: 8.0,
            len_s: 6.0,
            mult: 3.5,
        }),
    };

    #[test]
    fn count_is_fixed_and_arrivals_are_sorted_inside_the_horizon() {
        for spec in [FLAT, SPIKED] {
            for seed in 0..20 {
                let a = generate(seed, &spec);
                assert_eq!(a.len(), spec.count());
                assert!(a.windows(2).all(|w| w[0].due_us <= w[1].due_us));
                assert!(a[0].due_us >= 0);
                assert!(a.last().unwrap().due_us < (spec.horizon_s * 1e6) as i64);
                assert!(a.iter().all(|x| x.title < spec.titles));
            }
        }
        assert_eq!(FLAT.count(), 360);
        assert_eq!(SPIKED.count(), 370);
    }

    #[test]
    fn pure_in_its_arguments() {
        assert_eq!(generate(3, &FLAT), generate(3, &FLAT));
        assert_ne!(generate(3, &FLAT), generate(4, &FLAT));
        let other = ScheduleSpec {
            zipf_s: 0.8,
            ..FLAT
        };
        assert_ne!(generate(3, &FLAT), generate(3, &other));
    }

    #[test]
    fn one_arrival_per_slot_at_a_constant_rate() {
        let slot_us = 1e6 / FLAT.rate;
        for (k, a) in generate(9, &FLAT).iter().enumerate() {
            assert_eq!((a.due_us as f64 / slot_us) as usize, k);
        }
    }

    #[test]
    fn spike_holds_its_share_of_the_arrivals() {
        let s = SPIKED.spike.unwrap();
        for seed in 0..10 {
            let inside = generate(seed, &SPIKED)
                .iter()
                .filter(|a| {
                    let t = a.due_us as f64 / 1e6;
                    t >= s.at_s && t < s.at_s + s.len_s
                })
                .count();
            // 35/s for 6 s of 370: exact up to the two slots on the edges.
            assert!(
                (209..=211).contains(&inside),
                "{inside} arrivals in the spike"
            );
        }
    }

    #[test]
    fn title_quotas_follow_zipf_and_do_not_depend_on_the_seed() {
        let q = zipf_quotas(360, 16, 1.2);
        assert_eq!(q.iter().sum::<usize>(), 360);
        assert!(q.windows(2).all(|w| w[0] >= w[1]));
        assert!(q[0] > 4 * q[15]);
        for seed in 0..5 {
            let mut seen = vec![0usize; 16];
            for a in generate(seed, &FLAT) {
                seen[a.title] += 1;
            }
            assert_eq!(seen, q);
        }
    }
}
