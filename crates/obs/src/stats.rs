//! Measurement primitives shared by the QoS managers, the metrics registry
//! and the experiment harness: a streaming mean, fixed-bucket latency
//! histograms and small sample-set helpers.
//!
//! (`hermes-simnet` re-exports `Accumulator` and `DurationHistogram` at its
//! root, so the registry and the simulator agree on one implementation.)

use hermes_core::MediaDuration;

/// Streaming mean accumulator (Welford's update).
#[derive(Debug, Clone, Default)]
pub struct Accumulator {
    n: u64,
    mean: f64,
}

impl Accumulator {
    /// Record one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
    }
    /// Record a duration in microseconds.
    pub fn push_duration(&mut self, d: MediaDuration) {
        self.push(d.as_micros() as f64);
    }
    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

/// A fixed-width bucket histogram over durations, with overflow bucket.
#[derive(Debug, Clone)]
pub struct DurationHistogram {
    bucket_width: MediaDuration,
    buckets: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl DurationHistogram {
    /// `buckets` buckets of `bucket_width` each, plus an overflow bucket.
    pub fn new(bucket_width: MediaDuration, buckets: usize) -> Self {
        assert!(bucket_width.as_micros() > 0 && buckets > 0);
        DurationHistogram {
            bucket_width,
            buckets: vec![0; buckets],
            overflow: 0,
            total: 0,
        }
    }
    /// Record one duration (negative durations clamp into bucket 0).
    pub fn record(&mut self, d: MediaDuration) {
        self.total += 1;
        let idx = d.as_micros().max(0) / self.bucket_width.as_micros();
        if (idx as usize) < self.buckets.len() {
            self.buckets[idx as usize] += 1;
        } else {
            self.overflow += 1;
        }
    }
    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }
    /// The approximate p-quantile (upper bucket edge), `q` in [0, 1].
    pub fn quantile(&self, q: f64) -> MediaDuration {
        if self.total == 0 {
            return MediaDuration::ZERO;
        }
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut cum = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target {
                return self.bucket_width * (i as i64 + 1);
            }
        }
        // In the overflow bucket: report one width past the last edge.
        self.bucket_width * (self.buckets.len() as i64 + 1)
    }
    /// Fraction of samples in the overflow bucket.
    pub fn overflow_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.overflow as f64 / self.total as f64
        }
    }
}

/// Mean of a projected metric over a sample set (0 if empty) — the one
/// shared implementation behind the experiment harness's per-run summaries.
pub fn mean_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    items.iter().map(f).sum::<f64>() / items.len() as f64
}

/// Max of a projected duration metric over a sample set.
pub fn max_dur_by<T>(items: &[T], f: impl Fn(&T) -> MediaDuration) -> MediaDuration {
    items
        .iter()
        .map(f)
        .fold(MediaDuration::ZERO, |a, b| a.max(b))
}

/// Nearest-rank percentile of an unsorted sample set (0 if empty);
/// `q` in [0, 1]. Sorts a copy — meant for end-of-run summaries.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    s[((s.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_mean() {
        let mut a = Accumulator::default();
        assert_eq!(a.mean(), 0.0);
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            a.push(x);
        }
        assert!((a.mean() - 5.0).abs() < 1e-9);
        let mut d = Accumulator::default();
        d.push_duration(MediaDuration::from_millis(10));
        d.push_duration(MediaDuration::from_millis(20));
        assert_eq!(d.mean(), 15_000.0);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = DurationHistogram::new(MediaDuration::from_millis(10), 10);
        for i in 0..100 {
            h.record(MediaDuration::from_millis(i)); // uniform 0..100ms
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.5), MediaDuration::from_millis(50));
        assert_eq!(h.quantile(1.0), MediaDuration::from_millis(100));
        assert_eq!(h.overflow_fraction(), 0.0);
    }

    #[test]
    fn histogram_overflow() {
        let mut h = DurationHistogram::new(MediaDuration::from_millis(1), 5);
        h.record(MediaDuration::from_millis(100));
        h.record(MediaDuration::from_millis(2));
        assert!((h.overflow_fraction() - 0.5).abs() < 1e-9);
        // Negative durations clamp into the first bucket.
        h.record(MediaDuration::from_millis(-5));
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn empty_histogram_quantile_zero() {
        let h = DurationHistogram::new(MediaDuration::from_millis(1), 4);
        assert_eq!(h.quantile(0.9), MediaDuration::ZERO);
    }

    #[test]
    fn histogram_quantile_q_zero_is_first_bucket_edge() {
        let mut h = DurationHistogram::new(MediaDuration::from_millis(10), 10);
        h.record(MediaDuration::from_millis(35)); // bucket 3
        h.record(MediaDuration::from_millis(77)); // bucket 7
                                                  // q=0 degenerates to a zero-sample target, which the cumulative
                                                  // scan satisfies at the very first bucket edge; any q that needs
                                                  // at least one sample reports the first occupied bucket instead.
        assert_eq!(h.quantile(0.0), MediaDuration::from_millis(10));
        assert_eq!(h.quantile(0.01), MediaDuration::from_millis(40));
    }

    #[test]
    fn histogram_quantile_between_bucket_edges() {
        let mut h = DurationHistogram::new(MediaDuration::from_millis(10), 10);
        for _ in 0..10 {
            h.record(MediaDuration::from_millis(5)); // bucket 0
        }
        for _ in 0..10 {
            h.record(MediaDuration::from_millis(95)); // bucket 9
        }
        // Any q that lands strictly inside the low bucket's mass reports
        // that bucket's upper edge; just past it jumps to the high bucket.
        assert_eq!(h.quantile(0.25), MediaDuration::from_millis(10));
        assert_eq!(h.quantile(0.5), MediaDuration::from_millis(10));
        assert_eq!(h.quantile(0.51), MediaDuration::from_millis(100));
    }

    #[test]
    fn histogram_quantile_single_sample() {
        let mut h = DurationHistogram::new(MediaDuration::from_millis(10), 10);
        h.record(MediaDuration::from_millis(42)); // bucket 4
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), MediaDuration::from_millis(50), "q={q}");
        }
    }

    #[test]
    fn histogram_quantile_overflow_bucket() {
        let mut h = DurationHistogram::new(MediaDuration::from_millis(10), 4);
        h.record(MediaDuration::from_millis(5));
        h.record(MediaDuration::from_millis(1_000)); // overflow
                                                     // The median is in-range, the max is the overflow sentinel: one
                                                     // width past the last real edge (4 buckets ⇒ 50ms).
        assert_eq!(h.quantile(0.5), MediaDuration::from_millis(10));
        assert_eq!(h.quantile(1.0), MediaDuration::from_millis(50));
        // q clamps: out-of-range q behaves like the endpoints.
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
    }

    #[test]
    fn sample_set_helpers() {
        assert_eq!(mean_by::<f64>(&[], |x| *x), 0.0);
        assert_eq!(mean_by(&[1.0, 2.0, 3.0], |x| *x), 2.0);
        assert_eq!(
            max_dur_by(&[1i64, 5, 3], |x| MediaDuration::from_millis(*x)),
            MediaDuration::from_millis(5)
        );
        assert_eq!(percentile(&[], 0.5), 0.0);
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
    }
}
