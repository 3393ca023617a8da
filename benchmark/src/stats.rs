//! Order statistics over small samples.

/// Median (mean of the middle pair for an even count). Panics when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// The highest whole percentile of `n` samples that still has at least ten
/// samples beyond it (by nearest rank), never below the median. With fewer
/// than twenty samples no percentile above the median qualifies and the
/// answer is 50.
pub fn tail_percentile(n: usize) -> u32 {
    if n < 20 {
        return 50;
    }
    // n - ceil(p n / 100) >= 10  <=>  p <= 100 - 1000 / n
    ((100.0 - 1000.0 / n as f64).floor() as u32).clamp(50, 99)
}

/// Nearest-rank percentile of an ascending sample. Panics when empty.
pub fn nearest_rank(sorted: &[f64], pct: u32) -> f64 {
    let rank = (pct as usize * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(360), 97);
        assert_eq!(tail_percentile(370), 97);
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(20), 50);
        assert_eq!(tail_percentile(7), 50);
        for n in 20..2000usize {
            let p = tail_percentile(n);
            let rank = (p as usize * n).div_ceil(100);
            assert!(n - rank >= 10, "n={n} p={p}");
            if p < 99 {
                let next = ((p + 1) as usize * n).div_ceil(100);
                assert!(n - next < 10, "n={n}: p{} also has ten beyond it", p + 1);
            }
        }
    }

    #[test]
    fn nearest_rank_picks_the_sample_at_the_rank() {
        let v: Vec<f64> = (1..=360).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 97), 350.0);
        assert_eq!(nearest_rank(&v, 50), 180.0);
        assert_eq!(nearest_rank(&[5.0], 50), 5.0);
    }
}
