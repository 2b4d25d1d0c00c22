//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports is the nearest-rank order
//! statistic of the recorded samples: the smallest sample with at least
//! `q · n` samples at or below it. Nothing is read from a bucketed
//! histogram, so the resolution of a histogram in the program under test
//! can never move a reading.

/// Sorts samples ascending (total order; NaN never occurs in timings).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of ascending `sorted`.
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    debug_assert!(q > 0.0 && q <= 1.0, "quantile {q} out of (0, 1]");
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Median, p90, p99 and sample count of one sample set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

impl Summary {
    pub fn of(samples: Vec<f64>) -> Self {
        let s = sorted(samples);
        Summary {
            n: s.len(),
            p50: percentile(&s, 0.5),
            p90: percentile(&s, 0.9),
            p99: percentile(&s, 0.99),
        }
    }
}

impl Summary {
    /// `what n=… p50=… p90=… p99=… unit`, values divided by `per_unit`.
    pub fn describe(&self, what: &str, per_unit: f64, unit: &str) -> String {
        format!(
            "{what} n={} p50={:.4} p90={:.4} p99={:.4} {unit}",
            self.n,
            self.p50 / per_unit,
            self.p90 / per_unit,
            self.p99 / per_unit
        )
    }
}

/// Median of a sample set (nearest rank).
pub fn median(samples: Vec<f64>) -> f64 {
    Summary::of(samples).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: the smallest sample `x` with `#{s <= x} >= q·n`, found
    /// by brute force over the unsorted samples.
    fn reference(samples: &[f64], q: f64) -> f64 {
        let n = samples.len() as f64;
        let mut candidates: Vec<f64> = samples
            .iter()
            .copied()
            .filter(|&x| samples.iter().filter(|&&s| s <= x).count() as f64 >= q * n)
            .collect();
        candidates.sort_by(f64::total_cmp);
        candidates[0]
    }

    #[test]
    fn percentile_matches_the_sorted_vector_reference() {
        // A deterministic scramble with duplicates and a long tail.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for n in [1usize, 2, 3, 7, 10, 99, 100, 101, 1000] {
            let samples: Vec<f64> = (0..n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let r = (state % 1000) as f64;
                    if state % 17 == 0 {
                        r * 50.0
                    } else {
                        r
                    }
                })
                .collect();
            let s = sorted(samples.clone());
            for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(percentile(&s, q), reference(&samples, q), "n={n} q={q}");
            }
        }
    }

    #[test]
    fn small_sets_pick_real_samples() {
        let s = sorted(vec![5.0, 1.0, 3.0, 2.0]);
        assert_eq!(percentile(&s, 0.5), 2.0, "lower middle for even n");
        assert_eq!(percentile(&s, 0.99), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        let sum = Summary::of(vec![4.0, 4.0, 9.0]);
        assert_eq!((sum.n, sum.p50, sum.p90, sum.p99), (3, 4.0, 9.0, 9.0));
    }
}
