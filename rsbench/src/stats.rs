//! Percentiles with an honest tail: a percentile is reported with its
//! sample count, and flagged when fewer than ten samples lie beyond it.

/// Samples needed beyond a reported tail percentile for it to stand.
pub const TAIL_SAMPLES: usize = 10;

/// One picked percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pick {
    pub value: f64,
    pub samples: usize,
    /// Samples strictly above the picked rank.
    pub beyond: usize,
}

impl Pick {
    /// `true` when fewer than [`TAIL_SAMPLES`] samples lie beyond the
    /// pick, so the tail it claims is not resolved by this run.
    pub fn flagged(&self) -> bool {
        self.beyond < TAIL_SAMPLES
    }
}

/// Nearest-rank percentile `q` (0–1) of `sorted` (ascending). An empty
/// input picks 0 with no samples (and is therefore flagged).
pub fn pick(sorted: &[f64], q: f64) -> Pick {
    let n = sorted.len();
    if n == 0 {
        return Pick {
            value: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Pick {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    }
}

/// A sorted copy of a sample set, for repeated picks.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn p(&self, q: f64) -> Pick {
        pick(&self.sorted, q)
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }
}

/// Median of a small set (e.g. repeated set-up times).
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).p(0.5).value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_of_a_thousand_samples_has_ten_beyond_it() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = Samples::new(values).p(0.99);
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.beyond, 10);
        assert!(!p99.flagged());
    }

    #[test]
    fn a_tail_without_ten_samples_beyond_is_flagged() {
        let values: Vec<f64> = (1..=999).map(f64::from).collect();
        let p99 = Samples::new(values).p(0.99);
        assert!(p99.beyond < TAIL_SAMPLES);
        assert!(p99.flagged());
        let small = Samples::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(small.p(0.5).value, 2.0);
        assert!(small.p(0.99).flagged());
        assert!(Samples::new(Vec::new()).p(0.5).flagged());
    }

    #[test]
    fn picks_are_order_independent() {
        let a = Samples::new(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(a.p(0.5).value, 3.0);
        assert_eq!(a.p(1.0).value, 5.0);
        assert_eq!(a.p(0.0).value, 1.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }
}
