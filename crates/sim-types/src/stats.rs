//! Statistics helpers used by the evaluation harness.
//!
//! The paper reports *geometric means* of per-benchmark speedups, grouped by
//! MPKI class, and min/max/geomean triples (Figure 2). These helpers keep
//! that arithmetic in one tested place.

use core::fmt;

/// Geometric mean of a sequence of positive values.
///
/// Returns `None` for an empty sequence or if any value is non-positive
/// (a non-positive speedup is always a harness bug worth surfacing).
///
/// ```
/// use sim_types::stats::geomean;
/// let g = geomean([1.0, 4.0]).unwrap();
/// assert!((g - 2.0).abs() < 1e-12);
/// assert!(geomean([]).is_none());
/// ```
pub fn geomean<I>(values: I) -> Option<f64>
where
    I: IntoIterator<Item = f64>,
{
    let mut log_sum = 0.0f64;
    let mut n = 0usize;
    for v in values {
        if v <= 0.0 || !v.is_finite() {
            return None;
        }
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        None
    } else {
        Some((log_sum / n as f64).exp())
    }
}

/// The min / max / geometric-mean triple the paper's Figure 2 reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Geometric mean of all values.
    pub geomean: f64,
    /// Number of samples summarized.
    pub count: usize,
}

impl Summary {
    /// Summarizes a non-empty sequence of positive values.
    ///
    /// Returns `None` on an empty sequence or non-positive values.
    pub fn of<I>(values: I) -> Option<Summary>
    where
        I: IntoIterator<Item = f64>,
    {
        let vals: Vec<f64> = values.into_iter().collect();
        let gm = geomean(vals.iter().copied())?;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in &vals {
            min = min.min(v);
            max = max.max(v);
        }
        Some(Summary {
            min,
            max,
            geomean: gm,
            count: vals.len(),
        })
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "min {:.2} / max {:.2} / geomean {:.3} (n={})",
            self.min, self.max, self.geomean, self.count
        )
    }
}

/// Arithmetic mean; `None` when empty.
pub fn mean<I>(values: I) -> Option<f64>
where
    I: IntoIterator<Item = f64>,
{
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        None
    } else {
        Some(sum / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_matches_hand_computation() {
        let g = geomean([2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        let g = geomean([1.0, 1.0, 1.0]).unwrap();
        assert!((g - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_rejects_empty_and_nonpositive() {
        assert!(geomean([]).is_none());
        assert!(geomean([1.0, 0.0]).is_none());
        assert!(geomean([1.0, -2.0]).is_none());
        assert!(geomean([f64::NAN]).is_none());
    }

    #[test]
    fn summary_triple() {
        let s = Summary::of([1.0, 2.0, 4.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.geomean - 2.0).abs() < 1e-12);
        assert_eq!(s.count, 3);
        assert!(s.to_string().contains("geomean"));
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Summary::of([]).is_none());
    }

    #[test]
    fn mean_basics() {
        assert_eq!(mean([1.0, 3.0]), Some(2.0));
        assert!(mean([]).is_none());
    }

    #[test]
    fn geomean_is_scale_invariant() {
        let base: Vec<f64> = vec![1.2, 3.4, 0.9, 2.2];
        let scaled: Vec<f64> = base.iter().map(|v| v * 10.0).collect();
        let g1 = geomean(base).unwrap();
        let g2 = geomean(scaled).unwrap();
        assert!((g2 / g1 - 10.0).abs() < 1e-9);
    }
}
