//! Precision–recall curves.
//!
//! Two constructors cover every experiment in the paper:
//!
//! - [`PrCurve::from_scores`] — sweep all distinct score thresholds of a
//!   per-item fraud score (SVD baselines, vote fractions);
//! - [`PrCurve::from_threshold_sets`] — evaluate an explicit family of
//!   detected sets (EnsemFDet's `T` sweep, Fraudar's `k` sweep), keeping the
//!   native threshold value on each point.

use crate::metrics::{confusion, Confusion};
use serde::{Deserialize, Serialize};

/// One operating point of a detector.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PrPoint {
    /// The threshold that produced this point (score cut, vote count `T`,
    /// block count `k` — constructor-dependent).
    pub threshold: f64,
    /// Number of detected items.
    pub detected: usize,
    /// Precision.
    pub precision: f64,
    /// Recall.
    pub recall: f64,
    /// F1.
    pub f1: f64,
}

impl PrPoint {
    /// Builds a point from confusion counts.
    pub fn from_confusion(threshold: f64, c: &Confusion) -> Self {
        PrPoint {
            threshold,
            detected: c.detected(),
            precision: c.precision(),
            recall: c.recall(),
            f1: c.f1(),
        }
    }
}

/// A precision–recall curve (points ordered by increasing recall /
/// decreasing threshold).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PrCurve {
    /// The operating points.
    pub points: Vec<PrPoint>,
}

impl PrCurve {
    /// Sweeps every distinct score value as a `score ≥ t` detection
    /// threshold. `scores[i]` is item `i`'s fraud score; `labels[i]` its
    /// ground truth. Points are ordered from the strictest threshold (lowest
    /// recall) to the loosest.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn from_scores(scores: &[f64], labels: &[bool]) -> Self {
        assert_eq!(scores.len(), labels.len(), "scores/labels length mismatch");
        let total_pos = labels.iter().filter(|&&l| l).count();
        // Sort items by score descending; walk down accumulating tp/fp.
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .expect("scores must not be NaN")
                .then(a.cmp(&b))
        });
        let mut points = Vec::new();
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut i = 0usize;
        while i < order.len() {
            let t = scores[order[i]];
            if t <= 0.0 {
                // Score 0 (or below) means "no evidence"; sweeping past it
                // would declare the whole population detected.
                break;
            }
            // Consume the whole tie group.
            while i < order.len() && scores[order[i]] == t {
                if labels[order[i]] {
                    tp += 1;
                } else {
                    fp += 1;
                }
                i += 1;
            }
            let c = Confusion {
                tp,
                fp,
                fn_: total_pos - tp,
                tn: labels.len() - total_pos - fp,
            };
            points.push(PrPoint::from_confusion(t, &c));
        }
        PrCurve { points }
    }

    /// Evaluates an explicit `(threshold, detected set)` family.
    pub fn from_threshold_sets<'a>(
        sets: impl IntoIterator<Item = (f64, &'a [u32])>,
        labels: &[bool],
    ) -> Self {
        let points = sets
            .into_iter()
            .map(|(t, detected)| PrPoint::from_confusion(t, &confusion(detected, labels)))
            .collect();
        PrCurve { points }
    }

    /// Best F1 over the curve (0 for an empty curve).
    pub fn best_f1(&self) -> f64 {
        self.points.iter().map(|p| p.f1).fold(0.0, f64::max)
    }

    /// The point with the best F1.
    pub fn best_point(&self) -> Option<&PrPoint> {
        self.points
            .iter()
            .max_by(|a, b| a.f1.partial_cmp(&b.f1).expect("f1 is finite"))
    }

    /// Area under the precision–recall curve by step interpolation over
    /// recall (conservative: uses each segment's right-end precision, with
    /// the first point's precision carried back to recall 0).
    pub fn auc_pr(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let mut pts: Vec<(f64, f64)> = self
            .points
            .iter()
            .map(|p| (p.recall, p.precision))
            .collect();
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("recall is finite"));
        let mut auc = 0.0;
        let mut prev_r = 0.0;
        for &(r, p) in &pts {
            auc += (r - prev_r).max(0.0) * p;
            prev_r = r;
        }
        auc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_sweep_orders_strict_to_loose() {
        // Items: scores 0.9 (fraud), 0.8 (honest), 0.7 (fraud), 0.1 (honest).
        let scores = vec![0.9, 0.8, 0.7, 0.1];
        let labels = vec![true, false, true, false];
        let c = PrCurve::from_scores(&scores, &labels);
        assert_eq!(c.points.len(), 4);
        assert_eq!(c.points[0].detected, 1);
        assert_eq!(c.points[0].precision, 1.0);
        assert_eq!(c.points[0].recall, 0.5);
        assert_eq!(c.points[3].detected, 4);
        assert_eq!(c.points[3].recall, 1.0);
        assert_eq!(c.points[3].precision, 0.5);
        // Recall is monotone nondecreasing along the sweep.
        for w in c.points.windows(2) {
            assert!(w[0].recall <= w[1].recall);
        }
    }

    #[test]
    fn tied_scores_collapse_to_one_point() {
        let scores = vec![0.5, 0.5, 0.5];
        let labels = vec![true, false, true];
        let c = PrCurve::from_scores(&scores, &labels);
        assert_eq!(c.points.len(), 1);
        assert_eq!(c.points[0].detected, 3);
    }

    #[test]
    fn zero_scores_are_not_swept() {
        let scores = vec![0.9, 0.0, 0.0];
        let labels = vec![true, true, false];
        let c = PrCurve::from_scores(&scores, &labels);
        assert_eq!(c.points.len(), 1);
        assert_eq!(c.points[0].detected, 1);
        assert_eq!(c.points[0].recall, 0.5);
    }

    #[test]
    fn threshold_sets_keep_native_thresholds() {
        let labels = vec![true, true, false, false];
        let t3: Vec<u32> = vec![0];
        let t1: Vec<u32> = vec![0, 1, 2];
        let c = PrCurve::from_threshold_sets([(3.0, &t3[..]), (1.0, &t1[..])], &labels);
        assert_eq!(c.points[0].threshold, 3.0);
        assert_eq!(c.points[0].precision, 1.0);
        assert!((c.points[1].precision - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.points[1].recall, 1.0);
    }

    #[test]
    fn best_f1_and_best_point() {
        let labels = vec![true, true, false, false];
        let scores = vec![0.9, 0.6, 0.7, 0.1];
        let c = PrCurve::from_scores(&scores, &labels);
        let best = c.best_point().unwrap();
        assert!((c.best_f1() - best.f1).abs() < 1e-15);
        assert!(best.f1 > 0.5);
    }

    #[test]
    fn auc_of_perfect_detector_is_one() {
        let scores = vec![1.0, 0.9, 0.1, 0.05];
        let labels = vec![true, true, false, false];
        let c = PrCurve::from_scores(&scores, &labels);
        assert!((c.auc_pr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn auc_of_empty_curve_is_zero() {
        assert_eq!(PrCurve::default().auc_pr(), 0.0);
        assert_eq!(PrCurve::default().best_f1(), 0.0);
        assert!(PrCurve::default().best_point().is_none());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        PrCurve::from_scores(&[0.5], &[true, false]);
    }
}
