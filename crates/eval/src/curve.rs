//! Precision–recall curves.
//!
//! Two constructors cover every experiment in the paper:
//!
//! - [`PrCurve::from_scores`] — sweep all distinct positive score
//!   thresholds of a per-item fraud score (SVD baselines, vote fractions,
//!   the fused hybrid score);
//! - [`PrCurve::from_threshold_sets`] — evaluate an explicit family of
//!   detected sets (EnsemFDet's `T` sweep, Fraudar's `k` sweep), keeping the
//!   native threshold value on each point.
//!
//! This curve and [`crate::RocCurve`] read one score sweep: scores in
//! descending order, tied scores entering together, a score ≤ 0 never
//! flagged.

use crate::metrics::{confusion, score_sweep, Confusion};
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
    /// Sweeps every distinct positive score value as a `score ≥ t`
    /// detection threshold. `scores[i]` is item `i`'s fraud score; `labels[i]` its
    /// ground truth. Points are ordered from the strictest threshold (lowest
    /// recall) to the loosest.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn from_scores(scores: &[f64], labels: &[bool]) -> Self {
        let points = score_sweep(scores, labels)
            .iter()
            .map(|(t, c)| PrPoint::from_confusion(*t, c))
            .collect();
        PrCurve { points }
    }

    /// Evaluates an explicit `(threshold, detected set)` family — the
    /// pairs `VoteTally::user_threshold_sets` and
    /// `FraudarResult::operating_points` return.
    pub fn from_threshold_sets<T: Copy + Into<f64>>(
        sets: &[(T, Vec<u32>)],
        labels: &[bool],
    ) -> Self {
        let points = sets
            .iter()
            .map(|(t, detected)| PrPoint::from_confusion((*t).into(), &confusion(detected, labels)))
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
        let c = PrCurve::from_threshold_sets(&[(3.0, vec![0]), (1.0, vec![0, 1, 2])], &labels);
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
    fn best_f1_matches_hand_computation() {
        // Cuts: top-1 F1=0.5, top-2 F1=0.8, top-3 F1=2/3, all-4 gives
        // P=3/4, R=1 → F1 = 6/7, the best.
        let scores = [0.9, 0.8, 0.3, 0.1];
        let labels = [true, true, false, true];
        let f1 = PrCurve::from_scores(&scores, &labels).best_f1();
        assert!((f1 - 6.0 / 7.0).abs() < 1e-12, "{f1}");
        assert_eq!(PrCurve::from_scores(&scores, &[false; 4]).best_f1(), 0.0);
        // A zero score never counts as flagged.
        assert_eq!(
            PrCurve::from_scores(&[0.0, 0.0], &[true, true]).best_f1(),
            0.0
        );
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
