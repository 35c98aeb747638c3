//! ROC curves and AUC-ROC.
//!
//! The paper's introduction criticizes heuristic block detectors for their
//! "zigzag ROC curve": whole-block detections make the true-positive rate
//! jump in coarse steps, so no operating point can be dialed to a target
//! false-positive rate. This module quantifies that — including a
//! smoothness diagnostic ([`RocCurve::max_tpr_jump`]).
//!
//! Its constructors take what [`crate::PrCurve`]'s take, and a score sweep
//! is the same sweep: each ROC point's `tpr` is the PR point's `recall`.

use crate::metrics::{confusion, score_sweep, Confusion};
use serde::{Deserialize, Serialize};

/// One ROC operating point.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RocPoint {
    /// The threshold that produced this point.
    pub threshold: f64,
    /// False-positive rate `fp / (fp + tn)`.
    pub fpr: f64,
    /// True-positive rate (recall) `tp / (tp + fn)`.
    pub tpr: f64,
}

impl RocPoint {
    /// Builds a point from confusion counts.
    pub fn from_confusion(threshold: f64, c: &Confusion) -> Self {
        let neg = c.fp + c.tn;
        RocPoint {
            threshold,
            fpr: if neg == 0 {
                0.0
            } else {
                c.fp as f64 / neg as f64
            },
            tpr: c.recall(),
        }
    }
}

/// An ROC curve, ordered from the strictest threshold to the loosest.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RocCurve {
    /// The operating points.
    pub points: Vec<RocPoint>,
}

impl RocCurve {
    /// Sweeps every distinct positive score value as a `score ≥ t`
    /// threshold — the same sweep as [`crate::PrCurve::from_scores`], so
    /// each point's `tpr` is the PR point's `recall`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn from_scores(scores: &[f64], labels: &[bool]) -> Self {
        let points = score_sweep(scores, labels)
            .iter()
            .map(|(t, c)| RocPoint::from_confusion(*t, c))
            .collect();
        RocCurve { points }
    }

    /// Evaluates an explicit `(threshold, detected set)` family, as
    /// [`crate::PrCurve::from_threshold_sets`] does.
    pub fn from_threshold_sets<T: Copy + Into<f64>>(
        sets: &[(T, Vec<u32>)],
        labels: &[bool],
    ) -> Self {
        let points = sets
            .iter()
            .map(|(t, detected)| {
                RocPoint::from_confusion((*t).into(), &confusion(detected, labels))
            })
            .collect();
        RocCurve { points }
    }

    /// Area under the ROC curve by trapezoidal integration over FPR,
    /// anchored at (0,0) and (1,1).
    pub fn auc(&self) -> f64 {
        let mut pts: Vec<(f64, f64)> = self.points.iter().map(|p| (p.fpr, p.tpr)).collect();
        pts.push((0.0, 0.0));
        pts.push((1.0, 1.0));
        pts.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
        let mut auc = 0.0;
        for w in pts.windows(2) {
            let ((x0, y0), (x1, y1)) = (w[0], w[1]);
            auc += (x1 - x0) * (y0 + y1) / 2.0;
        }
        auc
    }

    /// The largest single-step jump in TPR between consecutive operating
    /// points — the "zigzag" diagnostic. Smooth detectors score near
    /// `1 / #positives`; whole-block detectors score a block's share of the
    /// positives in one step.
    pub fn max_tpr_jump(&self) -> f64 {
        let mut tprs: Vec<f64> = self.points.iter().map(|p| p.tpr).collect();
        tprs.push(0.0);
        tprs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        tprs.windows(2).map(|w| w[1] - w[0]).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_scores_have_unit_auc() {
        let scores = vec![0.9, 0.8, 0.2, 0.1];
        let labels = vec![true, true, false, false];
        let roc = RocCurve::from_scores(&scores, &labels);
        assert!((roc.auc() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverted_scores_have_zero_ish_auc() {
        let scores = vec![0.9, 0.8, 0.2, 0.1];
        let labels = vec![false, false, true, true];
        let roc = RocCurve::from_scores(&scores, &labels);
        assert!(roc.auc() < 0.3);
    }

    #[test]
    fn random_scores_auc_near_half() {
        // Alternating labels down the score ranking → AUC ≈ 0.5.
        let n = 200;
        let scores: Vec<f64> = (0..n).map(|i| 1.0 - i as f64 / n as f64).collect();
        let labels: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let roc = RocCurve::from_scores(&scores, &labels);
        assert!((roc.auc() - 0.5).abs() < 0.02, "auc {}", roc.auc());
    }

    #[test]
    fn rates_are_monotone_along_the_sweep() {
        let scores = vec![0.9, 0.7, 0.7, 0.5, 0.3, 0.2];
        let labels = vec![true, false, true, false, true, false];
        let roc = RocCurve::from_scores(&scores, &labels);
        for w in roc.points.windows(2) {
            assert!(w[0].fpr <= w[1].fpr);
            assert!(w[0].tpr <= w[1].tpr);
        }
    }

    #[test]
    fn threshold_sets_and_point_from_confusion() {
        let labels = vec![true, true, false, false];
        let roc =
            RocCurve::from_threshold_sets(&[(2.0, vec![0]), (1.0, vec![0, 1, 2, 3])], &labels);
        assert_eq!(roc.points[0].tpr, 0.5);
        assert_eq!(roc.points[0].fpr, 0.0);
        assert_eq!(roc.points[1].tpr, 1.0);
        assert_eq!(roc.points[1].fpr, 1.0);
    }

    #[test]
    fn zigzag_diagnostic_flags_block_detectors() {
        let labels: Vec<bool> = (0..100).map(|i| i < 50).collect();
        // Smooth detector: one positive at a time.
        let smooth: Vec<f64> = (0..100).map(|i| 1.0 - i as f64 / 100.0).collect();
        let smooth_roc = RocCurve::from_scores(&smooth, &labels);
        assert!(smooth_roc.max_tpr_jump() <= 0.021);
        // Block detector: one threshold set grabbing 40 positives at once.
        let block_roc = RocCurve::from_threshold_sets(&[(1.0, (0..40).collect())], &labels);
        assert!(block_roc.max_tpr_jump() >= 0.79);
    }

    #[test]
    fn empty_curve_auc_is_half_from_anchors() {
        // Only the (0,0)-(1,1) anchor diagonal remains.
        assert!((RocCurve::default().auc() - 0.5).abs() < 1e-12);
        assert_eq!(RocCurve::default().max_tpr_jump(), 0.0);
    }

    #[test]
    fn no_negatives_population() {
        let scores = vec![0.9, 0.5];
        let labels = vec![true, true];
        let roc = RocCurve::from_scores(&scores, &labels);
        assert!(roc.points.iter().all(|p| p.fpr == 0.0));
    }
}
