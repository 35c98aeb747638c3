//! Property-based tests for the evaluation crate.

use ensemfdet_eval::{confusion, PrCurve, RocCurve};
use proptest::prelude::*;

proptest! {
    #[test]
    fn confusion_partitions_population(
        labels in prop::collection::vec(any::<bool>(), 1..200),
        picks in prop::collection::vec(any::<prop::sample::Index>(), 0..50)
    ) {
        let mut detected: Vec<u32> = picks.iter().map(|i| i.index(labels.len()) as u32).collect();
        detected.sort_unstable();
        detected.dedup();
        let c = confusion(&detected, &labels);
        prop_assert_eq!(c.tp + c.fp + c.fn_ + c.tn, labels.len());
        prop_assert_eq!(c.tp + c.fp, detected.len());
        prop_assert_eq!(c.tp + c.fn_, labels.iter().filter(|&&l| l).count());
        prop_assert!(c.precision() >= 0.0 && c.precision() <= 1.0);
        prop_assert!(c.recall() >= 0.0 && c.recall() <= 1.0);
        prop_assert!(c.f1() >= 0.0 && c.f1() <= 1.0);
        // F1 lies between min and max of P and R when both are positive.
        if c.precision() > 0.0 && c.recall() > 0.0 {
            let lo = c.precision().min(c.recall());
            let hi = c.precision().max(c.recall());
            prop_assert!(c.f1() >= lo - 1e-12 && c.f1() <= hi + 1e-12);
        }
    }

    #[test]
    fn pr_curve_recall_is_monotone(
        scored in prop::collection::vec((0.01f64..1.0, any::<bool>()), 1..150)
    ) {
        let scores: Vec<f64> = scored.iter().map(|&(s, _)| s).collect();
        let labels: Vec<bool> = scored.iter().map(|&(_, l)| l).collect();
        let c = PrCurve::from_scores(&scores, &labels);
        for w in c.points.windows(2) {
            prop_assert!(w[0].recall <= w[1].recall + 1e-12);
            prop_assert!(w[0].detected <= w[1].detected);
        }
        // The loosest point detects every positively-scored item.
        if let Some(last) = c.points.last() {
            prop_assert_eq!(last.detected, scores.len());
        }
        // AUC within [0, 1].
        let auc = c.auc_pr();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&auc));
        prop_assert!(c.best_f1() <= 1.0);
    }

    #[test]
    fn one_sweep_drives_every_curve(
        scored in prop::collection::vec((0u8..6, any::<bool>()), 1..150)
    ) {
        // Coarse scores force tie groups, and a score of 0 is never flagged.
        let scores: Vec<f64> = scored.iter().map(|&(s, _)| s as f64 / 5.0).collect();
        let labels: Vec<bool> = scored.iter().map(|&(_, l)| l).collect();
        let pr = PrCurve::from_scores(&scores, &labels);
        let roc = RocCurve::from_scores(&scores, &labels);
        prop_assert_eq!(pr.points.len(), roc.points.len());
        for (p, r) in pr.points.iter().zip(&roc.points) {
            prop_assert_eq!(p.threshold.to_bits(), r.threshold.to_bits());
            prop_assert_eq!(p.recall.to_bits(), r.tpr.to_bits());
        }
        // The same cuts as explicit nested sets `{i : score_i ≥ t}` give
        // the same points on both curves.
        let sets: Vec<(f64, Vec<u32>)> = pr
            .points
            .iter()
            .map(|p| {
                let t = p.threshold;
                (t, (0..scores.len() as u32).filter(|&i| scores[i as usize] >= t).collect())
            })
            .collect();
        prop_assert_eq!(PrCurve::from_threshold_sets(&sets, &labels), pr);
        prop_assert_eq!(RocCurve::from_threshold_sets(&sets, &labels), roc);
    }

    #[test]
    fn perfect_scores_have_unit_auc(
        n_pos in 1usize..30, n_neg in 1usize..30
    ) {
        // All positives scored above all negatives.
        let mut scores = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n_pos {
            scores.push(1.0 + i as f64 * 0.001);
            labels.push(true);
        }
        for i in 0..n_neg {
            scores.push(0.1 + i as f64 * 0.0001);
            labels.push(false);
        }
        let c = PrCurve::from_scores(&scores, &labels);
        prop_assert!((c.auc_pr() - 1.0).abs() < 1e-9);
        prop_assert!((c.best_f1() - 1.0).abs() < 1e-9);
    }
}
