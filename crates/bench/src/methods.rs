//! Uniform curve builders for every method under evaluation.

use ensemfdet::{
    kcore_scores, spectral_scores, DetectContext, EnsemFdet, EnsemFdetConfig, EnsembleOutcome,
    HybridScorer, ScoreNormalization, ScoringConfig,
};
use ensemfdet_baselines::{
    standard_detectors, FBox, FBoxConfig, Fraudar, FraudarConfig, Spoken, SpokenConfig,
};
use ensemfdet_eval::PrCurve;
use ensemfdet_graph::BipartiteGraph;

/// Runs the ensemble and returns its outcome (callers derive curves and
/// timing from it).
pub fn run_ensemfdet(g: &BipartiteGraph, cfg: EnsemFdetConfig) -> EnsembleOutcome {
    EnsemFdet::new(cfg).detect(g)
}

/// The ensemble's `T`-sweep PR curve from a finished outcome.
pub fn ensemfdet_curve(outcome: &EnsembleOutcome, labels: &[bool]) -> PrCurve {
    PrCurve::from_threshold_sets(&outcome.votes.user_threshold_sets(), labels)
}

/// Fraudar's cumulative-block polyline (thresholds are block counts `k`).
pub fn fraudar_curve(g: &BipartiteGraph, labels: &[bool], k: usize) -> PrCurve {
    let result = Fraudar::new(FraudarConfig {
        k,
        ..Default::default()
    })
    .run(g);
    PrCurve::from_threshold_sets(&result.operating_points(), labels)
}

/// SpokEn's score-sweep curve (25 components, as the paper configures it).
pub fn spoken_curve(g: &BipartiteGraph, labels: &[bool]) -> PrCurve {
    PrCurve::from_scores(&Spoken::new(SpokenConfig::default()).score_users(g), labels)
}

/// FBox's score-sweep curve.
pub fn fbox_curve(g: &BipartiteGraph, labels: &[bool]) -> PrCurve {
    PrCurve::from_scores(&FBox::new(FBoxConfig::default()).score_users(g), labels)
}

/// One score-sweep curve per baseline in the [`Detector`] registry
/// (default-configured), labeled by method name. One shared
/// [`DetectContext`], so the adjacency matrix is assembled at most once
/// across all six methods.
///
/// [`Detector`]: ensemfdet::Detector
pub fn detector_curves(g: &BipartiteGraph, labels: &[bool]) -> Vec<(&'static str, PrCurve)> {
    let ctx = DetectContext::new(g);
    standard_detectors()
        .iter()
        .map(|d| (d.name(), PrCurve::from_scores(&d.score(&ctx).scores, labels)))
        .collect()
}

/// What a calibration sweep settled on.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// The base config with the fitted weights substituted in.
    pub config: ScoringConfig,
    /// Best F1 the fitted weights reach on the labeled data (over a
    /// threshold sweep of the fused score).
    pub best_f1: f64,
    /// Weight vectors evaluated.
    pub grid_evaluated: usize,
}

/// Fits the fusion weights against labeled data: sweeps the weight
/// simplex in steps of `1/10` (66 combinations, including the three
/// degenerate single-method corners) and keeps the vector whose fused
/// score's PR curve reaches the highest best F1. Ties keep the first —
/// vote-heaviest — vector, so calibration never drifts off the ensemble
/// without a measured win. By construction the result is at least as
/// good (in fitted-set F1) as any single component alone.
pub fn calibrate_weights(
    vote: &[f64],
    spectral: &[f64],
    kcore: &[f64],
    labels: &[bool],
    base: &ScoringConfig,
) -> Calibration {
    const STEPS: u32 = 10;
    let mut best: Option<(f64, ScoringConfig)> = None;
    let mut evaluated = 0;
    for v in (0..=STEPS).rev() {
        for s in 0..=(STEPS - v) {
            let k = STEPS - v - s;
            let candidate = ScoringConfig {
                enabled: true,
                vote_weight: v as f64 / STEPS as f64,
                spectral_weight: s as f64 / STEPS as f64,
                kcore_weight: k as f64 / STEPS as f64,
                ..*base
            };
            let fused = HybridScorer::new(candidate).fuse(vote, spectral, kcore);
            let f1 = PrCurve::from_scores(&fused, labels).best_f1();
            evaluated += 1;
            if best.as_ref().is_none_or(|(b, _)| f1 > *b) {
                best = Some((f1, candidate));
            }
        }
    }
    let (best_f1, config) = best.expect("grid is never empty");
    Calibration {
        config,
        best_f1,
        grid_evaluated: evaluated,
    }
}

/// The calibrated hybrid's curve: the three components computed once on
/// the parent graph (vote fraction from a finished ensemble outcome,
/// spectral and k-core from a shared context), fusion weights fitted on
/// the labels under both normalizations, and the PR curve swept over the
/// best fused score.
pub fn hybrid_curve(
    g: &BipartiteGraph,
    outcome: &EnsembleOutcome,
    labels: &[bool],
    base: &ScoringConfig,
) -> (Calibration, PrCurve) {
    let ctx = DetectContext::new(g);
    let vote = outcome.votes.user_scores();
    let spectral = spectral_scores(&ctx, base);
    let kcore = kcore_scores(&ctx);
    let cal = [ScoreNormalization::MinMax, ScoreNormalization::Rank]
        .into_iter()
        .map(|normalization| {
            let base = ScoringConfig {
                normalization,
                ..*base
            };
            calibrate_weights(&vote, &spectral, &kcore, labels, &base)
        })
        .max_by(|a, b| a.best_f1.partial_cmp(&b.best_f1).expect("finite F1"))
        .expect("two candidates");
    let fused = HybridScorer::new(cal.config).fuse(&vote, &spectral, &kcore);
    (cal, PrCurve::from_scores(&fused, labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemfdet_graph::{GraphBuilder, MerchantId, UserId};

    fn planted() -> (BipartiteGraph, Vec<bool>) {
        let mut b = GraphBuilder::new();
        for u in 0..8u32 {
            for v in 0..4u32 {
                b.add_edge(UserId(u), MerchantId(v));
            }
        }
        for u in 8..80u32 {
            b.add_edge(UserId(u), MerchantId(4 + u % 31));
        }
        let g = b.build();
        let labels: Vec<bool> = (0..g.num_users()).map(|u| u < 8).collect();
        (g, labels)
    }

    #[test]
    fn all_methods_produce_curves() {
        let (g, labels) = planted();
        let out = run_ensemfdet(
            &g,
            EnsemFdetConfig {
                num_samples: 8,
                sample_ratio: 0.5,
                seed: 1,
                ..Default::default()
            },
        );
        assert!(!ensemfdet_curve(&out, &labels).points.is_empty());
        assert!(!fraudar_curve(&g, &labels, 5).points.is_empty());
        assert!(!spoken_curve(&g, &labels).points.is_empty());
        // On a graph this small the default 25-component SVD is full-rank,
        // so FBox's residuals (and the curve) legitimately vanish — only
        // require the sweep to be well-formed.
        for p in fbox_curve(&g, &labels).points {
            assert!(p.precision.is_finite() && p.recall.is_finite());
        }
    }

    #[test]
    fn registry_and_hybrid_curves_are_well_formed() {
        let (g, labels) = planted();
        let curves = detector_curves(&g, &labels);
        assert_eq!(curves.len(), 6);
        for (name, curve) in &curves {
            for p in &curve.points {
                assert!(p.precision.is_finite() && p.recall.is_finite(), "{name}");
            }
        }
        let out = run_ensemfdet(
            &g,
            EnsemFdetConfig {
                num_samples: 8,
                sample_ratio: 0.5,
                seed: 1,
                ..Default::default()
            },
        );
        let base = ScoringConfig::enabled();
        let (cal, curve) = hybrid_curve(&g, &out, &labels, &base);
        assert_eq!(cal.grid_evaluated, 66);
        // Calibration includes the pure-vote corner, so the fitted hybrid
        // never scores below the ensemble's own sweep.
        assert!(curve.best_f1() >= ensemfdet_curve(&out, &labels).best_f1() - 1e-12);
    }

    /// The camouflage ablation's dominance claim: on dataset #1 at every
    /// camouflage level (0/2/6/12 purchases per fraud user), the
    /// calibrated hybrid's best F1 is at or above every single method's —
    /// the ensemble's vote sweep and all six registry baselines.
    #[test]
    fn calibrated_hybrid_dominates_every_single_method_under_camouflage() {
        use ensemfdet_datagen::generate;
        use ensemfdet_datagen::presets::{jd_preset, JdDataset};

        for camo in [0, 2, 6, 12] {
            let mut cfg = jd_preset(JdDataset::Jd1, 400, 0xCA30);
            for group in &mut cfg.fraud_groups {
                group.camouflage_per_user = camo;
            }
            let ds = generate(&cfg);
            let labels = ds.labels();
            let outcome = run_ensemfdet(
                &ds.graph,
                EnsemFdetConfig {
                    num_samples: 120,
                    sample_ratio: 0.4,
                    seed: 0xCA31,
                    ..Default::default()
                },
            );
            let (_, hybrid) = hybrid_curve(&ds.graph, &outcome, &labels, &ScoringConfig::enabled());
            let hybrid_f1 = hybrid.best_f1();
            let singles = std::iter::once(("ensemfdet", ensemfdet_curve(&outcome, &labels)))
                .chain(detector_curves(&ds.graph, &labels));
            for (name, curve) in singles {
                let f1 = curve.best_f1();
                assert!(
                    hybrid_f1 >= f1 - 1e-9,
                    "camo {camo}: hybrid best F1 {hybrid_f1:.4} below {name} {f1:.4}"
                );
            }
        }
    }

    #[test]
    fn calibration_beats_or_matches_every_corner() {
        let vote = vec![0.9, 0.8, 0.1, 0.0, 0.2, 0.0];
        let spectral = vec![0.1, 0.7, 0.8, 0.1, 0.0, 0.05];
        let kcore = vec![0.5, 0.9, 0.6, 0.1, 0.1, 0.2];
        let labels = [true, true, true, false, false, false];
        let base = ScoringConfig::enabled();
        let cal = calibrate_weights(&vote, &spectral, &kcore, &labels, &base);
        assert_eq!(cal.grid_evaluated, 66);
        for weights in [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]] {
            let corner = ScoringConfig {
                vote_weight: weights[0],
                spectral_weight: weights[1],
                kcore_weight: weights[2],
                ..base
            };
            let fused = HybridScorer::new(corner).fuse(&vote, &spectral, &kcore);
            assert!(
                cal.best_f1 >= PrCurve::from_scores(&fused, &labels).best_f1() - 1e-12,
                "{weights:?}"
            );
        }
        let sum: f64 = cal.config.weights().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dense_block_methods_beat_chance_on_planted() {
        let (g, labels) = planted();
        let out = run_ensemfdet(
            &g,
            EnsemFdetConfig {
                num_samples: 8,
                sample_ratio: 0.5,
                seed: 1,
                ..Default::default()
            },
        );
        let chance = 8.0 / 80.0;
        assert!(ensemfdet_curve(&out, &labels).best_f1() > chance);
        assert!(fraudar_curve(&g, &labels, 5).best_f1() > chance);
    }
}
