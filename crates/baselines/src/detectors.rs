//! [`Detector`] implementations for every baseline.
//!
//! Each method keeps its original, fully-configurable entry point
//! (`run` / `score_users`); the trait impls here are thin adapters that
//! map the method's native output onto the uniform contract — per-user
//! scores in `[0, 1]`, block structure where the method produces it —
//! without changing any ranking. Methods whose raw scores are unbounded
//! (FBox, k-core, degree) are min-max normalized, which is strictly
//! monotone on distinct values;
//! `every_detector_emits_unit_interval_scores` gates that every adapter
//! ranks users exactly as the bespoke entry point does.
//!
//! Spectral methods score through
//! [`DetectContext::adjacency`], so a hybrid scan consulting several of
//! them assembles the user×merchant matrix once.

use crate::{DegreeBaseline, FBox, Fraudar, Hits, KCoreBaseline, Spoken};
use ensemfdet::scoring::{normalize_scores, ScoreNormalization};
use ensemfdet::{DetectContext, Detector, DetectorOutput};
use ensemfdet_graph::core_decomposition;

fn clamped(scores: Vec<f64>) -> Vec<f64> {
    scores.into_iter().map(|s| s.clamp(0.0, 1.0)).collect()
}

impl Detector for Fraudar {
    fn name(&self) -> &'static str {
        "fraudar"
    }

    /// Fraudar natively detects blocks, not scores; the adapter scores a
    /// user by the earliest block containing it — `(K - j) / K` for
    /// first appearance in block `j` — so the score sweep reproduces the
    /// method's cumulative per-`k` operating points exactly.
    fn score(&self, ctx: &DetectContext<'_>) -> DetectorOutput {
        let result = self.run(ctx.graph());
        let k = result.blocks.len().max(1) as f64;
        let mut scores = vec![0.0f64; ctx.graph().num_users()];
        for (j, block) in result.blocks.iter().enumerate() {
            let s = (result.blocks.len() - j) as f64 / k;
            for u in &block.users {
                if scores[u.index()] == 0.0 {
                    scores[u.index()] = s;
                }
            }
        }
        DetectorOutput::with_blocks(scores, result.blocks)
    }
}

impl Detector for Spoken {
    fn name(&self) -> &'static str {
        "spoken"
    }

    /// Singular-vector magnitudes are already in `[0, 1]` up to floating
    /// error (columns of `U` are orthonormal); clamped for the contract.
    fn score(&self, ctx: &DetectContext<'_>) -> DetectorOutput {
        DetectorOutput::scores_only(clamped(
            self.score_users_with(ctx.graph(), ctx.adjacency()),
        ))
    }
}

impl Detector for FBox {
    fn name(&self) -> &'static str {
        "fbox"
    }

    /// The raw score `residual · ln(1 + degree)` is unbounded above;
    /// min-max normalized onto `[0, 1]`.
    fn score(&self, ctx: &DetectContext<'_>) -> DetectorOutput {
        let raw = self.score_users_with(ctx.graph(), ctx.adjacency());
        DetectorOutput::scores_only(normalize_scores(&raw, ScoreNormalization::MinMax))
    }
}

impl Detector for KCoreBaseline {
    fn name(&self) -> &'static str {
        "kcore"
    }

    /// Core number divided by the graph's degeneracy.
    fn score(&self, ctx: &DetectContext<'_>) -> DetectorOutput {
        let cores = core_decomposition(ctx.graph());
        let max = cores.degeneracy.max(1) as f64;
        DetectorOutput::scores_only(cores.user_core.iter().map(|&c| c as f64 / max).collect())
    }
}

impl Detector for Hits {
    fn name(&self) -> &'static str {
        "hits"
    }

    /// Hub scores are ℓ₂-normalized (and degree division only shrinks
    /// them), so they are already in `[0, 1]`; clamped for the contract.
    fn score(&self, ctx: &DetectContext<'_>) -> DetectorOutput {
        DetectorOutput::scores_only(clamped(self.score_users(ctx.graph())))
    }
}

impl Detector for DegreeBaseline {
    fn name(&self) -> &'static str {
        "degree"
    }

    /// Degree divided by the maximum degree.
    fn score(&self, ctx: &DetectContext<'_>) -> DetectorOutput {
        let raw = self.score_users(ctx.graph());
        let max = raw.iter().cloned().fold(0.0f64, f64::max).max(1.0);
        DetectorOutput::scores_only(raw.into_iter().map(|d| d / max).collect())
    }
}

/// Every baseline behind the trait, default-configured — the registry
/// benches and sweeps iterate instead of hard-coding method lists.
pub fn standard_detectors() -> Vec<Box<dyn Detector>> {
    vec![
        Box::new(Fraudar::default()),
        Box::new(Spoken::default()),
        Box::new(FBox::default()),
        Box::new(KCoreBaseline),
        Box::new(Hits::default()),
        Box::new(DegreeBaseline),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemfdet_graph::{BipartiteGraph, GraphBuilder, MerchantId, UserId};

    fn planted() -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        for u in 0..8u32 {
            for v in 0..4u32 {
                b.add_edge(UserId(u), MerchantId(v));
            }
        }
        for u in 8..60u32 {
            b.add_edge(UserId(u), MerchantId(4 + u % 23));
        }
        b.build()
    }

    #[test]
    fn registry_covers_all_six_methods() {
        let names: Vec<&str> = standard_detectors().iter().map(|d| d.name()).collect();
        assert_eq!(
            names,
            vec!["fraudar", "spoken", "fbox", "kcore", "hits", "degree"]
        );
    }

    #[test]
    fn every_detector_emits_unit_interval_scores() {
        let g = planted();
        let ctx = DetectContext::new(&g);
        for det in standard_detectors() {
            let out = det.score(&ctx);
            assert_eq!(out.scores.len(), g.num_users(), "{}", det.name());
            assert!(
                out.scores
                    .iter()
                    .all(|s| s.is_finite() && (0.0..=1.0).contains(s)),
                "{}",
                det.name()
            );
            // Adapters rank users exactly as the bespoke entry points;
            // rank normalization ignores how ties are stored.
            let bespoke = match det.name() {
                "spoken" => Spoken::default().score_users(&g),
                "fbox" => FBox::default().score_users(&g),
                "hits" => Hits::default().score_users(&g),
                "kcore" => KCoreBaseline.score_users(&g),
                "degree" => DegreeBaseline.score_users(&g),
                _ => continue,
            };
            assert_eq!(
                normalize_scores(&out.scores, ScoreNormalization::Rank),
                normalize_scores(&bespoke, ScoreNormalization::Rank),
                "{}: adapter ranking differs from score_users",
                det.name()
            );
        }
    }

    #[test]
    fn fraudar_scores_follow_block_order() {
        let g = planted();
        let ctx = DetectContext::new(&g);
        let out = Fraudar::default().score(&ctx);
        let blocks = out.blocks.expect("fraudar reports blocks");
        assert!(!blocks.is_empty());
        assert_eq!(blocks, Fraudar::default().run(&g).blocks);
        // Users of the first (densest) block take the top score.
        let top = out.scores.iter().cloned().fold(0.0f64, f64::max);
        for u in &blocks[0].users {
            assert_eq!(out.scores[u.index()], top);
        }
    }
}
