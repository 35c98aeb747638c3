//! The pluggable detector abstraction.
//!
//! Every detection method in the workspace — the six baselines in
//! `ensemfdet-baselines` and the ensemble itself — answers the same
//! question: *given the purchase graph, how suspicious is each user?*
//! Before this module each method exposed its own bespoke entry point
//! (block lists, raw singular-vector magnitudes, core numbers, hub
//! scores, degrees), which made them impossible to compose. [`Detector`]
//! is the uniform contract: per-user scores in `[0, 1]`, plus the dense
//! block structure when the method produces one.
//!
//! [`DetectContext`] is the shared input. It wraps one parent snapshot
//! and lazily builds the user×merchant [`CsrMatrix`] **once**, so a
//! hybrid scan that consults several spectral components never
//! re-assembles the adjacency — previously Fraudar, SpokEn, and FBox each
//! rebuilt it from the `Graph` on every call.
//!
//! This trait is also the seam for the remaining heterogeneous-link
//! roadmap item: a multi-relation transformation layer only has to
//! produce a `DetectContext` over the collapsed graph and every detector
//! (and the hybrid fusion on top) works unchanged.

use crate::block::Block;
use crate::ensemble::EnsemFdet;
use ensemfdet_graph::BipartiteGraph;
use ensemfdet_linalg::CsrMatrix;
use std::sync::OnceLock;

/// Shared per-scan input: the parent graph plus lazily-built derived
/// structures every detector can reuse.
///
/// The adjacency matrix is built on first use and cached for the life of
/// the context, so running `k` matrix-consuming detectors over one
/// context assembles it once, not `k` times.
#[derive(Debug)]
pub struct DetectContext<'a> {
    graph: &'a BipartiteGraph,
    adjacency: OnceLock<CsrMatrix>,
}

impl<'a> DetectContext<'a> {
    /// Wraps a parent graph. No derived structure is built until asked
    /// for.
    pub fn new(graph: &'a BipartiteGraph) -> Self {
        DetectContext {
            graph,
            adjacency: OnceLock::new(),
        }
    }

    /// The wrapped graph.
    pub fn graph(&self) -> &'a BipartiteGraph {
        self.graph
    }

    /// The user×merchant adjacency matrix (binary or weighted, matching
    /// the graph), assembled on first call and shared by every
    /// subsequent one.
    pub fn adjacency(&self) -> &CsrMatrix {
        self.adjacency.get_or_init(|| adjacency_matrix(self.graph))
    }
}

/// Assembles the sparse user×merchant adjacency matrix of a bipartite
/// graph (binary on unweighted graphs, weighted otherwise).
pub fn adjacency_matrix(g: &BipartiteGraph) -> CsrMatrix {
    let triplets: Vec<(u32, u32, f64)> = g.edges().map(|(_, u, v, w)| (u.0, v.0, w)).collect();
    CsrMatrix::from_triplets(g.num_users(), g.num_merchants(), &triplets)
}

/// What a detector reports for one graph.
#[derive(Clone, Debug)]
pub struct DetectorOutput {
    /// Per-user suspiciousness in `[0, 1]`, indexed by user id. Score
    /// ordering is the method's ranking; the absolute values are only
    /// comparable within one detector.
    pub scores: Vec<f64>,
    /// Dense blocks, for methods that produce explicit block structure
    /// (FDET-style peeling); `None` for pure scoring methods.
    pub blocks: Option<Vec<Block>>,
}

impl DetectorOutput {
    /// An output with scores only.
    pub fn scores_only(scores: Vec<f64>) -> Self {
        DetectorOutput {
            scores,
            blocks: None,
        }
    }

    /// An output with scores and block structure.
    pub fn with_blocks(scores: Vec<f64>, blocks: Vec<Block>) -> Self {
        DetectorOutput {
            scores,
            blocks: Some(blocks),
        }
    }
}

/// A fraud-detection method with the uniform scoring contract.
///
/// Implementations must return one finite score in `[0, 1]` per user of
/// `ctx.graph()` (empty and single-edge graphs included), and must be
/// deterministic: the same context and configuration always produce the
/// same output.
pub trait Detector {
    /// Stable lowercase method name (`ensemfdet`, `fraudar`, `spoken`,
    /// …) — used for labels in benches, telemetry, and results.
    fn name(&self) -> &'static str;

    /// Scores every user of the context's graph.
    fn score(&self, ctx: &DetectContext<'_>) -> DetectorOutput;
}

impl Detector for EnsemFdet {
    fn name(&self) -> &'static str {
        "ensemfdet"
    }

    /// The ensemble's vote fraction (`votes / N`): already in `[0, 1]`,
    /// and sweeping a threshold over it is exactly the paper's `T` sweep.
    fn score(&self, ctx: &DetectContext<'_>) -> DetectorOutput {
        let outcome = self.detect(ctx.graph());
        DetectorOutput::scores_only(outcome.votes.user_scores())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::EnsemFdetConfig;
    use ensemfdet_graph::{GraphBuilder, MerchantId, UserId};

    fn planted() -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        for u in 0..8u32 {
            for v in 0..4u32 {
                b.add_edge(UserId(u), MerchantId(v));
            }
        }
        for u in 8..48u32 {
            b.add_edge(UserId(u), MerchantId(4 + u % 17));
        }
        b.build()
    }

    #[test]
    fn adjacency_is_built_once_and_shared() {
        let g = planted();
        let ctx = DetectContext::new(&g);
        let a = ctx.adjacency() as *const CsrMatrix;
        let b = ctx.adjacency() as *const CsrMatrix;
        assert_eq!(a, b, "second call must return the cached matrix");
        assert_eq!(ctx.adjacency().rows(), g.num_users());
        assert_eq!(ctx.adjacency().cols(), g.num_merchants());
    }

    #[test]
    fn adjacency_matches_graph() {
        let g = BipartiteGraph::from_edges(3, 2, vec![(0, 0), (1, 1), (2, 0)]).unwrap();
        let a = adjacency_matrix(&g);
        assert_eq!(a.rows(), 3);
        assert_eq!(a.cols(), 2);
        assert_eq!(a.nnz(), 3);
        let d = a.to_dense();
        assert_eq!(d[(0, 0)], 1.0);
        assert_eq!(d[(1, 1)], 1.0);
        assert_eq!(d[(2, 0)], 1.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn weighted_graph_adjacency_keeps_weights() {
        let g = BipartiteGraph::from_weighted_edges(1, 1, vec![(0, 0)], vec![2.5]).unwrap();
        let a = adjacency_matrix(&g);
        assert_eq!(a.to_dense()[(0, 0)], 2.5);
    }

    #[test]
    fn ensemfdet_scores_are_vote_fractions() {
        let g = planted();
        let det = EnsemFdet::new(EnsemFdetConfig {
            num_samples: 8,
            sample_ratio: 0.5,
            seed: 11,
            ..Default::default()
        });
        let ctx = DetectContext::new(&g);
        let out = det.score(&ctx);
        assert_eq!(out.scores, det.detect(&g).votes.user_scores());
        assert!(out
            .scores
            .iter()
            .all(|s| s.is_finite() && (0.0..=1.0).contains(s)));
        assert!(out.blocks.is_none());
    }
}
