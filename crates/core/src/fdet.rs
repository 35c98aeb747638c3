//! FDET (Algorithm 1): disjoint dense-block extraction with automatic
//! truncation.
//!
//! Repeatedly peel the densest block of the current graph, remove its edges
//! (the blocks are edge-disjoint and, because a peeled block's nodes lose
//! all their internal edges, effectively node-disjoint in the detected
//! sets), and stop at the truncating point `k̂` (Definition 3) — or at a
//! caller-fixed `k`, which is the ENSEMFDET-FIX-K ablation of Figure 6.
//!
//! Two bit-identical peeling engines back the loop (see [`crate::engine`]):
//! the O(E) bucket-queue peel over CSR snapshots (default) and the naive
//! reference path; [`fdet_with_engine`] selects one explicitly. The same
//! loop runs iterated Fraudar, which retires only each block's internal
//! edges ([`FdetEngine::run_edge_disjoint`]).

use crate::block::Block;
use crate::engine::{Engine, FdetEngine};
use crate::metric::DensityMetric;
use crate::truncate::truncation_point;
use ensemfdet_graph::{BipartiteGraph, MerchantId, UserId};
use serde::{Deserialize, Serialize};

/// How FDET decides the number of blocks to report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Truncation {
    /// Definition 3: stop at the Δ² elbow of the score curve. `k_max` caps
    /// runaway extraction; `patience` is how many blocks past the current
    /// elbow to peel before concluding the elbow is final.
    Auto {
        /// Hard cap on extracted blocks.
        k_max: usize,
        /// Extra blocks peeled beyond the provisional elbow.
        patience: usize,
    },
    /// Always report exactly `k` blocks (fewer if the graph empties) — the
    /// ENSEMFDET-FIX-K baseline.
    FixedK(usize),
    /// Report every block up to `k_max` with no truncation — used to plot
    /// the raw score curves of Figure 1.
    KeepAll {
        /// Hard cap on extracted blocks.
        k_max: usize,
    },
}

impl Default for Truncation {
    fn default() -> Self {
        Truncation::Auto {
            k_max: 50,
            patience: 5,
        }
    }
}

/// The outcome of one FDET run.
#[derive(Clone, Debug)]
pub struct FdetResult {
    /// Every block peeled (including any past the truncating point).
    pub blocks: Vec<Block>,
    /// `φ` of each block, aligned with `blocks` — the Figure 1 curve.
    pub scores: Vec<f64>,
    /// Number of leading blocks considered meaningful (`k̂`).
    pub k_hat: usize,
}

impl FdetResult {
    /// The retained blocks `S_1 … S_k̂`.
    pub fn detected_blocks(&self) -> &[Block] {
        &self.blocks[..self.k_hat]
    }

    /// Union of user members over the retained blocks (`U_d`), sorted and
    /// deduplicated.
    pub fn detected_users(&self) -> Vec<UserId> {
        let mut out: Vec<UserId> = self
            .detected_blocks()
            .iter()
            .flat_map(|b| b.users.iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Union of merchant members over the retained blocks (`V_d`).
    pub fn detected_merchants(&self) -> Vec<MerchantId> {
        let mut out: Vec<MerchantId> = self
            .detected_blocks()
            .iter()
            .flat_map(|b| b.merchants.iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Runs FDET on `g` under the given metric and truncation strategy.
///
/// ```
/// use ensemfdet::fdet::{fdet, Truncation};
/// use ensemfdet::metric::MetricKind;
/// use ensemfdet_graph::{GraphBuilder, UserId, MerchantId};
///
/// // Two disjoint dense blocks (6×3 and 3×2) + sparse noise. (Blocks of
/// // comparable density would be peeled as one best suffix.)
/// let mut b = GraphBuilder::new();
/// for v in 0..3 {
///     for u in 0..6 {
///         b.add_edge(UserId(u), MerchantId(v));
///     }
/// }
/// for v in 10..12 {
///     for u in 10..13 {
///         b.add_edge(UserId(u), MerchantId(v));
///     }
/// }
/// for u in 20..40 {
///     b.add_edge(UserId(u), MerchantId(20 + u % 7));
/// }
/// let result = fdet(
///     &b.build(),
///     &MetricKind::default(),
///     Truncation::KeepAll { k_max: 10 },
/// );
/// // Blocks come out in density order, node-disjoint.
/// assert_eq!(result.blocks[0].users.len(), 6);
/// assert_eq!(result.blocks[1].users.len(), 3);
/// assert!(result.blocks[0].score > result.blocks[1].score);
/// ```
pub fn fdet(g: &BipartiteGraph, metric: &dyn DensityMetric, truncation: Truncation) -> FdetResult {
    fdet_with_engine(g, metric, truncation, Engine::default())
}

/// Runs FDET with an explicit peeling [`Engine`] — `Engine::Bucket` (the
/// [`fdet`] default) or the `Engine::Naive` reference path. Both produce
/// bit-identical results (see [`crate::engine`] for the contract).
///
/// Callers running FDET many times (ensembles, sweeps) should hold a
/// [`FdetEngine`] instead and call [`FdetEngine::run`], which reuses the
/// CSR view and peel scratch across runs.
pub fn fdet_with_engine(
    g: &BipartiteGraph,
    metric: &dyn DensityMetric,
    truncation: Truncation,
    engine: Engine,
) -> FdetResult {
    FdetEngine::run_cached(g, metric, truncation, engine)
}

/// The FDET iteration loop every engine shares: `peel_next(first)` peels
/// the densest block of the current graph and retires its edges under the
/// caller's rule — its nodes' edges for FDET, its internal edges for
/// Fraudar (`first` is true on the first call, while every edge is
/// alive) — or returns `None` once no edge is left. Blocks are collected
/// until the truncation rule stops the loop.
pub(crate) fn iterate_blocks(
    truncation: Truncation,
    mut peel_next: impl FnMut(bool) -> Option<Block>,
) -> FdetResult {
    let cap = match truncation {
        Truncation::Auto { k_max, .. } | Truncation::KeepAll { k_max } => k_max,
        Truncation::FixedK(k) => k,
    };
    let mut blocks: Vec<Block> = Vec::new();
    let mut scores: Vec<f64> = Vec::new();

    while blocks.len() < cap {
        let Some(block) = peel_next(blocks.is_empty()) else {
            break; // current graph has no edges left
        };
        scores.push(block.score);
        // Degenerate safety: a block with no internal edges cannot
        // shrink the graph and would loop forever.
        let degenerate = block.edges.is_empty();
        blocks.push(block);
        if degenerate {
            break;
        }
        if let Truncation::Auto { patience, .. } = truncation {
            // Early stop once the provisional elbow has been stable for
            // `patience` additional blocks.
            if scores.len() >= truncation_point(&scores) + patience {
                break;
            }
        }
    }

    let k_hat = match truncation {
        Truncation::Auto { .. } => truncation_point(&scores).min(blocks.len()),
        Truncation::FixedK(k) => k.min(blocks.len()),
        Truncation::KeepAll { .. } => blocks.len(),
    };
    FdetResult {
        blocks,
        scores,
        k_hat,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{AverageDegreeMetric, LogWeightedMetric};
    use ensemfdet_graph::GraphBuilder;

    /// Three planted blocks of decreasing density plus sparse noise.
    fn three_block_graph() -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        // Block 1: 8×4 complete (densest).
        for u in 0..8u32 {
            for v in 0..4u32 {
                b.add_edge(UserId(u), MerchantId(v));
            }
        }
        // Block 2: 6×3 complete.
        for u in 8..14u32 {
            for v in 4..7u32 {
                b.add_edge(UserId(u), MerchantId(v));
            }
        }
        // Block 3: 5×3, 80% filled.
        for u in 14..19u32 {
            for v in 7..10u32 {
                if (u + v) % 5 != 0 {
                    b.add_edge(UserId(u), MerchantId(v));
                }
            }
        }
        // Sparse noise.
        for u in 19..59u32 {
            b.add_edge(UserId(u), MerchantId(10 + u % 17));
        }
        b.build()
    }

    #[test]
    fn recovers_planted_blocks_in_density_order() {
        let g = three_block_graph();
        let r = fdet(&g, &AverageDegreeMetric, Truncation::KeepAll { k_max: 10 });
        assert!(r.blocks.len() >= 3);
        // Scores are (weakly) decreasing across the planted blocks.
        assert!(r.scores[0] >= r.scores[1] && r.scores[1] >= r.scores[2]);
        // First block is the 8×4.
        assert_eq!(r.blocks[0].users.len(), 8);
        assert_eq!(r.blocks[0].merchants.len(), 4);
        // Second block is the 6×3.
        assert_eq!(r.blocks[1].users.len(), 6);
        assert_eq!(r.blocks[1].merchants.len(), 3);
    }

    #[test]
    fn auto_truncation_keeps_only_planted_blocks() {
        let g = three_block_graph();
        let r = fdet(
            &g,
            &AverageDegreeMetric,
            Truncation::Auto {
                k_max: 20,
                patience: 4,
            },
        );
        assert!(
            (1..=4).contains(&r.k_hat),
            "k̂ = {} should bracket the 3 planted blocks",
            r.k_hat
        );
        // The noise star-blocks (φ ≈ 0.5) must not be retained.
        for b in r.detected_blocks() {
            assert!(b.score > 0.6, "retained noise block φ = {}", b.score);
        }
    }

    #[test]
    fn detected_blocks_are_node_disjoint() {
        let g = three_block_graph();
        let r = fdet(&g, &AverageDegreeMetric, Truncation::KeepAll { k_max: 10 });
        let mut seen_users = std::collections::HashSet::new();
        let mut seen_merchants = std::collections::HashSet::new();
        for b in &r.blocks {
            for u in &b.users {
                assert!(seen_users.insert(u.0), "user {u:?} in two blocks");
            }
            for v in &b.merchants {
                assert!(seen_merchants.insert(v.0), "merchant {v:?} in two blocks");
            }
        }
    }

    #[test]
    fn blocks_are_edge_disjoint() {
        let g = three_block_graph();
        let r = fdet(&g, &LogWeightedMetric::paper_default(), Truncation::KeepAll { k_max: 10 });
        let mut seen = std::collections::HashSet::new();
        for b in &r.blocks {
            for &e in &b.edges {
                assert!(seen.insert(e), "edge {e} claimed by two blocks");
            }
        }
    }

    #[test]
    fn fixed_k_reports_exactly_k() {
        let g = three_block_graph();
        let r = fdet(&g, &AverageDegreeMetric, Truncation::FixedK(2));
        assert_eq!(r.k_hat, 2);
        assert_eq!(r.blocks.len(), 2);
        let r = fdet(&g, &AverageDegreeMetric, Truncation::FixedK(1000));
        assert_eq!(r.k_hat, r.blocks.len());
    }

    #[test]
    fn detected_unions_are_sorted_dedup() {
        let g = three_block_graph();
        let r = fdet(&g, &AverageDegreeMetric, Truncation::FixedK(3));
        let us = r.detected_users();
        for w in us.windows(2) {
            assert!(w[0] < w[1]);
        }
        let vs = r.detected_merchants();
        for w in vs.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn empty_graph_yields_no_blocks() {
        let g = BipartiteGraph::from_edges(4, 4, vec![]).unwrap();
        let r = fdet(&g, &AverageDegreeMetric, Truncation::default());
        assert!(r.blocks.is_empty());
        assert_eq!(r.k_hat, 0);
        assert!(r.detected_users().is_empty());
    }

    #[test]
    fn exhausts_small_graph() {
        // One block, then nothing: must terminate promptly.
        let g = BipartiteGraph::from_edges(2, 2, vec![(0, 0), (1, 1)]).unwrap();
        let r = fdet(&g, &AverageDegreeMetric, Truncation::KeepAll { k_max: 10 });
        assert!(!r.blocks.is_empty());
        let total_edges: usize = r.blocks.iter().map(|b| b.edges.len()).sum();
        assert_eq!(total_edges, 2);
    }

    #[test]
    fn keep_all_respects_cap() {
        let g = three_block_graph();
        let r = fdet(&g, &AverageDegreeMetric, Truncation::KeepAll { k_max: 2 });
        assert!(r.blocks.len() <= 2);
        assert_eq!(r.k_hat, r.blocks.len());
    }
}
