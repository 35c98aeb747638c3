//! Fraudar (Hooi et al., KDD 2016), iterated to `K` blocks.
//!
//! The single-block Fraudar is exactly the greedy peel under the
//! log-weighted metric; the multi-block variant the paper benchmarks
//! (`K = 30` in Table III) repeats the peel after deleting the detected
//! block's edges. Unlike FDET it has **no truncation** — it returns all `K`
//! blocks regardless of quality — and it removes only the blocks' internal
//! edges, so detected node sets may overlap. Its operating points are the
//! cumulative detected-user sets after 1, 2, …, K blocks: a coarse,
//! uncontrollable polyline (the paper's Figures 3–4 diamonds).
//!
//! It runs on the production bucket-queue peel through the same FDET loop
//! as EnsemFDet ([`FdetEngine::run_edge_disjoint`]); the only difference
//! is the retirement rule — FDET retires every edge *incident* to a block,
//! Fraudar only the block's *internal* edges — so Table III times both
//! methods on one engine. `tests/tests/engine_equivalence.rs` gates it
//! bit for bit against the original loop over the naive reference peel.

use ensemfdet::metric::MetricKind;
use ensemfdet::{Block, FdetEngine};
use ensemfdet_graph::BipartiteGraph;
use serde::{Deserialize, Serialize};

/// Fraudar configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FraudarConfig {
    /// Number of blocks to extract (the paper fixes 30).
    pub k: usize,
    /// Density metric (log-weighted by default, as in the original paper).
    pub metric: MetricKind,
}

impl Default for FraudarConfig {
    fn default() -> Self {
        FraudarConfig {
            k: 30,
            metric: MetricKind::default(),
        }
    }
}

/// The Fraudar detector.
#[derive(Clone, Copy, Debug, Default)]
pub struct Fraudar {
    /// Configuration.
    pub config: FraudarConfig,
}

/// Result of a Fraudar run.
#[derive(Clone, Debug)]
pub struct FraudarResult {
    /// Blocks in extraction order (scores are non-increasing in practice
    /// but not guaranteed).
    pub blocks: Vec<Block>,
}

impl FraudarResult {
    /// The cumulative detected user set after the first `k` blocks, sorted
    /// and deduplicated — one Figure 3/4 operating point per `k`.
    pub fn detected_users_after(&self, k: usize) -> Vec<u32> {
        let mut out: Vec<u32> = self.blocks[..k.min(self.blocks.len())]
            .iter()
            .flat_map(|b| b.users.iter().map(|u| u.0))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// All operating points: `(k, cumulative detected users)` for
    /// `k = 1..=blocks`, in the vote sweep's `(threshold, users)` shape.
    pub fn operating_points(&self) -> Vec<(u32, Vec<u32>)> {
        (1..=self.blocks.len())
            .map(|k| (k as u32, self.detected_users_after(k)))
            .collect()
    }
}

impl Fraudar {
    /// Builds a detector with the given config.
    pub fn new(config: FraudarConfig) -> Self {
        Fraudar { config }
    }

    /// Runs the iterated greedy on the full graph (no sampling — this is
    /// the sequential baseline the ensemble is compared against).
    pub fn run(&self, g: &BipartiteGraph) -> FraudarResult {
        let blocks = FdetEngine::new().run_edge_disjoint(g, &self.config.metric, self.config.k);
        FraudarResult { blocks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemfdet_graph::{GraphBuilder, MerchantId, UserId};

    fn two_blocks_graph() -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        for u in 0..6u32 {
            for v in 0..3u32 {
                b.add_edge(UserId(u), MerchantId(v));
            }
        }
        for u in 6..10u32 {
            for v in 3..5u32 {
                b.add_edge(UserId(u), MerchantId(v));
            }
        }
        for u in 10..40u32 {
            b.add_edge(UserId(u), MerchantId(5 + u % 11));
        }
        b.build()
    }

    #[test]
    fn extracts_planted_blocks_first() {
        let g = two_blocks_graph();
        let r = Fraudar::new(FraudarConfig {
            k: 2,
            ..Default::default()
        })
        .run(&g);
        assert_eq!(r.blocks.len(), 2);
        let first: Vec<u32> = r.blocks[0].users.iter().map(|u| u.0).collect();
        assert!(first.iter().all(|&u| u < 6), "{first:?}");
        let second: Vec<u32> = r.blocks[1].users.iter().map(|u| u.0).collect();
        assert!(second.iter().all(|&u| (6..10).contains(&u)), "{second:?}");
    }

    #[test]
    fn cumulative_detection_is_monotone() {
        let g = two_blocks_graph();
        let r = Fraudar::default().run(&g);
        let mut prev = 0usize;
        for (_, detected) in r.operating_points() {
            assert!(detected.len() >= prev);
            prev = detected.len();
        }
    }

    #[test]
    fn stops_when_graph_exhausted() {
        let g = BipartiteGraph::from_edges(2, 2, vec![(0, 0), (1, 1)]).unwrap();
        let r = Fraudar::new(FraudarConfig {
            k: 100,
            ..Default::default()
        })
        .run(&g);
        assert!(r.blocks.len() <= 3);
        let total: usize = r.blocks.iter().map(|b| b.edges.len()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn detected_users_after_caps_at_len() {
        let g = two_blocks_graph();
        let r = Fraudar::new(FraudarConfig {
            k: 2,
            ..Default::default()
        })
        .run(&g);
        assert_eq!(
            r.detected_users_after(100),
            r.detected_users_after(r.blocks.len())
        );
    }

    #[test]
    fn empty_graph_returns_no_blocks() {
        let g = BipartiteGraph::from_edges(3, 3, vec![]).unwrap();
        let r = Fraudar::default().run(&g);
        assert!(r.blocks.is_empty());
        assert!(r.operating_points().is_empty());
    }
}
