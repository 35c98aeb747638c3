//! The shared input of a scan's graph-level scoring passes.
//!
//! [`DetectContext`] wraps one parent snapshot; the hybrid scan hands the
//! same context to each of its components (`scoring::spectral_scores`,
//! `scoring::kcore_scores`), and the user×merchant [`CsrMatrix`] is
//! assembled lazily, at most once per context. [`adjacency_matrix`] is the
//! one assembly rule; the spectral baselines (SpokEn and FBox in
//! `ensemfdet-baselines`) call it directly.

use ensemfdet_graph::BipartiteGraph;
use ensemfdet_linalg::CsrMatrix;
use std::sync::OnceLock;

/// Shared per-scan input: the parent graph plus lazily-built derived
/// structures every scoring pass can reuse.
///
/// The adjacency matrix is built on first use and cached for the life of
/// the context, so `k` matrix-consuming passes over one context assemble
/// it once, not `k` times.
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

#[cfg(test)]
mod tests {
    use super::*;
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
}
