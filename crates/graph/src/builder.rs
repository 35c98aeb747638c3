//! Incremental graph construction.
//!
//! Transaction logs arrive as a stream of `(user, merchant)` purchase
//! records; the builder accumulates them, optionally merging repeated
//! purchases into a single weighted edge, and produces a
//! [`BipartiteGraph`] sized to the largest index seen.

use crate::graph::BipartiteGraph;
use crate::ids::{MerchantId, UserId};

/// How repeated `(u, v)` records are treated by [`GraphBuilder::build`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DuplicatePolicy {
    /// Keep every record as its own (multi-)edge.
    Keep,
    /// Merge duplicates into one edge whose weight is the record count.
    MergeCounting,
    /// Merge duplicates into a single unit-weight edge.
    MergeBinary,
}

/// Accumulates purchase records and builds a [`BipartiteGraph`].
///
/// ```
/// use ensemfdet_graph::{GraphBuilder, UserId, MerchantId};
/// let mut b = GraphBuilder::new();
/// b.add_edge(UserId(0), MerchantId(2));
/// b.add_edge(UserId(0), MerchantId(2)); // repeated purchase
/// let g = b.build_deduplicated();
/// assert_eq!(g.num_edges(), 1);
/// assert_eq!(g.edge_weight(0), 2.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    edges: Vec<(u32, u32)>,
    min_users: usize,
    min_merchants: usize,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder that will produce a graph with at least the given
    /// node counts, even if higher indexes never appear in an edge.
    pub fn with_min_sizes(min_users: usize, min_merchants: usize) -> Self {
        GraphBuilder {
            edges: Vec::new(),
            min_users,
            min_merchants,
        }
    }

    /// Records one purchase `u → v`.
    pub fn add_edge(&mut self, u: UserId, v: MerchantId) -> &mut Self {
        self.edges.push((u.0, v.0));
        self
    }

    /// Records many purchases at once.
    pub fn extend_edges(&mut self, it: impl IntoIterator<Item = (UserId, MerchantId)>) -> &mut Self {
        self.edges.extend(it.into_iter().map(|(u, v)| (u.0, v.0)));
        self
    }

    /// Number of records accumulated so far.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// `true` when no records have been added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    fn sizes(&self) -> (usize, usize) {
        let mut nu = self.min_users;
        let mut nv = self.min_merchants;
        for &(u, v) in &self.edges {
            nu = nu.max(u as usize + 1);
            nv = nv.max(v as usize + 1);
        }
        (nu, nv)
    }

    /// Builds keeping every record as its own edge
    /// ([`DuplicatePolicy::Keep`]).
    pub fn build(self) -> BipartiteGraph {
        self.build_with(DuplicatePolicy::Keep)
    }

    /// Builds merging duplicates into counted weights
    /// ([`DuplicatePolicy::MergeCounting`]).
    pub fn build_deduplicated(self) -> BipartiteGraph {
        self.build_with(DuplicatePolicy::MergeCounting)
    }

    /// Builds under an explicit [`DuplicatePolicy`].
    pub fn build_with(self, policy: DuplicatePolicy) -> BipartiteGraph {
        let (nu, nv) = self.sizes();
        match policy {
            DuplicatePolicy::Keep => BipartiteGraph::from_edges(nu, nv, self.edges)
                .expect("builder indexes are in range by construction"),
            DuplicatePolicy::MergeCounting => {
                // A sum of ones is the exact count below 2^53 records.
                let records = self.edges.into_iter().map(|(u, v)| (u, v, 1.0)).collect();
                let (edges, weights) = merge_weighted(records);
                BipartiteGraph::from_weighted_edges(nu, nv, edges, weights)
                    .expect("builder indexes are in range by construction")
            }
            DuplicatePolicy::MergeBinary => {
                let mut edges = self.edges;
                edges.sort_unstable();
                edges.dedup();
                BipartiteGraph::from_edges(nu, nv, edges)
                    .expect("builder indexes are in range by construction")
            }
        }
    }
}

/// The one weight rule for repeated `(user, merchant, weight)` records:
/// the distinct pairs in `(user, merchant)` order, each weighted by the
/// sum of its records' weights, folded from its first weight in input
/// order. The sort is stable because `f64` addition is not associative:
/// a pair's sum depends on the order of its terms, so keeping input order
/// is what makes the weight bits a function of the input alone.
pub(crate) fn merge_weighted(mut records: Vec<(u32, u32, f64)>) -> (Vec<(u32, u32)>, Vec<f64>) {
    records.sort_by_key(|&(u, v, _)| (u, v));
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut weights: Vec<f64> = Vec::new();
    for (u, v, w) in records {
        match weights.last_mut() {
            Some(sum) if edges.last() == Some(&(u, v)) => *sum += w,
            _ => {
                edges.push((u, v));
                weights.push(w);
            }
        }
    }
    (edges, weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn sizes_follow_max_index() {
        let mut b = GraphBuilder::new();
        b.add_edge(UserId(4), MerchantId(9));
        let g = b.build();
        assert_eq!(g.num_users(), 5);
        assert_eq!(g.num_merchants(), 10);
    }

    #[test]
    fn min_sizes_respected() {
        let mut b = GraphBuilder::with_min_sizes(10, 20);
        b.add_edge(UserId(0), MerchantId(0));
        let g = b.build();
        assert_eq!(g.num_users(), 10);
        assert_eq!(g.num_merchants(), 20);
    }

    #[test]
    fn keep_policy_preserves_multi_edges() {
        let mut b = GraphBuilder::new();
        b.add_edge(UserId(0), MerchantId(0));
        b.add_edge(UserId(0), MerchantId(0));
        let g = b.build_with(DuplicatePolicy::Keep);
        assert_eq!(g.num_edges(), 2);
        assert!(!g.is_weighted());
    }

    #[test]
    fn merge_counting_produces_weights() {
        let mut b = GraphBuilder::new();
        b.extend_edges([
            (UserId(0), MerchantId(0)),
            (UserId(0), MerchantId(0)),
            (UserId(0), MerchantId(0)),
            (UserId(1), MerchantId(0)),
        ]);
        let g = b.build_deduplicated();
        assert_eq!(g.num_edges(), 2);
        assert!(g.is_weighted());
        assert_eq!(g.total_weight(), 4.0);
    }

    #[test]
    fn merge_binary_drops_counts() {
        let mut b = GraphBuilder::new();
        b.extend_edges([
            (UserId(0), MerchantId(0)),
            (UserId(0), MerchantId(0)),
            (UserId(1), MerchantId(1)),
        ]);
        let g = b.build_with(DuplicatePolicy::MergeBinary);
        assert_eq!(g.num_edges(), 2);
        assert!(!g.is_weighted());
    }

    #[test]
    fn merged_edge_order_is_deterministic() {
        let make = || {
            let mut b = GraphBuilder::new();
            b.extend_edges([
                (UserId(2), MerchantId(1)),
                (UserId(0), MerchantId(3)),
                (UserId(2), MerchantId(1)),
                (UserId(1), MerchantId(0)),
            ]);
            b.build_deduplicated()
        };
        let (g1, g2) = (make(), make());
        assert_eq!(g1.edge_slice(), g2.edge_slice());
        assert_eq!(
            g1.edge_slice(),
            &[(0, 3), (1, 0), (2, 1)],
            "merged edges sorted by (u, v)"
        );
    }

    #[test]
    fn len_and_is_empty() {
        let mut b = GraphBuilder::new();
        assert!(b.is_empty());
        b.add_edge(UserId(0), MerchantId(0));
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
    }
}
