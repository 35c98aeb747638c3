//! Delta-CSR: the compact record of what changed between two snapshot
//! graphs.
//!
//! A continuously monitored deployment rebuilds its purchase graph epoch
//! after epoch, and most epochs change very little of it: repeat
//! purchases dedup away entirely, and genuinely new edges cluster on a
//! small set of accounts (FraudTrap's *loosely synchronized* arrival
//! pattern, arXiv:1810.08885). A [`GraphDelta`] captures exactly that
//! change surface — the dimensions on both ends plus the sorted sets of
//! users and merchants whose adjacency runs differ — in O(touched) space,
//! so downstream consumers (incremental compaction, dirty-sample reuse in
//! the ensemble) can scale their work with the delta instead of the
//! graph.
//!
//! # Why this is enough for bit-identical sample reuse
//!
//! Every sampler draw in `ensemfdet_sampling` is a deterministic function
//! of `(population size, ratio, seed)`: Floyd's algorithm over `0..n`
//! where `n` is the edge count (RES), one side's node count (ONS), or
//! both side counts (TNS). The delta therefore answers the only two
//! questions reuse needs:
//!
//! 1. **Did the draw population change?** If a relevant dimension in
//!    [`GraphDelta::base_dims`] differs from [`GraphDelta::new_dims`],
//!    the *selection itself* is different and the sample must re-run.
//! 2. **Did the selected subgraph change?** With populations unchanged
//!    the selection is provably identical, and a node-subset sample's
//!    materialized subgraph is a pure function of the selected nodes'
//!    adjacency — untouched per [`GraphDelta::touches_user`] /
//!    [`GraphDelta::touches_merchant`] means bit-identical.
//!
//! Snapshot graphs here are append-only and deduplicated (sorted unique
//! edge lists), so an unchanged edge count means an unchanged graph:
//! edges are never removed, and a "new" duplicate purchase adds nothing.

use serde::{Deserialize, Serialize};

/// Node/edge dimensions of a snapshot graph: `(users, merchants, edges)`.
pub type GraphDims = (usize, usize, usize);

/// The change surface between two epoch-tagged snapshot graphs.
///
/// Construction sites guarantee `touched_users` / `touched_merchants` are
/// sorted and deduplicated, so membership tests are binary searches.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct GraphDelta {
    /// Epoch of the base (older) snapshot.
    pub from_epoch: u64,
    /// Epoch of the new snapshot this delta leads to.
    pub to_epoch: u64,
    /// `(users, merchants, edges)` of the base snapshot.
    pub base_dims: GraphDims,
    /// `(users, merchants, edges)` of the new snapshot.
    pub new_dims: GraphDims,
    /// Users whose adjacency runs changed, sorted ascending, deduplicated.
    pub touched_users: Vec<u32>,
    /// Merchants whose adjacency runs changed, sorted ascending,
    /// deduplicated.
    pub touched_merchants: Vec<u32>,
}

impl GraphDelta {
    /// The delta of an epoch bump that changed nothing in the graph
    /// (e.g. a compaction that drained only repeat purchases).
    pub fn unchanged(from_epoch: u64, to_epoch: u64, dims: GraphDims) -> Self {
        GraphDelta {
            from_epoch,
            to_epoch,
            base_dims: dims,
            new_dims: dims,
            touched_users: Vec::new(),
            touched_merchants: Vec::new(),
        }
    }

    /// Builds the delta from the sorted-unique edges that are genuinely
    /// new in the target snapshot (present there, absent in the base).
    ///
    /// The touched sets are exactly the endpoints of those edges: in an
    /// append-only deduplicated graph an adjacency run changes iff a new
    /// unique edge lands on it. Both are returned at exact capacity, not
    /// the capacity of `new_edges`, since a snapshot history keeps them.
    pub fn from_new_edges(
        from_epoch: u64,
        to_epoch: u64,
        base_dims: GraphDims,
        new_dims: GraphDims,
        new_edges: &[(u32, u32)],
    ) -> Self {
        let mut touched_users: Vec<u32> = new_edges.iter().map(|&(u, _)| u).collect();
        let mut touched_merchants: Vec<u32> = new_edges.iter().map(|&(_, v)| v).collect();
        touched_users.sort_unstable();
        touched_users.dedup();
        touched_merchants.sort_unstable();
        touched_merchants.dedup();
        touched_users.shrink_to_fit();
        touched_merchants.shrink_to_fit();
        GraphDelta {
            from_epoch,
            to_epoch,
            base_dims,
            new_dims,
            touched_users,
            touched_merchants,
        }
    }

    /// `true` when the two snapshots hold the *same* graph: no dimension
    /// moved and no adjacency run changed. Every cached sample is
    /// reusable across such a delta, whatever its kind.
    pub fn graph_unchanged(&self) -> bool {
        self.base_dims == self.new_dims
            && self.touched_users.is_empty()
            && self.touched_merchants.is_empty()
    }

    /// Whether user `u`'s adjacency changed across this delta.
    pub fn touches_user(&self, u: u32) -> bool {
        self.touched_users.binary_search(&u).is_ok()
    }

    /// Whether merchant `v`'s adjacency changed across this delta.
    pub fn touches_merchant(&self, v: u32) -> bool {
        self.touched_merchants.binary_search(&v).is_ok()
    }

    /// Touched nodes as a fraction of the new snapshot's node population
    /// (`0.0` for an empty graph). The oversized-delta fallback threshold
    /// compares against this.
    pub fn touched_fraction(&self) -> f64 {
        let (nu, nv, _) = self.new_dims;
        let total = nu + nv;
        if total == 0 {
            return 0.0;
        }
        (self.touched_users.len() + self.touched_merchants.len()) as f64 / total as f64
    }

    /// Total touched nodes (both sides).
    pub fn touched_nodes(&self) -> usize {
        self.touched_users.len() + self.touched_merchants.len()
    }

    /// Composes `self` (base → mid) with `next` (mid → new) into one
    /// base → new delta, or `None` when the epochs do not chain.
    ///
    /// Touched sets union (a node changed across the span iff it changed
    /// in some hop — sound because edges are append-only, so a change
    /// never "un-happens"), and the dims are taken from the two ends.
    pub fn compose(&self, next: &GraphDelta) -> Option<GraphDelta> {
        if self.to_epoch != next.from_epoch {
            return None;
        }
        Some(GraphDelta {
            from_epoch: self.from_epoch,
            to_epoch: next.to_epoch,
            base_dims: self.base_dims,
            new_dims: next.new_dims,
            touched_users: merge_sorted(&self.touched_users, &next.touched_users),
            touched_merchants: merge_sorted(&self.touched_merchants, &next.touched_merchants),
        })
    }
}

/// Union of two sorted-unique `u32` slices, sorted and unique.
fn merge_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_new_edges_collects_sorted_unique_endpoints() {
        let d = GraphDelta::from_new_edges(
            1,
            2,
            (10, 8, 20),
            (10, 8, 23),
            &[(7, 2), (3, 2), (7, 5)],
        );
        assert_eq!(d.touched_users, vec![3, 7]);
        assert_eq!(d.touched_merchants, vec![2, 5]);
        assert!(!d.graph_unchanged());
        assert!(d.touches_user(7));
        assert!(!d.touches_user(4));
        assert!(d.touches_merchant(5));
        assert!(!d.touches_merchant(0));
        assert_eq!(d.touched_nodes(), 4);
    }

    #[test]
    fn unchanged_delta_is_unchanged() {
        let d = GraphDelta::unchanged(3, 4, (5, 5, 9));
        assert!(d.graph_unchanged());
        assert_eq!(d.touched_fraction(), 0.0);
    }

    #[test]
    fn touched_fraction_uses_new_dims() {
        let d = GraphDelta::from_new_edges(0, 1, (0, 0, 0), (8, 2, 5), &[(1, 0), (2, 1)]);
        // 2 users + 2 merchants touched out of 10 nodes.
        assert!((d.touched_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn compose_chains_epochs_and_unions_touched_sets() {
        let a = GraphDelta::from_new_edges(1, 2, (4, 4, 6), (5, 4, 8), &[(4, 1), (0, 2)]);
        let b = GraphDelta::from_new_edges(2, 3, (5, 4, 8), (5, 6, 9), &[(0, 5)]);
        let ab = a.compose(&b).expect("epochs chain");
        assert_eq!(ab.from_epoch, 1);
        assert_eq!(ab.to_epoch, 3);
        assert_eq!(ab.base_dims, (4, 4, 6));
        assert_eq!(ab.new_dims, (5, 6, 9));
        assert_eq!(ab.touched_users, vec![0, 4]);
        assert_eq!(ab.touched_merchants, vec![1, 2, 5]);
        // Non-chaining epochs refuse to compose.
        assert!(b.compose(&a).is_none());
    }

    #[test]
    fn merge_sorted_unions_without_duplicates() {
        assert_eq!(merge_sorted(&[1, 3, 5], &[2, 3, 6]), vec![1, 2, 3, 5, 6]);
        assert_eq!(merge_sorted(&[], &[4]), vec![4]);
        assert_eq!(merge_sorted(&[4], &[]), vec![4]);
        assert_eq!(merge_sorted(&[], &[]), Vec::<u32>::new());
    }
}
