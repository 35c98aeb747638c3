//! Immutable bipartite graph stored in compressed sparse row form from both
//! sides.
//!
//! The detection algorithms need three access patterns, all O(1)/O(degree):
//!
//! 1. `u → incident edges → merchant endpoints` (peeling a user),
//! 2. `v → incident edges → user endpoints` (peeling a merchant),
//! 3. `edge id → (u, v, weight)` (removing a detected block's edges,
//!    Algorithm 1 line 11).
//!
//! We therefore keep one canonical edge array plus two CSR indexes of edge
//! ids, one grouped by user and one grouped by merchant. Edge weights are
//! optional: plain transaction graphs are unweighted, but Theorem 1's
//! ε-approximation rescales sampled edges by `1/p`, so the density machinery
//! accepts weights everywhere.

use crate::error::GraphError;
use crate::ids::{MerchantId, UserId};

/// Index into the canonical edge array of a [`BipartiteGraph`].
pub type EdgeId = usize;

/// An immutable bipartite graph `G = (U ∪ V, E)` in dual-CSR form.
#[derive(Clone, Debug)]
pub struct BipartiteGraph {
    /// Canonical edge list: `edges[e] = (user, merchant)`.
    edges: Vec<(u32, u32)>,
    /// Optional per-edge weights aligned with `edges`. `None` ⇒ all 1.0.
    weights: Option<Vec<f64>>,
    /// CSR offsets for the user side; `u_offsets.len() == num_users + 1`.
    /// `u32` like the edge ids: [`Self::from_edges`] caps edges at
    /// `u32::MAX`.
    u_offsets: Vec<u32>,
    /// Edge ids incident to each user, grouped by `u_offsets`.
    u_edges: Vec<u32>,
    /// CSR offsets for the merchant side.
    v_offsets: Vec<u32>,
    /// Edge ids incident to each merchant, grouped by `v_offsets`.
    v_edges: Vec<u32>,
}

impl BipartiteGraph {
    /// Builds a graph from an explicit edge list.
    ///
    /// Duplicate edges are kept (multi-edges are meaningful: two purchases
    /// are stronger evidence than one); use [`crate::GraphBuilder`] to
    /// deduplicate into weights instead.
    ///
    /// # Errors
    ///
    /// Returns an error if any endpoint index is out of range, or if the
    /// edge count exceeds `u32::MAX` (the CSR index width).
    pub fn from_edges(
        num_users: usize,
        num_merchants: usize,
        edges: Vec<(u32, u32)>,
    ) -> Result<Self, GraphError> {
        Self::new_impl(num_users, num_merchants, edges, None)
    }

    /// Builds a weighted graph; `weights` must align with `edges`.
    ///
    /// # Errors
    ///
    /// As [`BipartiteGraph::from_edges`]; additionally requires
    /// `weights.len() == edges.len()`, and returns
    /// [`GraphError::InvalidWeight`] for the first weight that is not
    /// finite or has its sign bit set (`-0` included).
    pub fn from_weighted_edges(
        num_users: usize,
        num_merchants: usize,
        edges: Vec<(u32, u32)>,
        weights: Vec<f64>,
    ) -> Result<Self, GraphError> {
        if weights.len() != edges.len() {
            return Err(GraphError::Parse {
                line: 0,
                message: format!(
                    "weights length {} does not match edges length {}",
                    weights.len(),
                    edges.len()
                ),
            });
        }
        if let Some(edge) = weights
            .iter()
            .position(|w| !w.is_finite() || w.is_sign_negative())
        {
            return Err(GraphError::InvalidWeight {
                edge,
                weight: weights[edge],
            });
        }
        Self::new_impl(num_users, num_merchants, edges, Some(weights))
    }

    fn new_impl(
        num_users: usize,
        num_merchants: usize,
        edges: Vec<(u32, u32)>,
        weights: Option<Vec<f64>>,
    ) -> Result<Self, GraphError> {
        if edges.len() > u32::MAX as usize {
            return Err(GraphError::EdgeOutOfRange {
                id: edges.len(),
                num_edges: u32::MAX as usize,
            });
        }
        for &(u, v) in &edges {
            if (u as usize) >= num_users {
                return Err(GraphError::UserOutOfRange { id: u, num_users });
            }
            if (v as usize) >= num_merchants {
                return Err(GraphError::MerchantOutOfRange {
                    id: v,
                    num_merchants,
                });
            }
        }

        let u_csr = build_csr(num_users, edges.iter().map(|&(u, _)| u));
        let v_csr = build_csr(num_merchants, edges.iter().map(|&(_, v)| v));

        Ok(BipartiteGraph {
            edges,
            weights,
            u_offsets: u_csr.0,
            u_edges: u_csr.1,
            v_offsets: v_csr.0,
            v_edges: v_csr.1,
        })
    }

    /// Number of user-side nodes (including isolated ones).
    #[inline]
    pub fn num_users(&self) -> usize {
        self.u_offsets.len() - 1
    }

    /// Number of merchant-side nodes (including isolated ones).
    #[inline]
    pub fn num_merchants(&self) -> usize {
        self.v_offsets.len() - 1
    }

    /// Total node count `|U| + |V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_users() + self.num_merchants()
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// `true` when the graph carries per-edge weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// The canonical edge array as raw `(user, merchant)` index pairs, in
    /// edge-id order — the zero-cost bulk accessor behind
    /// [`crate::CsrView`] construction.
    #[inline]
    pub fn edge_pairs(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Per-edge weights aligned with [`Self::edge_pairs`] when the graph
    /// is weighted (`None` ⇒ every edge weighs `1.0`).
    #[inline]
    pub fn weight_values(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// Degree of user `u` (number of incident edges).
    #[inline]
    pub fn user_degree(&self, u: UserId) -> usize {
        run(&self.u_offsets, u.index()).len()
    }

    /// Degree of merchant `v`.
    #[inline]
    pub fn merchant_degree(&self, v: MerchantId) -> usize {
        run(&self.v_offsets, v.index()).len()
    }

    /// Endpoints of edge `e` as `(user, merchant)`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn edge_endpoints(&self, e: EdgeId) -> (UserId, MerchantId) {
        let (u, v) = self.edges[e];
        (UserId(u), MerchantId(v))
    }

    /// Weight of edge `e` (1.0 on unweighted graphs).
    #[inline]
    pub fn edge_weight(&self, e: EdgeId) -> f64 {
        match &self.weights {
            Some(w) => w[e],
            None => 1.0,
        }
    }

    /// Iterates the merchants adjacent to user `u`, with the connecting edge.
    #[inline]
    pub fn merchants_of(&self, u: UserId) -> NeighborIter<'_, MerchantSide> {
        NeighborIter {
            graph: self,
            edge_ids: &self.u_edges[run(&self.u_offsets, u.index())],
            pos: 0,
            _side: std::marker::PhantomData,
        }
    }

    /// Iterates the users adjacent to merchant `v`, with the connecting edge.
    #[inline]
    pub fn users_of(&self, v: MerchantId) -> NeighborIter<'_, UserSide> {
        NeighborIter {
            graph: self,
            edge_ids: &self.v_edges[run(&self.v_offsets, v.index())],
            pos: 0,
            _side: std::marker::PhantomData,
        }
    }

    /// Edge ids incident to user `u`.
    #[inline]
    pub fn user_edge_ids(&self, u: UserId) -> impl Iterator<Item = EdgeId> + '_ {
        self.u_edges[run(&self.u_offsets, u.index())]
            .iter()
            .map(|&e| e as EdgeId)
    }

    /// Edge ids incident to merchant `v`.
    #[inline]
    pub fn merchant_edge_ids(&self, v: MerchantId) -> impl Iterator<Item = EdgeId> + '_ {
        self.v_edges[run(&self.v_offsets, v.index())]
            .iter()
            .map(|&e| e as EdgeId)
    }

    /// Iterates all edges as `(edge_id, user, merchant, weight)`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, UserId, MerchantId, f64)> + '_ {
        self.edges.iter().enumerate().map(move |(e, &(u, v))| {
            (
                e,
                UserId(u),
                MerchantId(v),
                self.weights.as_ref().map_or(1.0, |w| w[e]),
            )
        })
    }

    /// Raw edge-endpoint slice, for bulk consumers (samplers, SVD assembly).
    #[inline]
    pub fn edge_slice(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Sum of all edge weights (`|E|` on unweighted graphs).
    pub fn total_weight(&self) -> f64 {
        match &self.weights {
            Some(w) => w.iter().sum(),
            None => self.edges.len() as f64,
        }
    }

    /// Mean degree of the user side, `|E| / |U|` (0 when there are no users).
    pub fn avg_user_degree(&self) -> f64 {
        if self.num_users() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_users() as f64
        }
    }

    /// Mean degree of the merchant side, `|E| / |V|`.
    pub fn avg_merchant_degree(&self) -> f64 {
        if self.num_merchants() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_merchants() as f64
        }
    }

    /// All user-side degrees as a vector.
    pub fn user_degrees(&self) -> Vec<usize> {
        self.u_offsets.windows(2).map(|w| (w[1] - w[0]) as usize).collect()
    }

    /// All merchant-side degrees as a vector.
    pub fn merchant_degrees(&self) -> Vec<usize> {
        self.v_offsets.windows(2).map(|w| (w[1] - w[0]) as usize).collect()
    }
}

/// Marker for iterators yielding user-side neighbors.
pub struct UserSide;
/// Marker for iterators yielding merchant-side neighbors.
pub struct MerchantSide;

/// Iterator over one node's neighbors; yields `(neighbor_raw_id, edge_id,
/// weight)`. The typed wrappers below restore `UserId`/`MerchantId`.
pub struct NeighborIter<'g, Side> {
    graph: &'g BipartiteGraph,
    edge_ids: &'g [u32],
    pos: usize,
    _side: std::marker::PhantomData<Side>,
}

impl<'g> Iterator for NeighborIter<'g, MerchantSide> {
    type Item = (MerchantId, EdgeId, f64);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let e = *self.edge_ids.get(self.pos)? as EdgeId;
        self.pos += 1;
        let (_, v) = self.graph.edges[e];
        Some((MerchantId(v), e, self.graph.edge_weight(e)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.edge_ids.len() - self.pos;
        (rem, Some(rem))
    }
}

impl<'g> Iterator for NeighborIter<'g, UserSide> {
    type Item = (UserId, EdgeId, f64);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let e = *self.edge_ids.get(self.pos)? as EdgeId;
        self.pos += 1;
        let (u, _) = self.graph.edges[e];
        Some((UserId(u), e, self.graph.edge_weight(e)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.edge_ids.len() - self.pos;
        (rem, Some(rem))
    }
}

impl<'g> ExactSizeIterator for NeighborIter<'g, MerchantSide> {}
impl<'g> ExactSizeIterator for NeighborIter<'g, UserSide> {}

/// The edge-id run of node `i` in a CSR index.
#[inline]
fn run(offsets: &[u32], i: usize) -> std::ops::Range<usize> {
    offsets[i] as usize..offsets[i + 1] as usize
}

/// Counting-sort CSR construction: one pass to count, one to place, and
/// no cursor copy. Counts become end offsets; walking the edges in
/// reverse, each edge decrements its node's offset and lands there, so
/// every run holds ascending edge ids and the offsets end as the starts.
fn build_csr<I>(num_nodes: usize, endpoints: I) -> (Vec<u32>, Vec<u32>)
where
    I: DoubleEndedIterator<Item = u32> + ExactSizeIterator + Clone,
{
    let mut offsets = vec![0u32; num_nodes + 1];
    for n in endpoints.clone() {
        offsets[n as usize] += 1;
    }
    for i in 1..=num_nodes {
        offsets[i] += offsets[i - 1];
    }
    let mut adj = vec![0u32; endpoints.len()];
    for (e, n) in endpoints.enumerate().rev() {
        let at = &mut offsets[n as usize];
        *at -= 1;
        adj[*at as usize] = e as u32;
    }
    (offsets, adj)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> BipartiteGraph {
        // u0 - m0, m1; u1 - m1; u2 - m1, m2
        BipartiteGraph::from_edges(3, 3, vec![(0, 0), (0, 1), (1, 1), (2, 1), (2, 2)]).unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = sample_graph();
        assert_eq!(g.num_users(), 3);
        assert_eq!(g.num_merchants(), 3);
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.num_edges(), 5);
        assert!(!g.is_weighted());
        assert_eq!(g.total_weight(), 5.0);
    }

    #[test]
    fn degrees_match_edges() {
        let g = sample_graph();
        assert_eq!(g.user_degree(UserId(0)), 2);
        assert_eq!(g.user_degree(UserId(1)), 1);
        assert_eq!(g.user_degree(UserId(2)), 2);
        assert_eq!(g.merchant_degree(MerchantId(0)), 1);
        assert_eq!(g.merchant_degree(MerchantId(1)), 3);
        assert_eq!(g.merchant_degree(MerchantId(2)), 1);
        assert_eq!(g.user_degrees(), vec![2, 1, 2]);
        assert_eq!(g.merchant_degrees(), vec![1, 3, 1]);
    }

    #[test]
    fn adjacency_iterators_agree_with_edge_list() {
        let g = sample_graph();
        let ms: Vec<u32> = g.merchants_of(UserId(2)).map(|(m, _, _)| m.0).collect();
        assert_eq!(ms, vec![1, 2]);
        let us: Vec<u32> = g.users_of(MerchantId(1)).map(|(u, _, _)| u.0).collect();
        assert_eq!(us, vec![0, 1, 2]);
        // Edge ids reported by the iterator must round-trip via endpoints.
        for (v, e, w) in g.merchants_of(UserId(0)) {
            let (u2, v2) = g.edge_endpoints(e);
            assert_eq!(u2, UserId(0));
            assert_eq!(v2, v);
            assert_eq!(w, 1.0);
        }
    }

    #[test]
    fn exact_size_iterators() {
        let g = sample_graph();
        assert_eq!(g.merchants_of(UserId(0)).len(), 2);
        assert_eq!(g.users_of(MerchantId(1)).len(), 3);
    }

    #[test]
    fn isolated_nodes_have_zero_degree() {
        let g = BipartiteGraph::from_edges(4, 4, vec![(0, 0)]).unwrap();
        assert_eq!(g.user_degree(UserId(3)), 0);
        assert_eq!(g.merchant_degree(MerchantId(2)), 0);
        assert_eq!(g.merchants_of(UserId(3)).count(), 0);
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = BipartiteGraph::from_edges(0, 0, vec![]).unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.avg_user_degree(), 0.0);
        assert_eq!(g.avg_merchant_degree(), 0.0);
    }

    #[test]
    fn out_of_range_user_rejected() {
        let err = BipartiteGraph::from_edges(1, 1, vec![(1, 0)]).unwrap_err();
        assert!(matches!(err, GraphError::UserOutOfRange { id: 1, .. }));
    }

    #[test]
    fn out_of_range_merchant_rejected() {
        let err = BipartiteGraph::from_edges(1, 1, vec![(0, 2)]).unwrap_err();
        assert!(matches!(err, GraphError::MerchantOutOfRange { id: 2, .. }));
    }

    #[test]
    fn weighted_graph_round_trips_weights() {
        let g = BipartiteGraph::from_weighted_edges(2, 2, vec![(0, 0), (1, 1)], vec![2.5, 0.5])
            .unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.edge_weight(0), 2.5);
        assert_eq!(g.edge_weight(1), 0.5);
        assert_eq!(g.total_weight(), 3.0);
        let (_, _, w) = g.merchants_of(UserId(0)).next().unwrap();
        assert_eq!(w, 2.5);
    }

    #[test]
    fn mismatched_weight_len_rejected() {
        let err =
            BipartiteGraph::from_weighted_edges(2, 2, vec![(0, 0), (1, 1)], vec![1.0]).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }

    #[test]
    fn multi_edges_are_preserved() {
        let g = BipartiteGraph::from_edges(1, 1, vec![(0, 0), (0, 0)]).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.user_degree(UserId(0)), 2);
        assert_eq!(g.merchant_degree(MerchantId(0)), 2);
    }

    #[test]
    fn edges_iterator_covers_all() {
        let g = sample_graph();
        let collected: Vec<(u32, u32)> = g.edges().map(|(_, u, v, _)| (u.0, v.0)).collect();
        assert_eq!(collected, g.edge_slice().to_vec());
    }

    #[test]
    fn avg_degrees() {
        let g = sample_graph();
        assert!((g.avg_user_degree() - 5.0 / 3.0).abs() < 1e-12);
        assert!((g.avg_merchant_degree() - 5.0 / 3.0).abs() < 1e-12);
    }
}
