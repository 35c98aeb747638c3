//! Flat CSR view of a (sub)graph: the peeling engine's memory layout.
//!
//! [`crate::BipartiteGraph`] is already CSR-indexed, but its adjacency
//! stores *edge ids*, so walking a neighborhood costs one random access
//! into the edge array (for the endpoint) and one into the weight array
//! per edge. The greedy peel visits every edge once per FDET iteration,
//! so those two dependent loads per step dominate the hot loop on graphs
//! that exceed the cache.
//!
//! [`CsrView`] materializes what the peel actually reads — neighbor id,
//! edge id, and weight — as parallel, contiguous arrays on both sides,
//! plus a canonical alive-edge array in ascending edge-id order. Every
//! neighborhood is then an O(1) triple of slices streamed sequentially.
//!
//! The view is cheap to (re)build: construction is two counting sorts
//! over the surviving edges, every build reuses the previous allocation,
//! and [`CsrView::refilter`] shrinks the view in place, which is what
//! lets FDET drop each detected block's edges instead of re-scanning
//! every dead edge of the parent graph.

use crate::graph::{BipartiteGraph, EdgeId};
use crate::ids::{MerchantId, UserId};
use crate::spec::{SampleMaps, SampleSpec, SpecKind, SpecResolver};

/// One side's neighborhood as a slice of `(neighbor, weight)` pairs;
/// position i describes one incident edge.
///
/// The pair layout keeps each edge's id and weight on the same cache line,
/// so both the build scatter and the peel's relax walk touch one stream
/// instead of two parallel ones.
#[derive(Clone, Copy, Debug)]
pub struct NeighborSlices<'a> {
    /// `(opposite-endpoint raw id, edge weight)` per incident edge.
    pub pairs: &'a [(u32, f64)],
}

impl<'a> NeighborSlices<'a> {
    /// Number of incident edges in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` when the node has no alive incident edge.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// An immutable flat-CSR snapshot of the alive subgraph of a
/// [`BipartiteGraph`].
///
/// Node ids are the parent graph's ids (no compaction), so results read
/// off the view — block members, edge ids, tie-breaks — are directly in
/// parent coordinates and bit-identical to an algorithm walking the
/// parent graph with an alive-edge mask.
///
/// ```
/// use ensemfdet_graph::{BipartiteGraph, CsrView, UserId};
///
/// let g = BipartiteGraph::from_edges(2, 2, vec![(0, 0), (0, 1), (1, 1)]).unwrap();
/// let mut view = CsrView::from_graph(&g);
/// let n = view.user_neighbors(UserId(0));
/// assert_eq!(n.pairs, &[(0, 1.0), (1, 1.0)]);
///
/// // Filtered view: drop edge 1, keeping parent node and edge ids.
/// view.refilter(&[true, false, true]);
/// assert_eq!(view.num_edges(), 2);
/// assert_eq!(view.edge_ids(), &[0, 2]);
/// assert_eq!(view.user_neighbors(UserId(0)).pairs, &[(0, 1.0)]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CsrView {
    num_users: usize,
    num_merchants: usize,

    // Canonical alive-edge arrays, ascending global edge id.
    e_id: Vec<u32>,
    e_u: Vec<u32>,
    e_v: Vec<u32>,
    e_w: Vec<f64>,

    // User-side CSR over the alive edges.
    u_off: Vec<u32>,
    u_adj: Vec<(u32, f64)>,

    // Merchant-side CSR over the alive edges.
    v_off: Vec<u32>,
    v_adj: Vec<(u32, f64)>,
}

impl CsrView {
    /// An empty view (no nodes, no edges); fill it with [`CsrView::rebuild`].
    pub fn new() -> Self {
        CsrView::default()
    }

    /// Builds the view of the whole graph.
    pub fn from_graph(g: &BipartiteGraph) -> Self {
        let mut view = CsrView::new();
        view.rebuild(g);
        view
    }

    /// Re-fills the view in place (reusing allocations) with every edge
    /// of `g`.
    ///
    /// The canonical arrays hold the edges in ascending edge id, and each
    /// CSR row lists its edges in the same relative order as the parent
    /// graph's adjacency. Drop edges afterwards with
    /// [`refilter`](Self::refilter).
    pub fn rebuild(&mut self, g: &BipartiteGraph) {
        self.num_users = g.num_users();
        self.num_merchants = g.num_merchants();

        self.e_id.clear();
        self.e_u.clear();
        self.e_v.clear();
        self.e_w.clear();
        let pairs = g.edge_pairs();
        self.e_id.extend(0..pairs.len() as u32);
        self.e_u.extend(pairs.iter().map(|&(u, _)| u));
        self.e_v.extend(pairs.iter().map(|&(_, v)| v));
        match g.weight_values() {
            Some(w) => self.e_w.extend_from_slice(w),
            None => self.e_w.resize(pairs.len(), 1.0),
        }
        self.fill_sides();
    }

    /// Re-fills the view in place directly from a sampler's
    /// [`SampleSpec`] against the parent graph, skipping the intermediate
    /// compacted [`crate::SampledGraph`] copy.
    ///
    /// The result is bit-identical to
    /// `CsrView::from_graph(&spec.materialize(parent).graph)`: endpoints
    /// are interned first-seen in the same edge-visit order the
    /// materializing constructors use, edge ids are local `0..k`, weights
    /// follow the same carry rules, and `maps` receives the same
    /// local→parent id maps a `SampledGraph` would hold. Unlike the
    /// materializing path, nothing here allocates per sample once the
    /// view, resolver, and maps have grown to steady state, and the only
    /// parent-sized state is the resolver's 4 bytes per parent node.
    ///
    /// # Panics
    ///
    /// Panics if the spec references an edge or node outside the parent.
    /// The resolver stays usable: its next build clears it first.
    pub fn rebuild_from_spec(
        &mut self,
        parent: &BipartiteGraph,
        spec: &SampleSpec,
        resolver: &mut SpecResolver,
        maps: &mut SampleMaps,
    ) {
        resolver.begin(parent.num_users(), parent.num_merchants());
        maps.clear();
        self.e_id.clear();
        self.e_u.clear();
        self.e_v.clear();
        self.e_w.clear();

        match spec.kind {
            SpecKind::EdgeSubset => {
                // Mirrors `SampledGraph::from_edge_subset`: intern u then
                // v per chosen edge, carry weights iff the parent is
                // weighted or a non-unit scale applies.
                //
                // The loop is split into gather-then-intern passes so each
                // pass chases a single random-access stream (parent edge
                // array, then one intern table at a time) instead of three
                // interleaved ones. Within a side, endpoints are still
                // interned in edge-visit order, and the two sides' id
                // spaces are independent, so local ids match the fused
                // loop's exactly.
                let pairs = parent.edge_pairs();
                self.e_u.extend(spec.edges.iter().map(|&e| pairs[e].0));
                self.e_v.extend(spec.edges.iter().map(|&e| pairs[e].1));
                for u in &mut self.e_u {
                    *u = resolver.intern_user(*u, &mut maps.orig_users);
                }
                for v in &mut self.e_v {
                    *v = resolver.intern_merchant(*v, &mut maps.orig_merchants);
                }
                if parent.is_weighted() || spec.weight_scale != 1.0 {
                    self.e_w.extend(
                        spec.edges
                            .iter()
                            .map(|&e| parent.edge_weight(e) * spec.weight_scale),
                    );
                } else {
                    self.e_w.resize(spec.edges.len(), 1.0);
                }
            }
            SpecKind::UserSubset => {
                // Mirrors `from_user_subset` → `from_edge_subset` over the
                // concatenated incident-edge lists: adjacency order per
                // chosen user, interning u before v on every edge. `u` is
                // loop-invariant per chosen user, but interning must still
                // happen edge-by-edge order-wise — first-seen order is what
                // the materializing path produces — so intern on the first
                // incident edge and reuse the local id afterwards.
                for &u in &spec.users {
                    let mut lu = u32::MAX;
                    for (v, _e, w) in parent.merchants_of(u) {
                        if lu == u32::MAX {
                            lu = resolver.intern_user(u.0, &mut maps.orig_users);
                        }
                        let lv = resolver.intern_merchant(v.0, &mut maps.orig_merchants);
                        self.e_u.push(lu);
                        self.e_v.push(lv);
                        self.e_w.push(w);
                    }
                }
            }
            SpecKind::MerchantSubset => {
                for &v in &spec.merchants {
                    let mut lv = u32::MAX;
                    for (u, _e, w) in parent.users_of(v) {
                        if lv == u32::MAX {
                            lv = resolver.intern_merchant(v.0, &mut maps.orig_merchants);
                        }
                        let lu = resolver.intern_user(u.0, &mut maps.orig_users);
                        self.e_u.push(lu);
                        self.e_v.push(lv);
                        self.e_w.push(w);
                    }
                }
            }
            SpecKind::NodeSubsets => {
                // Mirrors `from_node_subsets`: every chosen node is
                // interned up front (isolated ones included), then only
                // crossing edges survive.
                for &u in &spec.users {
                    resolver.intern_user(u.0, &mut maps.orig_users);
                }
                for &v in &spec.merchants {
                    resolver.intern_merchant(v.0, &mut maps.orig_merchants);
                }
                for &u in &spec.users {
                    let lu = resolver.intern_user(u.0, &mut maps.orig_users);
                    for (v, _e, w) in parent.merchants_of(u) {
                        if let Some(lv) = resolver.merchant_local(v.0) {
                            self.e_u.push(lu);
                            self.e_v.push(lv);
                            self.e_w.push(w);
                        }
                    }
                }
            }
        }
        resolver.finish(maps);

        // Edge ids are local (0..k), exactly as `from_graph` numbers the
        // compacted graph's edges.
        self.e_id.extend(0..self.e_u.len() as u32);
        self.num_users = maps.orig_users.len();
        self.num_merchants = maps.orig_merchants.len();
        self.fill_sides();
    }

    /// Shrinks the view in place to the edges whose *global* id is still
    /// alive, then rebuilds both adjacency sides.
    ///
    /// Relative edge order is preserved, and the scan touches
    /// `O(view edges)` instead of the parent graph's full edge list —
    /// which is what keeps later FDET iterations proportional to the
    /// surviving subgraph.
    ///
    /// # Panics
    ///
    /// Panics if some held edge id is out of `edge_alive`'s bounds.
    pub fn refilter(&mut self, edge_alive: &[bool]) {
        let mut k = 0usize;
        for i in 0..self.e_id.len() {
            if edge_alive[self.e_id[i] as usize] {
                self.e_id[k] = self.e_id[i];
                self.e_u[k] = self.e_u[i];
                self.e_v[k] = self.e_v[i];
                self.e_w[k] = self.e_w[i];
                k += 1;
            }
        }
        self.e_id.truncate(k);
        self.e_u.truncate(k);
        self.e_v.truncate(k);
        self.e_w.truncate(k);
        self.fill_sides();
    }

    /// Rebuilds both per-side CSRs from the canonical arrays.
    fn fill_sides(&mut self) {
        fill_side(
            &mut self.u_off,
            &mut self.u_adj,
            self.num_users,
            &self.e_u,
            &self.e_v,
            &self.e_w,
        );
        fill_side(
            &mut self.v_off,
            &mut self.v_adj,
            self.num_merchants,
            &self.e_v,
            &self.e_u,
            &self.e_w,
        );
    }

    /// Number of user-side nodes (parent graph's count, isolated included).
    #[inline]
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of merchant-side nodes.
    #[inline]
    pub fn num_merchants(&self) -> usize {
        self.num_merchants
    }

    /// Number of alive edges in the view.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.e_id.len()
    }

    /// Global edge ids of the alive edges, ascending.
    #[inline]
    pub fn edge_ids(&self) -> &[u32] {
        &self.e_id
    }

    /// User endpoints of the alive edges, aligned with [`CsrView::edge_ids`].
    #[inline]
    pub fn edge_users(&self) -> &[u32] {
        &self.e_u
    }

    /// Merchant endpoints of the alive edges.
    #[inline]
    pub fn edge_merchants(&self) -> &[u32] {
        &self.e_v
    }

    /// Weights of the alive edges.
    #[inline]
    pub fn edge_weights(&self) -> &[f64] {
        &self.e_w
    }

    /// Alive degree of user `u`.
    #[inline]
    pub fn user_degree(&self, u: UserId) -> usize {
        (self.u_off[u.index() + 1] - self.u_off[u.index()]) as usize
    }

    /// Alive degree of merchant `v`.
    #[inline]
    pub fn merchant_degree(&self, v: MerchantId) -> usize {
        (self.v_off[v.index() + 1] - self.v_off[v.index()]) as usize
    }

    /// O(1) neighborhood slice of user `u` (merchant ids in the pairs).
    #[inline]
    pub fn user_neighbors(&self, u: UserId) -> NeighborSlices<'_> {
        let lo = self.u_off[u.index()] as usize;
        let hi = self.u_off[u.index() + 1] as usize;
        NeighborSlices {
            pairs: &self.u_adj[lo..hi],
        }
    }

    /// O(1) neighborhood slice of merchant `v` (user ids in the pairs).
    #[inline]
    pub fn merchant_neighbors(&self, v: MerchantId) -> NeighborSlices<'_> {
        let lo = self.v_off[v.index()] as usize;
        let hi = self.v_off[v.index() + 1] as usize;
        NeighborSlices {
            pairs: &self.v_adj[lo..hi],
        }
    }

    /// Iterates the alive edges as `(edge_id, user, merchant, weight)`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, UserId, MerchantId, f64)> + '_ {
        (0..self.e_id.len()).map(move |i| {
            (
                self.e_id[i] as EdgeId,
                UserId(self.e_u[i]),
                MerchantId(self.e_v[i]),
                self.e_w[i],
            )
        })
    }
}

/// Counting-sort one side's CSR from the canonical edge arrays, reusing
/// the output allocations.
fn fill_side(
    off: &mut Vec<u32>,
    adj: &mut Vec<(u32, f64)>,
    num_nodes: usize,
    own: &[u32],
    other: &[u32],
    weights: &[f64],
) {
    off.clear();
    off.resize(num_nodes + 1, 0);
    for &n in own {
        off[n as usize + 1] += 1;
    }
    for i in 0..num_nodes {
        off[i + 1] += off[i];
    }
    adj.clear();
    // Fast path: when this side's endpoints are already non-decreasing
    // (builder output is (u, v)-sorted, and filtering preserves order),
    // the stable counting sort is the identity — the adjacency is a
    // straight zip of the canonical arrays.
    if own.is_sorted() {
        adj.extend(other.iter().zip(weights).map(|(&o, &w)| (o, w)));
        return;
    }
    let total = own.len();
    adj.resize(total, (0, 0.0));
    // Scatter through `off[node]` as the write cursor; afterwards each
    // entry holds its row's END offset, which one shift turns back into
    // start offsets (avoids cloning a cursor array every rebuild).
    for i in 0..total {
        let node = own[i] as usize;
        let slot = off[node] as usize;
        adj[slot] = (other[i], weights[i]);
        off[node] += 1;
    }
    off.copy_within(0..num_nodes, 1);
    off[0] = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> BipartiteGraph {
        // u0 - m0, m1; u1 - m1; u2 - m1, m2
        BipartiteGraph::from_edges(3, 3, vec![(0, 0), (0, 1), (1, 1), (2, 1), (2, 2)]).unwrap()
    }

    #[test]
    fn full_view_matches_graph_adjacency() {
        let g = sample_graph();
        let view = CsrView::from_graph(&g);
        assert_eq!(view.num_users(), 3);
        assert_eq!(view.num_merchants(), 3);
        assert_eq!(view.num_edges(), 5);
        for u in 0..3u32 {
            let from_graph: Vec<(u32, f64)> = g
                .merchants_of(UserId(u))
                .map(|(v, _, w)| (v.0, w))
                .collect();
            let from_view: Vec<(u32, f64)> = view.user_neighbors(UserId(u)).pairs.to_vec();
            assert_eq!(from_view, from_graph, "user {u}");
            assert_eq!(view.user_degree(UserId(u)), g.user_degree(UserId(u)));
        }
        for v in 0..3u32 {
            let from_graph: Vec<u32> =
                g.users_of(MerchantId(v)).map(|(u, _, _)| u.0).collect();
            let from_view: Vec<u32> = view
                .merchant_neighbors(MerchantId(v))
                .pairs
                .iter()
                .map(|&(u, _)| u)
                .collect();
            assert_eq!(from_view, from_graph, "merchant {v}");
        }
    }

    #[test]
    fn canonical_edges_ascend_and_round_trip() {
        let g = sample_graph();
        let view = CsrView::from_graph(&g);
        let ids: Vec<u32> = view.edge_ids().to_vec();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ascending edge ids");
        for (e, u, v, w) in view.edges() {
            let (gu, gv) = g.edge_endpoints(e);
            assert_eq!((gu, gv), (u, v));
            assert_eq!(w, g.edge_weight(e));
        }
    }

    #[test]
    fn filtered_view_drops_edges_keeps_ids() {
        let g = sample_graph();
        let mut view = CsrView::from_graph(&g);
        view.refilter(&[true, false, true, false, true]);
        assert_eq!(view.num_edges(), 3);
        assert_eq!(view.edge_ids(), &[0, 2, 4]);
        // Node population is unchanged; only adjacency shrinks.
        assert_eq!(view.num_users(), 3);
        assert_eq!(view.user_degree(UserId(0)), 1);
        assert_eq!(view.merchant_degree(MerchantId(1)), 1);
        assert_eq!(view.user_neighbors(UserId(0)).pairs, &[(0, 1.0)]);
        assert_eq!(view.merchant_neighbors(MerchantId(1)).pairs, &[(1, 1.0)]);
    }

    #[test]
    fn rebuild_reuses_and_replaces() {
        let g = sample_graph();
        let mut view = CsrView::from_graph(&g);
        view.refilter(&[false, false, true, true, false]);
        assert_eq!(view.num_edges(), 2);
        assert_eq!(view.edge_ids(), &[2, 3]);
        view.rebuild(&g);
        assert_eq!(view.num_edges(), 5);
    }

    #[test]
    fn weighted_graph_weights_flow_through() {
        let g = BipartiteGraph::from_weighted_edges(2, 2, vec![(0, 0), (1, 1)], vec![2.5, 0.5])
            .unwrap();
        let view = CsrView::from_graph(&g);
        assert_eq!(view.edge_weights(), &[2.5, 0.5]);
        assert_eq!(view.user_neighbors(UserId(1)).pairs, &[(1, 0.5)]);
        assert_eq!(view.merchant_neighbors(MerchantId(0)).pairs, &[(0, 2.5)]);
    }

    #[test]
    fn empty_and_edgeless_views() {
        let g = BipartiteGraph::from_edges(0, 0, vec![]).unwrap();
        let view = CsrView::from_graph(&g);
        assert_eq!(view.num_edges(), 0);
        let g = BipartiteGraph::from_edges(2, 2, vec![]).unwrap();
        let view = CsrView::from_graph(&g);
        assert_eq!(view.user_degree(UserId(1)), 0);
        assert!(view.user_neighbors(UserId(0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn wrong_mask_length_panics() {
        let g = sample_graph();
        CsrView::from_graph(&g).refilter(&[true]);
    }

    /// Field-by-field equality, including the private CSR internals —
    /// the "bit-identical" contract of `rebuild_from_spec`.
    fn assert_views_identical(spec_built: &CsrView, materialized: &CsrView) {
        assert_eq!(spec_built.num_users, materialized.num_users);
        assert_eq!(spec_built.num_merchants, materialized.num_merchants);
        assert_eq!(spec_built.e_id, materialized.e_id);
        assert_eq!(spec_built.e_u, materialized.e_u);
        assert_eq!(spec_built.e_v, materialized.e_v);
        assert_eq!(spec_built.e_w, materialized.e_w);
        assert_eq!(spec_built.u_off, materialized.u_off);
        assert_eq!(spec_built.u_adj, materialized.u_adj);
        assert_eq!(spec_built.v_off, materialized.v_off);
        assert_eq!(spec_built.v_adj, materialized.v_adj);
    }

    fn check_spec_equivalence(parent: &BipartiteGraph, spec: &SampleSpec) {
        let mut resolver = SpecResolver::new();
        let mut maps = SampleMaps::default();
        let mut view = CsrView::new();
        view.rebuild_from_spec(parent, spec, &mut resolver, &mut maps);

        let sampled = spec.materialize(parent);
        let reference = CsrView::from_graph(&sampled.graph);
        assert_views_identical(&view, &reference);
        assert_eq!(maps.orig_users, sampled.orig_users);
        assert_eq!(maps.orig_merchants, sampled.orig_merchants);
    }

    #[test]
    fn spec_built_view_matches_materialized_for_every_kind() {
        let unweighted = BipartiteGraph::from_edges(
            4,
            4,
            vec![(0, 0), (0, 1), (1, 1), (2, 1), (2, 2), (3, 3)],
        )
        .unwrap();
        let weighted = BipartiteGraph::from_weighted_edges(
            4,
            4,
            vec![(0, 0), (0, 1), (1, 1), (2, 1), (2, 2), (3, 3)],
            vec![1.5, 2.0, 0.5, 3.0, 1.0, 4.0],
        )
        .unwrap();

        for parent in [&unweighted, &weighted] {
            let mut spec = SampleSpec::new();
            spec.reset(SpecKind::EdgeSubset);
            spec.edges.extend([5usize, 1, 3, 2]); // deliberately unsorted
            check_spec_equivalence(parent, &spec);

            spec.reset(SpecKind::EdgeSubset);
            spec.edges.extend([0usize, 5]);
            spec.weight_scale = 4.0; // forces the weight-carry rule
            check_spec_equivalence(parent, &spec);

            spec.reset(SpecKind::UserSubset);
            spec.users.extend([UserId(2), UserId(0)]);
            check_spec_equivalence(parent, &spec);

            spec.reset(SpecKind::MerchantSubset);
            spec.merchants.extend([MerchantId(1), MerchantId(3)]);
            check_spec_equivalence(parent, &spec);

            // Includes a node that ends up isolated (u3 × {m1, m2}).
            spec.reset(SpecKind::NodeSubsets);
            spec.users.extend([UserId(2), UserId(3), UserId(0)]);
            spec.merchants.extend([MerchantId(1), MerchantId(2)]);
            check_spec_equivalence(parent, &spec);

            // Degenerate specs: empty selections.
            spec.reset(SpecKind::EdgeSubset);
            check_spec_equivalence(parent, &spec);
            spec.reset(SpecKind::NodeSubsets);
            check_spec_equivalence(parent, &spec);
        }
    }

    #[test]
    fn resolver_and_view_are_reusable_across_specs() {
        let parent = BipartiteGraph::from_edges(
            4,
            4,
            vec![(0, 0), (0, 1), (1, 1), (2, 1), (2, 2), (3, 3)],
        )
        .unwrap();
        let mut resolver = SpecResolver::new();
        let mut maps = SampleMaps::default();
        let mut view = CsrView::new();

        let mut spec = SampleSpec::new();
        spec.reset(SpecKind::UserSubset);
        spec.users.extend([UserId(0), UserId(1)]);
        view.rebuild_from_spec(&parent, &spec, &mut resolver, &mut maps);

        // Second resolve with the same scratch must not see stale interns.
        spec.reset(SpecKind::EdgeSubset);
        spec.edges.extend([4usize, 5]);
        view.rebuild_from_spec(&parent, &spec, &mut resolver, &mut maps);
        let sampled = spec.materialize(&parent);
        assert_views_identical(&view, &CsrView::from_graph(&sampled.graph));
        assert_eq!(maps.orig_users, sampled.orig_users);
        assert_eq!(maps.orig_merchants, sampled.orig_merchants);
    }

    #[test]
    fn a_build_that_panicked_leaves_the_resolver_usable() {
        let parent = BipartiteGraph::from_edges(
            4,
            4,
            vec![(0, 0), (0, 1), (1, 1), (2, 1), (2, 2), (3, 3)],
        )
        .unwrap();
        let mut resolver = SpecResolver::new();
        let mut maps = SampleMaps::default();
        let mut view = CsrView::new();

        // Interns users 2 and 0, then panics on the out-of-range user 9,
        // leaving two slots set.
        let mut bad = SampleSpec::new();
        bad.reset(SpecKind::NodeSubsets);
        bad.users.extend([UserId(2), UserId(0), UserId(9)]);
        bad.merchants.push(MerchantId(1));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            view.rebuild_from_spec(&parent, &bad, &mut resolver, &mut maps)
        }));
        assert!(caught.is_err(), "an out-of-range user must panic");

        let mut spec = SampleSpec::new();
        for kind in [SpecKind::NodeSubsets, SpecKind::UserSubset] {
            spec.reset(kind);
            spec.users.extend([UserId(0), UserId(3), UserId(2)]);
            spec.merchants.extend([MerchantId(2), MerchantId(1)]);
            view.rebuild_from_spec(&parent, &spec, &mut resolver, &mut maps);

            let (mut fresh, mut fresh_maps) = (CsrView::new(), SampleMaps::default());
            fresh.rebuild_from_spec(&parent, &spec, &mut SpecResolver::new(), &mut fresh_maps);
            assert_views_identical(&view, &fresh);
            assert_eq!(maps.orig_users, fresh_maps.orig_users);
            assert_eq!(maps.orig_merchants, fresh_maps.orig_merchants);
        }
    }

    /// A pseudo-random graph with multi-edges and skewed degrees — enough
    /// irregularity that a scatter-order bug would misplace entries.
    fn scrambled_graph(nu: u32, nv: u32, m: usize, weighted: bool) -> BipartiteGraph {
        let mut x = 0x9E37_79B9u64;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| {
                let u = (step() % nu as u64) as u32;
                // Skew merchants so some rows are long, some empty.
                let v = ((step() % nv as u64) * (step() % nv as u64) / nv as u64) as u32;
                (u, v)
            })
            .collect();
        if weighted {
            let w = (0..m).map(|_| (step() % 1000) as f64 / 10.0 + 0.1).collect();
            BipartiteGraph::from_weighted_edges(nu as usize, nv as usize, edges, w).unwrap()
        } else {
            BipartiteGraph::from_edges(nu as usize, nv as usize, edges).unwrap()
        }
    }

    /// Unsorted endpoints on both sides drive the scatter: every CSR row
    /// must list the graph's own adjacency, in order.
    #[test]
    fn scrambled_views_match_graph_adjacency() {
        for g in [
            scrambled_graph(97, 41, 1_123, false),
            scrambled_graph(97, 41, 1_123, true),
            scrambled_graph(5, 400, 777, true),
        ] {
            let view = CsrView::from_graph(&g);
            for u in 0..g.num_users() as u32 {
                let from_graph: Vec<(u32, f64)> = g
                    .merchants_of(UserId(u))
                    .map(|(v, _, w)| (v.0, w))
                    .collect();
                assert_eq!(view.user_neighbors(UserId(u)).pairs, from_graph, "user {u}");
            }
            for v in 0..g.num_merchants() as u32 {
                let from_graph: Vec<(u32, f64)> = g
                    .users_of(MerchantId(v))
                    .map(|(u, _, w)| (u.0, w))
                    .collect();
                assert_eq!(
                    view.merchant_neighbors(MerchantId(v)).pairs,
                    from_graph,
                    "merchant {v}"
                );
            }
        }
    }

    #[test]
    fn multi_edges_preserved() {
        let g = BipartiteGraph::from_edges(1, 1, vec![(0, 0), (0, 0)]).unwrap();
        let view = CsrView::from_graph(&g);
        assert_eq!(view.user_neighbors(UserId(0)).pairs, &[(0, 1.0), (0, 1.0)]);
        assert_eq!(view.edge_ids(), &[0, 1]);
        assert_eq!(view.merchant_degree(MerchantId(0)), 2);
    }
}
