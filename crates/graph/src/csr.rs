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
//! The view is immutable and cheap to (re)build: construction is two
//! counting sorts over the surviving edges, and [`CsrView::rebuild`]
//! reuses the previous allocation, which is what lets FDET rebuild the
//! view after removing each detected block instead of re-scanning every
//! dead edge of the parent graph.

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
/// let view = CsrView::from_graph(&g);
/// let n = view.user_neighbors(UserId(0));
/// assert_eq!(n.pairs, &[(0, 1.0), (1, 1.0)]);
///
/// // Filtered view: drop edge 1, keeping parent node and edge ids.
/// let view = CsrView::from_graph_filtered(&g, &[true, false, true]);
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
        view.rebuild(g, None);
        view
    }

    /// Builds the view of the subgraph spanned by edges with
    /// `edge_alive[e] == true`.
    ///
    /// # Panics
    ///
    /// Panics if `edge_alive.len() != g.num_edges()`.
    pub fn from_graph_filtered(g: &BipartiteGraph, edge_alive: &[bool]) -> Self {
        let mut view = CsrView::new();
        view.rebuild(g, Some(edge_alive));
        view
    }

    /// Re-fills the view in place (reusing allocations) from `g`, keeping
    /// only edges where `edge_alive` is true (`None` ⇒ all edges).
    ///
    /// Relative edge order is preserved, so the canonical arrays stay in
    /// ascending global edge id and each CSR row lists its edges in the
    /// same relative order as the parent graph's adjacency.
    ///
    /// # Panics
    ///
    /// Panics if a mask is given and `edge_alive.len() != g.num_edges()`.
    pub fn rebuild(&mut self, g: &BipartiteGraph, edge_alive: Option<&[bool]>) {
        if let Some(mask) = edge_alive {
            assert_eq!(
                mask.len(),
                g.num_edges(),
                "edge_alive mask must cover every edge"
            );
        }
        self.num_users = g.num_users();
        self.num_merchants = g.num_merchants();

        self.e_id.clear();
        self.e_u.clear();
        self.e_v.clear();
        self.e_w.clear();
        let pairs = g.edge_pairs();
        match edge_alive {
            None => {
                self.e_id.extend(0..pairs.len() as u32);
                self.e_u.extend(pairs.iter().map(|&(u, _)| u));
                self.e_v.extend(pairs.iter().map(|&(_, v)| v));
                match g.weight_values() {
                    Some(w) => self.e_w.extend_from_slice(w),
                    None => self.e_w.resize(pairs.len(), 1.0),
                }
            }
            Some(mask) => {
                for (e, &(u, v)) in pairs.iter().enumerate() {
                    if mask[e] {
                        self.e_id.push(e as u32);
                        self.e_u.push(u);
                        self.e_v.push(v);
                    }
                }
                match g.weight_values() {
                    Some(w) => self.e_w.extend(self.e_id.iter().map(|&e| w[e as usize])),
                    None => self.e_w.resize(self.e_id.len(), 1.0),
                }
            }
        }
        self.fill_sides();
    }

    /// Full-graph [`rebuild`](Self::rebuild) sharded over `workers`
    /// scoped threads — the parent-snapshot build for full-JD-scale
    /// scans, where the two counting sorts dominate.
    ///
    /// Each stage parallelizes over contiguous edge ranges: the canonical
    /// arrays are copied in disjoint chunks, per-shard degree counts feed
    /// one sequential prefix sum that assigns every shard a per-node write
    /// cursor, and the scatter then writes each shard's edge range through
    /// its own cursors. Because shard `s` covers edges `[s·c, (s+1)·c)`
    /// and its cursor for a node starts after all earlier shards'
    /// occurrences of that node, the output order per CSR row is exactly
    /// ascending edge index — the same stable counting sort
    /// [`rebuild`](Self::rebuild) runs sequentially, so the result is
    /// **bit-identical** for any worker count (gated by
    /// `sharded_build_matches_sequential_bit_for_bit`).
    ///
    /// `workers == 0` or `1` (or an edgeless graph) falls back to the
    /// sequential builder. Transient cost: one `num_nodes`-sized count
    /// array per shard per unsorted side.
    pub fn rebuild_sharded(&mut self, g: &BipartiteGraph, workers: usize) {
        let m = g.num_edges();
        let workers = workers.clamp(1, m.max(1));
        if workers == 1 {
            self.rebuild(g, None);
            return;
        }
        self.num_users = g.num_users();
        self.num_merchants = g.num_merchants();

        let pairs = g.edge_pairs();
        let chunk = m.div_ceil(workers);
        self.e_id.clear();
        self.e_id.resize(m, 0);
        self.e_u.clear();
        self.e_u.resize(m, 0);
        self.e_v.clear();
        self.e_v.resize(m, 0);
        self.e_w.clear();
        self.e_w.resize(m, 1.0);
        let weights = g.weight_values();
        std::thread::scope(|sc| {
            let shards = self
                .e_id
                .chunks_mut(chunk)
                .zip(self.e_u.chunks_mut(chunk))
                .zip(self.e_v.chunks_mut(chunk))
                .zip(self.e_w.chunks_mut(chunk))
                .enumerate();
            for (s, (((ids, us), vs), ws)) in shards {
                let base = s * chunk;
                let src = &pairs[base..base + ids.len()];
                let w_src = weights.map(|w| &w[base..base + ids.len()]);
                sc.spawn(move || {
                    for (j, (id, ((u, v), &(pu, pv)))) in ids
                        .iter_mut()
                        .zip(us.iter_mut().zip(vs.iter_mut()).zip(src))
                        .enumerate()
                    {
                        *id = (base + j) as u32;
                        *u = pu;
                        *v = pv;
                    }
                    if let Some(w_src) = w_src {
                        ws.copy_from_slice(w_src);
                    }
                });
            }
        });

        fill_side_sharded(
            &mut self.u_off,
            &mut self.u_adj,
            self.num_users,
            &self.e_u,
            &self.e_v,
            &self.e_w,
            workers,
        );
        fill_side_sharded(
            &mut self.v_off,
            &mut self.v_adj,
            self.num_merchants,
            &self.e_v,
            &self.e_u,
            &self.e_w,
            workers,
        );
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
    /// view, resolver, and maps have grown to steady state.
    ///
    /// # Panics
    ///
    /// Panics if the spec references an edge or node outside the parent.
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
    /// Equivalent to `rebuild(g, Some(edge_alive))` whenever the view
    /// already holds a superset of the alive edges (masks only ever turn
    /// edges off during FDET), but touches `O(view edges)` instead of
    /// re-scanning the parent graph's full edge list — which is what keeps
    /// later FDET iterations proportional to the surviving subgraph.
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

/// A raw pointer that may cross scoped-thread boundaries. Used for the
/// sharded scatter, where disjointness of the writes is established by
/// the cursor construction rather than by slice splitting (each shard's
/// write set is interleaved across the whole adjacency array).
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Sharded [`fill_side`]: parallel per-shard degree counts over edge
/// ranges, one sequential prefix sum handing every `(shard, node)` pair
/// its write cursor, then a parallel scatter of each shard's edge range.
///
/// Output is bit-identical to the sequential stable counting sort: a
/// shard's cursor for node `n` starts at `off[n]` plus all earlier
/// shards' occurrences of `n`, and within a shard edges are visited in
/// ascending index, so every CSR row lists its edges in global edge
/// order — exactly what stability means.
fn fill_side_sharded(
    off: &mut Vec<u32>,
    adj: &mut Vec<(u32, f64)>,
    num_nodes: usize,
    own: &[u32],
    other: &[u32],
    weights: &[f64],
    workers: usize,
) {
    let m = own.len();
    let workers = workers.clamp(1, m.max(1));
    if workers == 1 {
        fill_side(off, adj, num_nodes, own, other, weights);
        return;
    }
    let chunk = m.div_ceil(workers);

    // Stage 1: per-shard degree counts, each over its own edge range.
    let mut counts: Vec<Vec<u32>> = std::thread::scope(|sc| {
        let handles: Vec<_> = own
            .chunks(chunk)
            .map(|range| {
                sc.spawn(move || {
                    let mut cnt = vec![0u32; num_nodes];
                    for &n in range {
                        cnt[n as usize] += 1;
                    }
                    cnt
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("csr degree-count shard panicked"))
            .collect()
    });

    // Stage 2: prefix sum. `off[n]` becomes node n's row start; each
    // shard's count entry becomes its write cursor for that node (row
    // start advanced past every earlier shard's occurrences).
    off.clear();
    off.resize(num_nodes + 1, 0);
    let mut total = 0u32;
    for n in 0..num_nodes {
        off[n] = total;
        for cnt in counts.iter_mut() {
            let deg = cnt[n];
            cnt[n] = total;
            total += deg;
        }
    }
    off[num_nodes] = total;

    adj.clear();
    // Same fast path as the sequential builder: sorted endpoints make the
    // stable sort the identity, so the adjacency is a chunked parallel
    // copy of the canonical arrays.
    if own.is_sorted() {
        adj.resize(m, (0, 0.0));
        std::thread::scope(|sc| {
            for ((dst, o), w) in adj
                .chunks_mut(chunk)
                .zip(other.chunks(chunk))
                .zip(weights.chunks(chunk))
            {
                sc.spawn(move || {
                    for (d, (&o, &w)) in dst.iter_mut().zip(o.iter().zip(w)) {
                        *d = (o, w);
                    }
                });
            }
        });
        return;
    }

    // Stage 3: scatter. Each shard writes its edge range through its own
    // cursors. SAFETY: the cursor construction above partitions `0..m`
    // exactly — slot `cursor_s[n] + k` is claimed by precisely one
    // `(shard, node, occurrence)` triple — so all writes are disjoint and
    // every slot is written exactly once before the scope joins.
    adj.resize(m, (0, 0.0));
    let adj_ptr = SendPtr(adj.as_mut_ptr());
    std::thread::scope(|sc| {
        for (s, (own_c, (other_c, w_c))) in own
            .chunks(chunk)
            .zip(other.chunks(chunk).zip(weights.chunks(chunk)))
            .enumerate()
        {
            let mut cursor = std::mem::take(&mut counts[s]);
            sc.spawn(move || {
                let adj_ptr = adj_ptr;
                for i in 0..own_c.len() {
                    let n = own_c[i] as usize;
                    let slot = cursor[n] as usize;
                    unsafe {
                        *adj_ptr.0.add(slot) = (other_c[i], w_c[i]);
                    }
                    cursor[n] += 1;
                }
            });
        }
    });
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
        let mask = [true, false, true, false, true];
        let view = CsrView::from_graph_filtered(&g, &mask);
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
        view.rebuild(&g, Some(&[false, false, true, true, false]));
        assert_eq!(view.num_edges(), 2);
        assert_eq!(view.edge_ids(), &[2, 3]);
        view.rebuild(&g, None);
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
    #[should_panic(expected = "edge_alive mask")]
    fn wrong_mask_length_panics() {
        let g = sample_graph();
        CsrView::from_graph_filtered(&g, &[true]);
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

    /// The sharded build is the same stable counting sort — every private
    /// field bit-identical to the sequential builder, for any worker
    /// count, graph shape, and weighting.
    #[test]
    fn sharded_build_matches_sequential_bit_for_bit() {
        let graphs = [
            scrambled_graph(97, 41, 1_123, false),
            scrambled_graph(97, 41, 1_123, true),
            scrambled_graph(5, 400, 777, true),
            sample_graph(),
            BipartiteGraph::from_edges(3, 3, vec![]).unwrap(),
            BipartiteGraph::from_edges(0, 0, vec![]).unwrap(),
            BipartiteGraph::from_edges(1, 1, vec![(0, 0), (0, 0)]).unwrap(),
        ];
        for (gi, g) in graphs.iter().enumerate() {
            let sequential = CsrView::from_graph(g);
            for workers in [0, 1, 2, 3, 5, 16] {
                let mut sharded = CsrView::new();
                sharded.rebuild_sharded(g, workers);
                assert_views_identical(&sharded, &sequential);
                let _ = (gi, workers); // context on failure via panic site
            }
        }
    }

    /// `rebuild_sharded` reuses a dirty view's allocations without
    /// leaking state from the previous fill.
    #[test]
    fn sharded_rebuild_reuses_dirty_view() {
        let big = scrambled_graph(60, 30, 500, true);
        let small = sample_graph();
        let mut view = CsrView::new();
        view.rebuild_sharded(&big, 4);
        view.rebuild_sharded(&small, 4);
        assert_views_identical(&view, &CsrView::from_graph(&small));
        view.rebuild_sharded(&big, 3);
        assert_views_identical(&view, &CsrView::from_graph(&big));
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
