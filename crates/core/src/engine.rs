//! The peel engines: the production bucket-queue peel and the naive
//! reference it is gated against.
//!
//! Both run the same algorithm — Charikar-style greedy peeling iterated
//! into disjoint blocks ([`crate::fdet()`]) — and return bit-identical
//! results, enforced by `tests/tests/engine_equivalence.rs` and re-checked
//! by the benchmark suite before it times anything:
//!
//! - [`Engine::Bucket`] (the default) peels a flat [`CsrView`] of the
//!   *surviving* subgraph, rebuilt after each detected block (two counting
//!   sorts over alive edges, allocation-free after warm-up), with a
//!   monotone bucket queue ([`crate::bucket::BucketQueue`]): entries route
//!   to exponent-indexed buckets in O(1), so a full peel costs O(E)
//!   instead of O(E log V) (Ban & Duan, arXiv:1810.06809). Every scratch
//!   buffer lives in a reusable [`FdetEngine`], so the `N` runs of an
//!   ensemble allocate once instead of once per peel.
//! - [`Engine::Naive`] walks the parent [`BipartiteGraph`] through an
//!   alive-edge mask with an indexed decrease-key heap
//!   ([`crate::peel::fdet_naive`]). Every FDET iteration scans the full
//!   edge array and allocates fresh working vectors. It is the oracle.
//!
//! **Bit-identical contract**: keys only decrease during a peel, so an
//! element's minimum queue entry always carries its current key, making
//! lazy pops deliver the indexed heap's exact `(key, id)` order; the
//! bucket index is monotone in the key and the bucket queue's frontier
//! heap always holds the whole low range, so the bucket queue pops the
//! very same sequence. The view preserves the parent graph's node ids and
//! relative edge order, so every floating-point accumulation happens over
//! the same values in the same sequence — same blocks, same scores, same
//! edge lists, bit for bit.
//!
//! **Retirement rules.** One FDET loop (`fdet::iterate_blocks`)
//! serves two callers that differ only in which edges a detected block
//! retires before the next peel:
//!
//! - *incident* (FDET, [`FdetEngine::run`] / [`FdetEngine::run_spec`]):
//!   every edge with an endpoint in the block dies, so the detected node
//!   sets are disjoint (Eq. 1);
//! - *internal* (Fraudar, [`FdetEngine::run_edge_disjoint`]): only the
//!   block's own edges die, so blocks are edge-disjoint but may share
//!   nodes — the multi-block Fraudar of the paper's Table III baseline.

use crate::block::Block;
use crate::bucket::BucketQueue;
use crate::fdet::{iterate_blocks, FdetResult, Truncation};
use crate::metric::DensityMetric;
use crate::peel::fdet_naive;
use ensemfdet_graph::{
    BipartiteGraph, CsrView, EdgeId, MerchantId, SampleMaps, SampleSpec, SpecResolver, UserId,
};
use serde::{Deserialize, Serialize};

/// Which peeling implementation FDET runs on. Both return bit-identical
/// results (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Engine {
    /// Mask-based peeling over the parent graph with an indexed
    /// decrease-key heap: the reference the equivalence gates compare
    /// against.
    Naive,
    /// Flat-CSR subgraph snapshots peeled with a monotone bucket queue and
    /// reusable scratch: O(E) per peel.
    #[default]
    Bucket,
}

/// Which edges a detected block retires before the next peel (see the
/// module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Retire {
    /// Every edge with an endpoint in the block (FDET).
    Incident,
    /// Only the block's internal edges (Fraudar).
    Internal,
}

/// Per-node working memory of the bucket peel.
///
/// Sized on first use and grown on demand. The per-node arrays are *not*
/// wiped between peels: `stamp`/`epoch` mark which entries belong to the
/// current peel, so a peel of a small residual graph touches only its own
/// nodes instead of paying O(total nodes) memsets — the dominant cost of
/// late FDET iterations otherwise.
#[derive(Clone, Debug, Default)]
struct NodeScratch {
    /// Merchant degrees over alive edges.
    vdeg: Vec<f64>,
    /// Fixed column weights `cw(d_v)` for this peel.
    cw: Vec<f64>,
    /// Initial node priorities (kept for block-membership filtering).
    /// Valid only where `stamp == epoch`.
    priority: Vec<f64>,
    /// Current node keys (decreased as neighbors are removed). `-1.0` is
    /// the *removed* sentinel — live keys are non-negative, so one load
    /// answers both "is it alive?" and "what is its key?" in the hot loop.
    /// Valid only where `stamp == epoch`.
    key: Vec<f64>,
    /// Removal step per node (1-based; `u32::MAX` = survived / absent).
    /// Valid only where `stamp == epoch`.
    rank: Vec<u32>,
    /// Per-pop relax staging: `(neighbor, new_key)` pairs collected before
    /// they are handed to the queue in one run, so bucket routing can
    /// prefetch its headers (see [`BucketQueue::push_all`]).
    relax: Vec<(u32, f64)>,
    /// Peel id that last initialized each node's `priority`/`key`/`rank`.
    stamp: Vec<u32>,
    /// Current peel id (increments every peel; never 0 after the first).
    epoch: u32,
    /// Nodes stamped this peel — exactly the endpoints of alive edges.
    active: Vec<u32>,
}

impl NodeScratch {
    /// Computes column weights, initial priorities, and keys for `view`,
    /// stamping exactly the endpoints of alive edges. Returns the total
    /// suspiciousness `f` and the participating (positive-priority) node
    /// count, or `None` when nothing participates.
    fn begin(&mut self, view: &CsrView, metric: &dyn DensityMetric) -> Option<(f64, usize)> {
        if view.num_edges() == 0 {
            return None;
        }
        let nu = view.num_users();
        let nv = view.num_merchants();
        let n = nu + nv;

        // Merchant degrees over alive edges and the fixed column weights.
        self.vdeg.clear();
        self.vdeg.resize(nv, 0.0);
        let (e_u, e_v, e_w) = (view.edge_users(), view.edge_merchants(), view.edge_weights());
        for (&v, &w) in e_v.iter().zip(e_w) {
            self.vdeg[v as usize] += w;
        }
        self.cw.clear();
        self.cw.extend(self.vdeg.iter().map(|&d| metric.column_weight(d)));

        // Advance the scratch epoch; node state from earlier peels becomes
        // invalid without being wiped. (Grow-only resizes keep old stamps,
        // which can never equal a fresh epoch.)
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.priority.resize(n, 0.0);
            self.key.resize(n, -1.0);
            self.rank.resize(n, u32::MAX);
        }
        if self.epoch == u32::MAX {
            // Epoch wrap: old stamps could collide with a restarted counter.
            self.stamp.iter_mut().for_each(|t| *t = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        self.active.clear();

        // Node priorities: summed suspiciousness of alive incident edges.
        // Node ids: users are 0..nu, merchants are nu..nu+nv. First touch
        // stamps the node and resets its state; only endpoints of alive
        // edges are ever visited, so a peel of a small residual graph stays
        // cheap.
        let mut f = 0.0f64;
        for ((&u, &v), &w) in e_u.iter().zip(e_v).zip(e_w) {
            let sv = w * self.cw[v as usize];
            for node in [u as usize, nu + v as usize] {
                if self.stamp[node] != epoch {
                    self.stamp[node] = epoch;
                    self.priority[node] = 0.0;
                    self.rank[node] = u32::MAX;
                    self.active.push(node as u32);
                }
                self.priority[node] += sv;
            }
            f += sv;
        }

        // Keys for participating (positive-priority) nodes; everyone else
        // holds the removed sentinel so relaxations skip them (the
        // indexed-heap path's `contains` check).
        let mut participating = 0usize;
        for &node in &self.active {
            let node = node as usize;
            let p = self.priority[node];
            if p > 0.0 {
                participating += 1;
                self.key[node] = p;
            } else {
                self.key[node] = -1.0;
            }
        }
        if participating == 0 {
            return None;
        }
        Some((f, participating))
    }
}

/// Reusable per-peel working memory: the per-node arrays and the bucket
/// queue, both recycled across peels.
#[derive(Clone, Debug, Default)]
struct PeelScratch {
    nodes: NodeScratch,
    queue: BucketQueue,
}

/// A reusable FDET runner: owns the [`CsrView`] and the peel scratch so
/// repeated runs — the FDET iterations within one sample, and the `N`
/// samples of an ensemble — recycle their allocations.
///
/// ```
/// use ensemfdet::engine::{Engine, FdetEngine};
/// use ensemfdet::fdet::Truncation;
/// use ensemfdet::metric::MetricKind;
/// use ensemfdet_graph::{GraphBuilder, UserId, MerchantId};
///
/// let mut b = GraphBuilder::new();
/// for u in 0..6 {
///     for v in 0..3 {
///         b.add_edge(UserId(u), MerchantId(v));
///     }
/// }
/// for u in 10..30 {
///     b.add_edge(UserId(u), MerchantId(10 + u % 7));
/// }
/// let g = b.build();
///
/// let mut engine = FdetEngine::new();
/// let fast = engine.run(&g, &MetricKind::default(), Truncation::default(), Engine::Bucket);
/// let slow = engine.run(&g, &MetricKind::default(), Truncation::default(), Engine::Naive);
/// assert_eq!(fast.blocks, slow.blocks); // the engines are interchangeable
/// assert_eq!(fast.scores, slow.scores);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FdetEngine {
    view: CsrView,
    scratch: PeelScratch,
    edge_alive: Vec<bool>,
    /// Block-membership bitmap (users then merchants) for edge retirement.
    in_block: Vec<bool>,
    /// Epoch-stamped intern scratch for [`FdetEngine::run_spec`].
    resolver: SpecResolver,
    /// Threads for the first-iteration full-graph view build
    /// ([`CsrView::rebuild_sharded`]); `0`/`1` = sequential. Never
    /// affects results — the sharded build is bit-identical — so it
    /// lives outside every equality/config surface. Defaults to
    /// sequential: ensemble samples are small and already run on a pool;
    /// direct full-parent peels (benches, full-ratio runs) opt in via
    /// [`set_build_workers`](Self::set_build_workers).
    build_workers: usize,
}

thread_local! {
    /// Per-thread FDET engine backing [`FdetEngine::run_cached`]: the CSR
    /// view and peel scratch are reused across every run on this thread,
    /// so repeated detections (FDET iterations, ensemble samples, service
    /// requests) allocate their peel buffers once per thread, not once per
    /// call.
    static CACHED_ENGINE: std::cell::RefCell<FdetEngine> =
        std::cell::RefCell::new(FdetEngine::new());
}

impl FdetEngine {
    /// A fresh engine with empty (unallocated) scratch.
    pub fn new() -> Self {
        FdetEngine::default()
    }

    /// Sets the thread count for the first-iteration full-graph view
    /// build (see the `build_workers` field). A pure throughput knob:
    /// any value peels bit-identically.
    pub fn set_build_workers(&mut self, workers: usize) {
        self.build_workers = workers;
    }

    /// Runs FDET through this thread's cached engine, recycling the view
    /// and scratch allocations across calls. Results are identical to
    /// [`run`](Self::run) on a fresh engine — the scratch is epoch-reset —
    /// this only saves the per-call allocations.
    pub fn run_cached(
        g: &BipartiteGraph,
        metric: &dyn DensityMetric,
        truncation: Truncation,
        engine: Engine,
    ) -> FdetResult {
        CACHED_ENGINE.with(|e| e.borrow_mut().run(g, metric, truncation, engine))
    }

    /// Runs FDET on a sample described by `spec` against `parent`,
    /// through this thread's cached engine (see [`run_spec`](Self::run_spec)).
    /// `Naive` has no spec path, so every `engine` runs the bucket peel;
    /// the results are the same either way.
    pub fn run_spec_cached(
        parent: &BipartiteGraph,
        spec: &SampleSpec,
        metric: &dyn DensityMetric,
        truncation: Truncation,
        _engine: Engine,
        maps: &mut SampleMaps,
    ) -> (FdetResult, usize) {
        CACHED_ENGINE.with(|e| {
            e.borrow_mut()
                .run_spec(parent, spec, metric, truncation, maps)
        })
    }

    /// Runs FDET directly on `(parent, spec)`: the view is compacted
    /// straight from the spec ([`CsrView::rebuild_from_spec`]), `maps`
    /// receives the local↔parent id maps, and all per-sample state lives in
    /// reusable scratch. The zero-copy twin of materializing the spec and
    /// calling [`run`](Self::run) — results are bit-identical (see
    /// `tests/tests/spec_equivalence.rs`), with edge ids in the sample's
    /// local space, which is precisely how the materialized path numbers
    /// them.
    ///
    /// Returns the FDET result (in the sample's local id space — map back
    /// through `maps`) and the sample's edge count.
    pub fn run_spec(
        &mut self,
        parent: &BipartiteGraph,
        spec: &SampleSpec,
        metric: &dyn DensityMetric,
        truncation: Truncation,
        maps: &mut SampleMaps,
    ) -> (FdetResult, usize) {
        self.view
            .rebuild_from_spec(parent, spec, &mut self.resolver, maps);
        let sample_edges = self.view.num_edges();
        (self.run_view(metric, truncation, Retire::Incident), sample_edges)
    }

    /// Runs FDET on `g` with the chosen engine. See [`crate::fdet::fdet`]
    /// for the algorithm; this entry point only adds engine selection and
    /// scratch reuse.
    pub fn run(
        &mut self,
        g: &BipartiteGraph,
        metric: &dyn DensityMetric,
        truncation: Truncation,
        engine: Engine,
    ) -> FdetResult {
        match engine {
            Engine::Naive => fdet_naive(g, metric, truncation),
            Engine::Bucket => {
                self.view.rebuild_sharded(g, self.build_workers);
                self.run_view(metric, truncation, Retire::Incident)
            }
        }
    }

    /// Iterated Fraudar on `g`: up to `k` blocks (fewer if the graph
    /// empties), each peeled by the bucket engine, retiring only the
    /// block's internal edges, so blocks may share nodes. Like FDET under
    /// [`Truncation::FixedK`], a degenerate (edgeless) block is reported
    /// and ends the run.
    pub fn run_edge_disjoint(
        &mut self,
        g: &BipartiteGraph,
        metric: &dyn DensityMetric,
        k: usize,
    ) -> Vec<Block> {
        self.view.rebuild_sharded(g, self.build_workers);
        self.run_view(metric, Truncation::FixedK(k), Retire::Internal)
            .blocks
    }

    /// The FDET iterations over the freshly built view: every edge starts
    /// alive, and each later iteration shrinks the previous snapshot
    /// ([`CsrView::refilter`]) instead of re-scanning dead edges.
    fn run_view(
        &mut self,
        metric: &dyn DensityMetric,
        truncation: Truncation,
        retire: Retire,
    ) -> FdetResult {
        let FdetEngine {
            view,
            scratch,
            edge_alive,
            in_block,
            ..
        } = self;
        let nu = view.num_users();
        edge_alive.clear();
        edge_alive.resize(view.num_edges(), true);
        iterate_blocks(truncation, |first| {
            if !first {
                view.refilter(edge_alive);
            }
            let block = peel_seq(view, metric, scratch)?;
            if retire == Retire::Internal {
                for &e in &block.edges {
                    edge_alive[e] = false;
                }
                return Some(block);
            }
            // One pass over the view's alive edges retires every edge with
            // an endpoint in the block (dead edges stay dead, so the view's
            // canonical arrays are sufficient).
            in_block.clear();
            in_block.resize(nu + view.num_merchants(), false);
            for &u in &block.users {
                in_block[u.index()] = true;
            }
            for &v in &block.merchants {
                in_block[nu + v.index()] = true;
            }
            let (e_id, e_u, e_v) = (view.edge_ids(), view.edge_users(), view.edge_merchants());
            for ((&e, &u), &v) in e_id.iter().zip(e_u).zip(e_v) {
                if in_block[u as usize] || in_block[nu + v as usize] {
                    edge_alive[e as usize] = false;
                }
            }
            Some(block)
        })
    }
}

/// Requests a read of `slice[i]` into cache without touching it. The peel
/// loop's key lookups are latency-bound random accesses whose addresses are
/// known well before their values are needed; warming them early overlaps
/// the miss with useful work. No-op off x86-64.
#[inline(always)]
fn prefetch_read<T>(slice: &[T], i: usize) {
    #[cfg(target_arch = "x86_64")]
    if i < slice.len() {
        // SAFETY: index is in bounds and prefetching has no side effects
        // beyond the cache.
        unsafe {
            std::arch::x86_64::_mm_prefetch(
                slice.as_ptr().add(i).cast::<i8>(),
                std::arch::x86_64::_MM_HINT_T0,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (slice, i);
}

/// Peels the densest block out of `view` (which holds exactly the alive
/// edges) with the bucket queue. Mirrors [`crate::peel::peel_densest`]
/// operation for operation: every operation on node state happens in pop
/// order, which both queues define identically (see the module docs).
fn peel_seq(view: &CsrView, metric: &dyn DensityMetric, s: &mut PeelScratch) -> Option<Block> {
    let PeelScratch { nodes, queue: q } = s;
    let (mut f, participating) = nodes.begin(view, metric)?;
    let nu = view.num_users();
    q.fill(nodes.active.iter().filter_map(|&node| {
        let k = nodes.key[node as usize];
        (k >= 0.0).then_some((node, k))
    }));

    // Peel, tracking the best prefix.
    let mut size = participating;
    let mut best_phi = f / size as f64; // H_n: the whole current graph
    let mut best_step = 0u32;
    let mut step = 0u32;

    while let Some((p, node)) = q.pop() {
        // The next pop's stale check reads `key[root element]` — a random
        // access. Its address is known now, long before the relax work
        // below finishes, so start the load early.
        if let Some(next) = q.peek_element() {
            prefetch_read(&nodes.key, next as usize);
        }
        let node = node as usize;
        // Stale check: a popped key is always non-negative, so the removed
        // sentinel (`-1.0`) and an outdated key both fail one comparison.
        if p != nodes.key[node] {
            continue;
        }
        nodes.key[node] = -1.0;
        step += 1;
        nodes.rank[node] = step;
        f -= p;
        size -= 1;
        if size == 0 {
            // Every node is removed; anything left in the queue is stale.
            break;
        }
        if q.len() > 2 * size + 64 {
            // More stale entries than live ones: prune so the structure
            // tracks the shrinking live set (order-neutral pruning — see
            // `BucketQueue::retain_current`).
            q.retain_current(&nodes.key);
        }

        // Relax the still-alive opposite endpoints: an incident edge is
        // alive iff its other endpoint is (within one peel, edges die
        // exactly when an endpoint is removed).
        // Each relax reads `key[opposite endpoint]` — independent random
        // accesses at addresses the neighbor list spells out in advance, so
        // issue each load a few iterations before its value is consumed.
        // The decreases are staged into `relax` and handed to the queue in
        // one run (same entries, same order as pushing inline) so the queue
        // can overlap its own routing misses too.
        const RELAX_AHEAD: usize = 8;
        let mut relax = std::mem::take(&mut nodes.relax);
        relax.clear();
        if node < nu {
            let nb = view.user_neighbors(UserId(node as u32));
            for (i, &(v, w)) in nb.pairs.iter().enumerate() {
                if let Some(&(nv, _)) = nb.pairs.get(i + RELAX_AHEAD) {
                    prefetch_read(&nodes.key, nu + nv as usize);
                }
                let other = nu + v as usize;
                let k = nodes.key[other];
                if k >= 0.0 {
                    let nk = (k - w * nodes.cw[v as usize]).max(0.0);
                    nodes.key[other] = nk;
                    relax.push((other as u32, nk));
                }
            }
        } else {
            let v = node - nu;
            let nb = view.merchant_neighbors(MerchantId(v as u32));
            let cwv = nodes.cw[v];
            for (i, &(u, w)) in nb.pairs.iter().enumerate() {
                if let Some(&(nun, _)) = nb.pairs.get(i + RELAX_AHEAD) {
                    prefetch_read(&nodes.key, nun as usize);
                }
                let other = u as usize;
                let k = nodes.key[other];
                if k >= 0.0 {
                    let nk = (k - w * cwv).max(0.0);
                    nodes.key[other] = nk;
                    relax.push((other as u32, nk));
                }
            }
        }
        q.push_all(&relax);
        nodes.relax = relax;

        if size > 0 {
            // Guard against tiny negative drift from floating cancellation.
            let phi = f.max(0.0) / size as f64;
            if phi > best_phi {
                best_phi = phi;
                best_step = step;
            }
        }
    }

    Some(extract_block(view, nodes, best_phi, best_step))
}

/// Materializes the best prefix found by a peel: the block is the set of
/// participating nodes removed strictly after `best_step` (or never).
fn extract_block(view: &CsrView, nodes: &NodeScratch, best_phi: f64, best_step: u32) -> Block {
    let nu = view.num_users();
    let nv = view.num_merchants();
    let (e_u, e_v) = (view.edge_users(), view.edge_merchants());
    // (Only valid for stamped nodes — exactly the ones reachable below.)
    let in_block = |node: usize| {
        let rank = nodes.rank[node];
        rank == u32::MAX || rank > best_step
    };
    // Nodes that never participated (isolated, or zero priority under the
    // metric) have rank MAX but priority 0 and were never pushed; the
    // priority filter excludes them. Users come from a dedup scan of the
    // canonical edge array — grouped ascending by construction — and
    // merchants from a pass over the (much smaller) merchant side, so both
    // lists come out in ascending id order without an O(total nodes) scan.
    let mut users = Vec::new();
    let mut merchants = Vec::new();
    if e_u.is_sorted() {
        let mut prev = u32::MAX;
        for &u in e_u {
            if u != prev {
                prev = u;
                if in_block(u as usize) && nodes.priority[u as usize] > 0.0 {
                    users.push(UserId(u));
                }
            }
        }
    } else {
        // Unsorted canonical order (not produced by `GraphBuilder`, but
        // cheap to tolerate): fall back to a user-side degree scan.
        for u in 0..nu {
            if view.user_degree(UserId(u as u32)) > 0 && in_block(u) && nodes.priority[u] > 0.0 {
                users.push(UserId(u as u32));
            }
        }
    }
    for v in 0..nv {
        let node = nu + v;
        if view.merchant_degree(MerchantId(v as u32)) > 0
            && in_block(node)
            && nodes.priority[node] > 0.0
        {
            merchants.push(MerchantId(v as u32));
        }
    }

    // Edges fully inside the block, in ascending global edge id.
    let e_id = view.edge_ids();
    let mut edges: Vec<EdgeId> = Vec::new();
    for i in 0..e_id.len() {
        if in_block(e_u[i] as usize) && in_block(nu + e_v[i] as usize) {
            edges.push(e_id[i] as EdgeId);
        }
    }

    Block {
        users,
        merchants,
        score: best_phi,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fdet::fdet_with_engine;
    use crate::metric::{AverageDegreeMetric, LogWeightedMetric, MetricKind};
    use crate::peel::peel_densest_full;
    use ensemfdet_graph::GraphBuilder;

    fn planted_graph() -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        for u in 0..5u32 {
            for v in 0..3u32 {
                b.add_edge(UserId(u), MerchantId(v));
            }
        }
        for u in 5..25u32 {
            b.add_edge(UserId(u), MerchantId(3 + u % 7));
        }
        b.build()
    }

    fn peel_csr_full(g: &BipartiteGraph, metric: &dyn DensityMetric) -> Option<Block> {
        let view = CsrView::from_graph(g);
        peel_seq(&view, metric, &mut PeelScratch::default())
    }

    #[test]
    fn csr_peel_matches_naive_on_planted_graph() {
        let g = planted_graph();
        for metric in [
            &AverageDegreeMetric as &dyn DensityMetric,
            &LogWeightedMetric::paper_default(),
        ] {
            let naive = peel_densest_full(&g, metric).unwrap();
            let csr = peel_csr_full(&g, metric).unwrap();
            assert_eq!(naive, csr);
            assert_eq!(naive.score.to_bits(), csr.score.to_bits());
        }
    }

    #[test]
    fn csr_peel_matches_naive_on_weighted_graph() {
        let mut edges = Vec::new();
        let mut weights = Vec::new();
        for u in 0..3u32 {
            for v in 0..2u32 {
                edges.push((u, v));
                weights.push(3.0);
                edges.push((u + 3, v + 2));
                weights.push(1.0);
            }
        }
        let g = BipartiteGraph::from_weighted_edges(6, 4, edges, weights).unwrap();
        let naive = peel_densest_full(&g, &AverageDegreeMetric).unwrap();
        let csr = peel_csr_full(&g, &AverageDegreeMetric).unwrap();
        assert_eq!(naive, csr);
    }

    #[test]
    fn csr_peel_empty_cases() {
        let g = BipartiteGraph::from_edges(3, 3, vec![]).unwrap();
        assert!(peel_csr_full(&g, &AverageDegreeMetric).is_none());
        let g = planted_graph();
        let view = CsrView::from_graph_filtered(&g, &vec![false; g.num_edges()]);
        assert!(peel_seq(&view, &AverageDegreeMetric, &mut PeelScratch::default()).is_none());
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        // Back-to-back peels through one scratch must equal fresh peels.
        let g1 = planted_graph();
        let mut b = GraphBuilder::new();
        for u in 0..4u32 {
            for v in 0..4u32 {
                b.add_edge(UserId(u), MerchantId(v));
            }
        }
        let g2 = b.build();

        let mut scratch = PeelScratch::default();
        let mut view = CsrView::new();
        for g in [&g1, &g2, &g1] {
            view.rebuild(g, None);
            let reused = peel_seq(&view, &AverageDegreeMetric, &mut scratch);
            let fresh = peel_csr_full(g, &AverageDegreeMetric);
            assert_eq!(reused, fresh);
        }
    }

    #[test]
    fn fdet_engines_agree_end_to_end() {
        assert_eq!(Engine::default(), Engine::Bucket);
        let g = planted_graph();
        let truncation = Truncation::KeepAll { k_max: 10 };
        let naive = fdet_with_engine(&g, &MetricKind::default(), truncation, Engine::Naive);
        let got = fdet_with_engine(&g, &MetricKind::default(), truncation, Engine::Bucket);
        assert_eq!(naive.blocks, got.blocks);
        assert_eq!(naive.scores, got.scores);
        assert_eq!(naive.k_hat, got.k_hat);
    }

    #[test]
    fn run_spec_matches_materialized_run() {
        use ensemfdet_graph::SpecKind;
        let g = planted_graph();
        let mut engine = FdetEngine::new();
        let mut maps = SampleMaps::default();
        let mut spec = SampleSpec::new();
        spec.reset(SpecKind::EdgeSubset);
        spec.edges.extend((0..g.num_edges()).step_by(2));
        for truncation in [
            Truncation::default(),
            Truncation::KeepAll { k_max: 10 },
            Truncation::FixedK(2),
        ] {
            let (spec_res, sample_edges) =
                engine.run_spec(&g, &spec, &MetricKind::default(), truncation, &mut maps);
            let sampled = spec.materialize(&g);
            for eng in [Engine::Bucket, Engine::Naive] {
                let mat = engine.run(&sampled.graph, &MetricKind::default(), truncation, eng);
                assert_eq!(spec_res.blocks, mat.blocks);
                assert_eq!(spec_res.scores, mat.scores);
                assert_eq!(spec_res.k_hat, mat.k_hat);
            }
            assert_eq!(sample_edges, sampled.graph.num_edges());
            assert_eq!(maps.orig_users, sampled.orig_users);
            assert_eq!(maps.orig_merchants, sampled.orig_merchants);
        }
    }
}
