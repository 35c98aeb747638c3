//! The peel engines: the production bucket-queue peel and the naive
//! reference it is gated against.
//!
//! Both run the same algorithm — Charikar-style greedy peeling iterated
//! into disjoint blocks ([`crate::fdet()`]) — and return bit-identical
//! results, enforced by `tests/tests/engine_equivalence.rs`:
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
//! **Replayed peels.** After the first peel of a view, each FDET
//! iteration replays the previous iteration's pop sequence `(node, key)`
//! instead of re-peeling from scratch. The retired block seeds the
//! *dirty* nodes: both endpoints of every retired edge, and every merchant
//! whose column weight changed bitwise together with its alive users.
//! Every other participating node is *clean*: its edges, their weights
//! and its priority are unchanged, so as long as each of its neighbours
//! pops at its old slot, its key trajectory is the old one. A clean node
//! therefore never enters the queue; it pops at its old slot with its old
//! key, read off the sequence, unless a dirty node's `(key, id)` is
//! smaller. A dirty node that pops anywhere but its own slot, or misses
//! its slot, dirties its clean unpopped neighbours, whose keys are then
//! replayed exactly: the priority less each popped neighbour's `w·cw` in
//! pop order, with the peel's clamp. The replay pops the same nodes in
//! the same order with the same key bits as a from-scratch peel, so every
//! `f`/φ update is the same arithmetic in the same order: same blocks,
//! same scores. When the seeds (retired endpoints plus the summed degrees
//! of the reweighted merchants) exceed three quarters of the participating
//! nodes, the peel seeds everything instead, which is the plain peel: past
//! that point, timed on full-graph Fraudar, the replay's dirty work costs
//! more than its clean pops save (DESIGN.md §6a). The first peel of a view
//! is the replay of an empty sequence. The crate-private proptest
//! `replay_matches_a_from_scratch_peel` gates the replay with the
//! selection rule bypassed.
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
use crate::bucket::{pack, BucketQueue};
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

/// Key sentinel of a removed node: popped, or not participating. Live keys
/// are non-negative, so one load answers both "is it alive?" and "what is
/// its key?" in the hot loop.
const REMOVED: f64 = -1.0;

/// Key sentinel of a *clean* node in a replayed peel (see the module docs):
/// it pops at its old slot with its old key and holds no queue entry.
/// Negative like [`REMOVED`], so a relax skips it.
const CLEAN: f64 = -2.0;

/// Rank of a node not removed yet that is *flagged* in a replayed peel: a
/// neighbour is dirty, so its pop must relax its row. Above every step, so
/// it reads as "not removed" wherever `u32::MAX` does.
const FLAGGED: u32 = u32::MAX - 1;

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
    /// The previous peel's column weights: a replay seeds the merchants
    /// whose weight changed.
    prev_cw: Vec<f64>,
    /// Initial node priorities (kept for block-membership filtering).
    /// Valid only where `stamp == epoch`.
    priority: Vec<f64>,
    /// Current node keys (decreased as neighbors are removed), or the
    /// [`REMOVED`] / [`CLEAN`] sentinel. Valid only where `stamp == epoch`.
    key: Vec<f64>,
    /// Removal step per node (1-based), or `u32::MAX` / [`FLAGGED`] while
    /// not removed (survived / absent). Valid only where `stamp == epoch`;
    /// one array with the flag, so a clean pop touches one line for both.
    rank: Vec<u32>,
    /// Per-pop relax staging: `(neighbor, new_key)` pairs collected before
    /// they are handed to the queue in one run, so bucket routing can
    /// prefetch its headers (see [`BucketQueue::push_all`]).
    relax: Vec<(u32, f64)>,
    /// Key replay staging: `(rank, row index)` of a dirtied node's popped
    /// neighbours.
    history: Vec<(u32, u32)>,
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
        std::mem::swap(&mut self.cw, &mut self.prev_cw);
        self.cw.clear();
        self.cw.extend(self.vdeg.iter().map(|&d| metric.column_weight(d)));

        // Advance the scratch epoch; node state from earlier peels becomes
        // invalid without being wiped. (Grow-only resizes keep old stamps,
        // which can never equal a fresh epoch.)
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.priority.resize(n, 0.0);
            self.key.resize(n, REMOVED);
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
                self.key[node] = REMOVED;
            }
        }
        if participating == 0 {
            return None;
        }
        Some((f, participating))
    }

    /// `true` when this peel's column weight of merchant `v` differs
    /// bitwise from the previous peel's.
    fn reweighted(&self, v: usize) -> bool {
        self.cw[v].to_bits() != self.prev_cw[v].to_bits()
    }

    /// Turns the clean `node` dirty: flags its unremoved neighbours, whose
    /// pops must now relax it, and replays its exact key from its priority,
    /// less each neighbour popped at rank `<= upto`, in pop order (row
    /// order within one neighbour's parallel edges), with the peel's clamp.
    /// Returns the key; the caller queues it.
    fn dirty(&mut self, view: &CsrView, node: usize, upto: u32) -> f64 {
        let (pairs, side, merchant) = row(view, node);
        self.history.clear();
        for (i, &(o, _)) in pairs.iter().enumerate() {
            let other = side + o as usize;
            let r = self.rank[other];
            if r == u32::MAX {
                self.rank[other] = FLAGGED;
            } else if r <= upto {
                self.history.push((r, i as u32));
            }
        }
        self.history.sort_unstable();
        let mut k = self.priority[node];
        for &(_, i) in &self.history {
            let (o, w) = pairs[i as usize];
            k = (k - w * self.cw[merchant.unwrap_or(o as usize)]).max(0.0);
        }
        self.key[node] = k;
        k
    }
}

/// Reusable per-peel working memory: the per-node arrays, the bucket
/// queue and the replay state, all recycled across peels.
#[derive(Clone, Debug, Default)]
struct PeelScratch {
    nodes: NodeScratch,
    queue: BucketQueue,
    /// The pops `(node, key)` of the peel whose block was retired last,
    /// in pop order: the sequence the next peel replays. Empty before a
    /// view's first peel, and after every peel.
    seq: Vec<(u32, f64)>,
    /// The last peel's pops, moved into `seq` when its block is retired.
    next_seq: Vec<(u32, f64)>,
    /// Endpoints of the edges retired since the previous peel, each once.
    retired: Vec<u32>,
    /// Membership marks for `retired` (users then merchants).
    retired_mark: Vec<bool>,
}

impl PeelScratch {
    /// Starts a new view of `n` nodes: its first peel is a plain one.
    fn begin_view(&mut self, n: usize) {
        self.seq.clear();
        self.clear_retired();
        if self.retired_mark.len() < n {
            self.retired_mark.resize(n, false);
        }
    }

    /// Records `node` as an endpoint of a retired edge.
    fn retire_endpoint(&mut self, node: usize) {
        if !self.retired_mark[node] {
            self.retired_mark[node] = true;
            self.retired.push(node as u32);
        }
    }

    fn clear_retired(&mut self) {
        for &node in &self.retired {
            self.retired_mark[node as usize] = false;
        }
        self.retired.clear();
    }
}

/// How a pop relates to the previous peel's sequence, which decides what
/// its relax must do (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// A clean node at its old slot: only dirty neighbours need relaxing,
    /// and only a flagged node has any.
    Clean,
    /// A dirty node at its old slot: clean neighbours expected this pop.
    On,
    /// Anywhere else (every pop of a plain peel): clean neighbours turn
    /// dirty.
    Off,
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
    /// Reusable intern scratch for [`FdetEngine::run_spec`].
    resolver: SpecResolver,
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
                self.view.rebuild(g);
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
        self.view.rebuild(g);
        self.run_view(metric, Truncation::FixedK(k), Retire::Internal)
            .blocks
    }

    /// The FDET iterations over the freshly built view: every edge starts
    /// alive, and each later iteration shrinks the previous snapshot
    /// ([`CsrView::refilter`]) and replays the previous peel.
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
        edge_alive.clear();
        edge_alive.resize(view.num_edges(), true);
        scratch.begin_view(view.num_users() + view.num_merchants());
        iterate_blocks(truncation, |first| {
            if !first {
                view.refilter(edge_alive);
            }
            let block = peel_seq(view, metric, scratch, replay_pays)?;
            retire_block(view, &block, retire, edge_alive, in_block, scratch);
            Some(block)
        })
    }
}

/// Retires the edges `block` takes out of the next peel (see [`Retire`]),
/// which makes the peel that found `block` the one the next peel replays,
/// and records the retired endpoints to seed that replay.
fn retire_block(
    view: &CsrView,
    block: &Block,
    retire: Retire,
    edge_alive: &mut [bool],
    in_block: &mut Vec<bool>,
    s: &mut PeelScratch,
) {
    std::mem::swap(&mut s.seq, &mut s.next_seq);
    let nu = view.num_users();
    let (e_id, e_u, e_v) = (view.edge_ids(), view.edge_users(), view.edge_merchants());
    match retire {
        Retire::Internal => {
            // The block's edges ascend like the view's edge ids, so each
            // one's position (hence its endpoints) is a binary search past
            // the previous one's.
            let mut from = 0;
            for &e in &block.edges {
                let i = from + e_id[from..].partition_point(|&x| (x as EdgeId) < e);
                from = i + 1;
                edge_alive[e] = false;
                s.retire_endpoint(e_u[i] as usize);
                s.retire_endpoint(nu + e_v[i] as usize);
            }
        }
        Retire::Incident => {
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
            for ((&e, &u), &v) in e_id.iter().zip(e_u).zip(e_v) {
                let (u, v) = (u as usize, nu + v as usize);
                if in_block[u] || in_block[v] {
                    edge_alive[e as usize] = false;
                    s.retire_endpoint(u);
                    s.retire_endpoint(v);
                }
            }
        }
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

/// The row of `node` (users then merchants): its `(neighbour, weight)`
/// pairs, the offset that turns a neighbour id into a node id, and the
/// merchant whose column weight every edge of the row carries, if `node`
/// is one.
#[inline]
fn row(view: &CsrView, node: usize) -> (&[(u32, f64)], usize, Option<usize>) {
    let nu = view.num_users();
    if node < nu {
        (view.user_neighbors(UserId(node as u32)).pairs, nu, None)
    } else {
        let v = node - nu;
        (view.merchant_neighbors(MerchantId(v as u32)).pairs, 0, Some(v))
    }
}

/// Whether a peel replays the view's previous one, from the replay's seed
/// bound and the participating node count: the selection rule (see the
/// module docs).
fn replay_pays(seed_bound: usize, participating: usize) -> bool {
    4 * seed_bound <= 3 * participating
}

/// Peels the densest block out of `view` (which holds exactly the alive
/// edges) with the bucket queue, replaying the view's previous peel when
/// there is one and `select` (given the seed bound and the participating
/// node count) picks it; production passes [`replay_pays`].
/// Mirrors [`crate::peel::peel_densest`] operation for operation: every
/// operation on node state happens in pop order, which both queues define
/// identically.
fn peel_seq(
    view: &CsrView,
    metric: &dyn DensityMetric,
    s: &mut PeelScratch,
    select: impl FnOnce(usize, usize) -> bool,
) -> Option<Block> {
    const SLOTS_AHEAD: usize = 16;
    let Some((mut f, participating)) = s.nodes.begin(view, metric) else {
        s.seq.clear();
        s.clear_retired();
        return None;
    };
    if !s.seq.is_empty() && !select(seed_bound(view, s), participating) {
        s.seq.clear();
    }
    if s.seq.is_empty() {
        let nodes = &s.nodes;
        s.queue.fill(nodes.active.iter().filter_map(|&node| {
            let k = nodes.key[node as usize];
            (k >= 0.0).then_some((node, k))
        }));
    } else {
        seed_replay(view, s);
    }
    s.clear_retired();
    let PeelScratch {
        nodes,
        queue: q,
        seq,
        next_seq,
        ..
    } = s;
    // The slots to replay. None for a view's first peel or when the
    // selection declines, so every pop is off slot: the plain peel.
    let prev: &[(u32, f64)] = seq;
    next_seq.clear();

    // Peel, tracking the best prefix.
    let mut size = participating;
    let mut best_phi = f / size as f64; // H_n: the whole current graph
    let mut best_step = 0u32;
    let mut step = 0u32;
    let mut p = 0usize; // the next slot of `prev`
    let mut relax = std::mem::take(&mut nodes.relax);

    loop {
        // The slots ahead are known, so warm their nodes' state early.
        if let Some(&(c, _)) = prev.get(p + SLOTS_AHEAD) {
            prefetch_read(&nodes.rank, c as usize);
            prefetch_read(&nodes.key, c as usize);
        }
        // Step past the slots that can no longer pop: already popped, gone
        // from the view, or no longer participating (a missed slot). Every
        // slot's node popped in the previous peel, so its rank is still a
        // step unless this peel stamped it: an unremoved rank means "in the
        // view and not popped yet".
        while let Some(&(c, _)) = prev.get(p) {
            let c = c as usize;
            if nodes.rank[c] >= FLAGGED {
                if nodes.key[c] != REMOVED {
                    break;
                }
                miss(view, nodes, q, c, step);
            }
            p += 1;
        }
        // Stale check: a queued key is always non-negative, so the removed
        // sentinel and an outdated key both fail one comparison.
        let head = loop {
            match q.peek() {
                Some((k, x)) if k != nodes.key[x as usize] => {
                    q.pop();
                }
                head => break head,
            }
        };
        let (node, key, slot) = match prev.get(p) {
            Some(&(c, kappa)) => {
                let below = head.filter(|&(k, x)| pack(x, k) < pack(c, kappa));
                if nodes.key[c as usize] == CLEAN {
                    match below {
                        Some((k, x)) => {
                            q.pop();
                            (x, k, Slot::Off)
                        }
                        None => {
                            p += 1;
                            (c, kappa, Slot::Clean)
                        }
                    }
                } else if let Some((k, _)) = head.filter(|&(k, x)| x == c && k <= kappa) {
                    q.pop();
                    p += 1;
                    (c, k, Slot::On)
                } else if let Some((k, x)) = below {
                    q.pop();
                    (x, k, Slot::Off)
                } else {
                    miss(view, nodes, q, c as usize, step);
                    p += 1;
                    continue;
                }
            }
            None => {
                let (k, x) = head.expect("every unpopped node is queued once the slots run out");
                q.pop();
                (x, k, Slot::Off)
            }
        };
        // The next pop's stale check reads `key[head]` — a random access.
        // Its address is known now, long before the relax work below
        // finishes, so start the load early.
        if let Some((_, next)) = q.peek() {
            prefetch_read(&nodes.key, next as usize);
        }
        let node_ix = node as usize;
        let flagged = nodes.rank[node_ix] == FLAGGED;
        nodes.key[node_ix] = REMOVED;
        step += 1;
        nodes.rank[node_ix] = step;
        next_seq.push((node, key));
        f -= key;
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
        if slot != Slot::Clean || flagged {
            relax_row(view, nodes, &mut relax, node_ix, slot == Slot::Off, step);
            q.push_all(&relax);
        }

        if size > 0 {
            // Guard against tiny negative drift from floating cancellation.
            let phi = f.max(0.0) / size as f64;
            if phi > best_phi {
                best_phi = phi;
                best_step = step;
            }
        }
    }
    nodes.relax = relax;
    seq.clear();

    Some(extract_block(view, nodes, best_phi, best_step))
}

/// The selection rule's bound on a replay's seed count: the retired
/// endpoints plus the summed degrees of the reweighted merchants.
fn seed_bound(view: &CsrView, s: &PeelScratch) -> usize {
    let nu = view.num_users();
    let reweighted_degrees: usize = s
        .retired
        .iter()
        .map(|&node| node as usize)
        .filter(|&node| node >= nu && s.nodes.reweighted(node - nu))
        .map(|node| view.merchant_degree(MerchantId((node - nu) as u32)))
        .sum();
    s.retired.len() + reweighted_degrees
}

/// Seeds a replayed peel: every participating node starts clean except the
/// endpoints of the retired edges and each reweighted merchant's alive
/// users, which start dirty with their priority as key.
fn seed_replay(view: &CsrView, s: &mut PeelScratch) {
    let PeelScratch {
        nodes,
        queue,
        retired,
        ..
    } = s;
    for &node in &nodes.active {
        if nodes.key[node as usize] >= 0.0 {
            nodes.key[node as usize] = CLEAN;
        }
    }
    let mut seeds = std::mem::take(&mut nodes.relax);
    seeds.clear();
    let mut seed = |nodes: &mut NodeScratch, node: usize| {
        if nodes.stamp[node] == nodes.epoch && nodes.key[node] == CLEAN {
            seeds.push((node as u32, nodes.dirty(view, node, 0)));
        }
    };
    let nu = view.num_users();
    for &node in retired.iter() {
        let node = node as usize;
        seed(nodes, node);
        if node >= nu && nodes.reweighted(node - nu) {
            for &(u, _) in row(view, node).0 {
                seed(nodes, u as usize);
            }
        }
    }
    queue.fill(seeds.iter().copied());
    nodes.relax = seeds;
}

/// Slot `c` of a replayed peel passes without `c` popping: its clean
/// unpopped neighbours, which expected that pop, turn dirty.
fn miss(view: &CsrView, nodes: &mut NodeScratch, q: &mut BucketQueue, c: usize, step: u32) {
    let (pairs, side, _) = row(view, c);
    for &(o, _) in pairs {
        let other = side + o as usize;
        if nodes.key[other] == CLEAN {
            let k = nodes.dirty(view, other, step);
            q.push(other as u32, k);
        }
    }
}

/// Relaxes the alive neighbours of the just-popped `node` (pop `step`)
/// into `relax`: an incident edge is alive iff its other endpoint is
/// (within one peel, edges die exactly when an endpoint is removed). A
/// clean neighbour is skipped — it expected this pop here — unless the pop
/// is off slot (`dirty_clean`), which turns it dirty first.
fn relax_row(
    view: &CsrView,
    nodes: &mut NodeScratch,
    relax: &mut Vec<(u32, f64)>,
    node: usize,
    dirty_clean: bool,
    step: u32,
) {
    // Each relax reads `key[opposite endpoint]` — independent random
    // accesses at addresses the neighbor list spells out in advance, so
    // issue each load a few iterations before its value is consumed. The
    // decreases are staged into `relax` and handed to the queue in one run
    // (same entries, same order as pushing inline) so the queue can overlap
    // its own routing misses too.
    relax.clear();
    let (pairs, side, merchant) = row(view, node);
    // One monomorphized loop per side, so the weight lookup is branch-free.
    match merchant {
        None => relax_pairs(view, nodes, relax, pairs, side, dirty_clean, step, |n, v| {
            n.cw[v as usize]
        }),
        Some(v) => {
            let cwv = nodes.cw[v];
            relax_pairs(view, nodes, relax, pairs, side, dirty_clean, step, |_, _| cwv)
        }
    }
}

/// The loop of [`relax_row`] over one row, `cw(o)` giving the column weight
/// of the edge to neighbour `o`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn relax_pairs(
    view: &CsrView,
    nodes: &mut NodeScratch,
    relax: &mut Vec<(u32, f64)>,
    pairs: &[(u32, f64)],
    side: usize,
    dirty_clean: bool,
    step: u32,
    cw: impl Fn(&NodeScratch, u32) -> f64,
) {
    const RELAX_AHEAD: usize = 8;
    for (i, &(o, w)) in pairs.iter().enumerate() {
        if let Some(&(ahead, _)) = pairs.get(i + RELAX_AHEAD) {
            prefetch_read(&nodes.key, side + ahead as usize);
        }
        let other = side + o as usize;
        let mut k = nodes.key[other];
        if k < 0.0 {
            if !(dirty_clean && k == CLEAN) {
                continue;
            }
            k = nodes.dirty(view, other, step - 1);
        }
        let nk = (k - w * cw(nodes, o)).max(0.0);
        nodes.key[other] = nk;
        relax.push((other as u32, nk));
    }
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
    use crate::metric::{AverageDegreeMetric, LogWeightedMetric, MetricKind};
    use crate::peel::peel_densest_full;
    use ensemfdet_graph::GraphBuilder;
    use proptest::prelude::*;

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
        peel_seq(&view, metric, &mut PeelScratch::default(), replay_pays)
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
        let mut view = CsrView::from_graph(&g);
        view.refilter(&vec![false; g.num_edges()]);
        let mut scratch = PeelScratch::default();
        assert!(peel_seq(&view, &AverageDegreeMetric, &mut scratch, replay_pays).is_none());
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
            view.rebuild(g);
            let reused = peel_seq(&view, &AverageDegreeMetric, &mut scratch, replay_pays);
            let fresh = peel_csr_full(g, &AverageDegreeMetric);
            assert_eq!(reused, fresh);
        }
    }

    #[test]
    fn fdet_engines_agree_end_to_end() {
        assert_eq!(Engine::default(), Engine::Bucket);
        let g = planted_graph();
        let truncation = Truncation::KeepAll { k_max: 10 };
        let run = |e| FdetEngine::new().run(&g, &MetricKind::default(), truncation, e);
        let naive = run(Engine::Naive);
        let got = run(Engine::Bucket);
        assert_eq!(naive.blocks, got.blocks);
        assert_eq!(naive.scores, got.scores);
        assert_eq!(naive.k_hat, got.k_hat);
    }

    /// A random graph of up to 24 users × 10 merchants: parallel edges,
    /// an unsorted canonical order, and optional non-unit weights.
    fn arb_graph() -> impl Strategy<Value = BipartiteGraph> {
        let raw = prop::collection::vec((0u32..1000, 0u32..1000, 0usize..4), 0..120);
        (1usize..24, 1usize..10, raw, any::<bool>()).prop_map(|(nu, nv, raw, weighted)| {
            let edges = raw
                .iter()
                .map(|&(u, v, _)| (u % nu as u32, v % nv as u32))
                .collect();
            if weighted {
                let weights = raw.iter().map(|&(_, _, w)| [0.5, 1.0, 2.0, 3.25][w]).collect();
                BipartiteGraph::from_weighted_edges(nu, nv, edges, weights).unwrap()
            } else {
                BipartiteGraph::from_edges(nu, nv, edges).unwrap()
            }
        })
    }

    /// The FDET loop of `run_view` with `select` in place of the selection
    /// rule, each view also peeled from scratch beside it. Returns how many
    /// peels replayed.
    fn check_replay(
        g: &BipartiteGraph,
        metric: &dyn DensityMetric,
        retire: Retire,
        select: &mut dyn FnMut(usize, usize) -> bool,
    ) -> Result<usize, TestCaseError> {
        let bits = |seq: &[(u32, f64)]| -> Vec<(u32, u64)> {
            seq.iter().map(|&(x, k)| (x, k.to_bits())).collect()
        };
        let mut view = CsrView::from_graph(g);
        let mut replayed = PeelScratch::default();
        replayed.begin_view(g.num_nodes());
        let mut fresh = PeelScratch::default();
        let (mut alive, mut in_block) = (vec![true; g.num_edges()], Vec::new());
        let mut replays = 0;
        for iteration in 0..12 {
            if iteration > 0 {
                view.refilter(&alive);
            }
            // Every peel after the first has a sequence to replay.
            prop_assert_eq!(replayed.seq.is_empty(), iteration == 0);
            let want = peel_seq(&view, metric, &mut fresh, replay_pays);
            let got = peel_seq(&view, metric, &mut replayed, |bound, participating| {
                let replay = select(bound, participating);
                replays += replay as usize;
                replay
            });
            prop_assert_eq!(&got, &want);
            let (Some(block), Some(want)) = (got, want) else {
                break;
            };
            prop_assert_eq!(bits(&replayed.next_seq), bits(&fresh.next_seq));
            prop_assert_eq!(block.score.to_bits(), want.score.to_bits());
            if block.edges.is_empty() {
                break;
            }
            retire_block(&view, &block, retire, &mut alive, &mut in_block, &mut replayed);
        }
        Ok(replays)
    }

    proptest! {
        /// The replay gate with the selection rule bypassed: every FDET
        /// peel after the first replays, and its pop sequence (ids and key
        /// bits), block and score bits equal a from-scratch peel of the
        /// same view — under both metrics and both retire rules.
        #[test]
        fn replay_matches_a_from_scratch_peel(g in arb_graph()) {
            for metric in [
                &AverageDegreeMetric as &dyn DensityMetric,
                &LogWeightedMetric::paper_default(),
            ] {
                for retire in [Retire::Incident, Retire::Internal] {
                    check_replay(&g, metric, retire, &mut |_, _| true)?;
                }
                // The production loop, selection rule included.
                let mut engine = FdetEngine::new();
                let truncation = Truncation::KeepAll { k_max: 12 };
                let got = engine.run(&g, metric, truncation, Engine::Bucket);
                let want = fdet_naive(&g, metric, truncation);
                prop_assert_eq!(got.blocks, want.blocks);
                let score_bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(score_bits(&got.scores), score_bits(&want.scores));
            }
        }
    }

    #[test]
    fn jd3_samples_replay_under_the_selection_rule() {
        use ensemfdet_datagen::generate;
        use ensemfdet_datagen::presets::{jd_preset, JdDataset};
        use ensemfdet_sampling::{Sampler, SamplerScratch, SamplingMethod};
        // RES samples of jd3 at 1/64 (~1/640 of Table I's edges each),
        // peeled under the production selection rule.
        let g = generate(&jd_preset(JdDataset::Jd3, 64, 7)).graph;
        let metric = MetricKind::default();
        let (mut sampler, mut spec) = (SamplerScratch::new(), SampleSpec::new());
        let mut replays = 0;
        for seed in 0..2 {
            SamplingMethod::RandomEdge.sample_spec(&g, 0.1, seed, &mut sampler, &mut spec);
            let sample = spec.materialize(&g).graph;
            replays += check_replay(&sample, &metric, Retire::Incident, &mut replay_pays).unwrap();
        }
        assert!(replays > 0, "no FDET peel replayed");
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
