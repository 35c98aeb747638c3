//! The non-blocking ingest/scan pipeline.
//!
//! A production deployment of the ensemble faces two workloads with
//! opposite latency profiles: **ingest** (millions of tiny appends that
//! must never stall) and **scan** (a full `N`-sample ensemble pass that
//! takes seconds). Guarding both behind one mutex lets any scan freeze
//! the ingest path for its whole duration.
//!
//! This module splits the monitor into three independently lockable
//! pieces, mirroring the paper's own separation of graph accumulation
//! from the embarrassingly parallel detection pass:
//!
//! * [`IngestBuffer`] — the log of records no snapshot covers yet. An
//!   append takes its one mutex for a `Vec` extend; it is never held
//!   across graph construction or detection.
//! * [`SnapshotStore`] — epoch-versioned, immutable
//!   [`BipartiteGraph`] snapshots. Each compaction takes the buffer's
//!   pending records and merges them into the previous snapshot, at a
//!   configurable cadence. Publication is an `Arc` swap, so readers never
//!   wait on a build in progress and a snapshot, once obtained, can be
//!   scanned for minutes without blocking anyone.
//! * [`ScanRunner`] — runs one ensemble pass against one snapshot and
//!   tags the outcome with that snapshot's epoch. A full scan
//!   ([`run`](ScanRunner::run)) and an incremental one
//!   ([`run_incremental`](ScanRunner::run_incremental), which replays the
//!   samples the epoch's delta left clean from the runner's per-sample
//!   cache) share one body and one sample loop. Detection is
//!   deterministic in `(epoch, seed)`: the same snapshot and seed always
//!   produce the same flagged set, regardless of what ingest is doing
//!   concurrently or how much a scan replayed.
//!
//! A synchronous caller (the CLI's `monitor`, `examples/live_monitor.rs`)
//! composes the three in one loop; the HTTP service composes them with a
//! background executor, so `POST /v1/transactions` and a running scan
//! never contend.

use crate::aggregate::VoteTally;
use crate::detector::DetectContext;
use crate::ensemble::{EnsemFdet, EnsemFdetConfig, EnsembleOutcome};
use crate::incremental::{FallbackReason, IncrementalPolicy, ReuseStats, ScanCache};
use crate::scoring::{core_depth, spectral_scores, timed, HybridScanScores, ScoringConfig};
use ensemfdet_graph::{
    core_decomposition, BipartiteGraph, GraphDelta, GraphDims, MerchantId, UserId,
};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, Weak};
use std::time::Duration;

/// How many per-epoch deltas a [`SnapshotStore`] retains for
/// [`delta_since`](SnapshotStore::delta_since) composition. A follow-mode
/// scanner is normally at most one epoch behind; 64 gives slow scanners
/// (or paused ones) a deep window before they fall back to a full
/// re-peel.
pub const DELTA_HISTORY: usize = 64;

/// Locks a mutex, recovering from poisoning instead of propagating the
/// panic. The protected data here (pending records, alert sets, snapshot
/// pointers) stays structurally valid even if a panic interrupted an
/// update, so serving slightly-stale state beats wedging every caller.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The log of `(user, merchant)` purchase records that no snapshot
/// covers yet.
///
/// Appends extend one `Vec` under one mutex. [`SnapshotStore::compact`]
/// takes the whole `Vec`, so the buffer never holds a record a published
/// snapshot already has. Nothing holds the lock across graph construction
/// or detection, so ingest throughput is independent of scan activity.
///
/// Compaction consumes what it takes, so one buffer feeds one
/// [`SnapshotStore`].
#[derive(Debug, Default)]
pub struct IngestBuffer {
    /// Records appended since the last compaction took them.
    pending: Mutex<Vec<(u32, u32)>>,
    /// Records appended ever. Bumped under `pending`'s lock, so a
    /// compaction never takes a record this count does not include.
    total: AtomicUsize,
}

impl IngestBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one purchase record.
    pub fn append(&self, u: UserId, v: MerchantId) {
        self.append_batch([(u, v)]);
    }

    /// Appends a batch of records under one lock.
    pub fn append_batch(&self, it: impl IntoIterator<Item = (UserId, MerchantId)>) {
        let mut pending = lock_recover(&self.pending);
        let before = pending.len();
        pending.extend(it.into_iter().map(|(u, v)| (u.0, v.0)));
        self.total.fetch_add(pending.len() - before, Ordering::Release);
    }

    /// Records appended so far, including those compaction already took.
    pub fn len(&self) -> usize {
        self.total.load(Ordering::Acquire)
    }

    /// `true` when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes every pending record, leaving the log empty.
    pub(crate) fn take(&self) -> Vec<(u32, u32)> {
        std::mem::take(&mut *lock_recover(&self.pending))
    }
}

/// One immutable, epoch-tagged view of the purchase graph.
///
/// Snapshots are shared as `Arc<Snapshot>`: a scan keeps its snapshot
/// alive for as long as it runs while newer epochs are published
/// underneath it.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Monotonically increasing snapshot version; epoch 0 is the empty
    /// graph that exists before any compaction.
    pub epoch: u64,
    /// Transactions compacted into this snapshot.
    pub transactions: usize,
    /// The deduplicated purchase graph, always in canonical sorted-unique
    /// edge order — the property the whole incremental machinery rests
    /// on (see [`GraphDelta`]).
    pub graph: Arc<BipartiteGraph>,
}

impl Snapshot {
    fn empty() -> Self {
        Snapshot {
            epoch: 0,
            transactions: 0,
            graph: Arc::new(
                BipartiteGraph::from_edges(0, 0, vec![]).expect("empty graph is valid"),
            ),
        }
    }

    /// `(users, merchants, edges)` of this snapshot's graph.
    pub fn dims(&self) -> GraphDims {
        (
            self.graph.num_users(),
            self.graph.num_merchants(),
            self.graph.num_edges(),
        )
    }
}

/// Epoch-versioned snapshot publication.
///
/// `latest()` is a brief read-lock + `Arc` clone — readers never wait on
/// a compaction in progress, because graphs are built *outside* the lock
/// and swapped in atomically. Compactions themselves serialize on an
/// internal mutex so epochs stay strictly increasing.
///
/// Compaction is **incremental**: each epoch takes only the records
/// appended since the last one, duplicate purchases dedup against the
/// previous snapshot's sorted edge list by binary search, and genuinely
/// new edges sorted-merge into it — cost scales with the batch, not the
/// graph. Each publish also records a [`GraphDelta`] so scanners can ask
/// [`delta_since`](Self::delta_since) what changed across any recent
/// epoch span.
///
/// Compaction drains the buffer it reads, so a store must be the only
/// one compacting its [`IngestBuffer`].
#[derive(Debug)]
pub struct SnapshotStore {
    current: RwLock<Arc<Snapshot>>,
    /// Serializes compactions: graphs are built outside `current`'s lock,
    /// so two racing compactions could otherwise publish out of epoch
    /// order.
    compacting: Mutex<()>,
    /// The last [`DELTA_HISTORY`] published deltas, oldest first, with
    /// consecutive epoch spans.
    deltas: Mutex<VecDeque<GraphDelta>>,
    compaction_interval: usize,
}

impl SnapshotStore {
    /// A store holding the empty epoch-0 snapshot.
    ///
    /// `compaction_interval` is the cadence in transactions at which
    /// [`refresh`](Self::refresh) considers the current snapshot stale.
    ///
    /// # Panics
    ///
    /// Panics if `compaction_interval == 0`.
    pub fn new(compaction_interval: usize) -> Self {
        assert!(compaction_interval > 0, "compaction_interval must be positive");
        SnapshotStore {
            current: RwLock::new(Arc::new(Snapshot::empty())),
            compacting: Mutex::new(()),
            deltas: Mutex::new(VecDeque::new()),
            compaction_interval,
        }
    }

    /// The latest published snapshot (wait-free with respect to
    /// compaction: the lock is held only for an `Arc` clone).
    pub fn latest(&self) -> Arc<Snapshot> {
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Transactions appended to `buffer` since the latest snapshot.
    pub fn lag(&self, buffer: &IngestBuffer) -> usize {
        buffer.len().saturating_sub(self.latest().transactions)
    }

    /// Whether the cadence says a new compaction is due.
    pub fn is_stale(&self, buffer: &IngestBuffer) -> bool {
        self.lag(buffer) >= self.compaction_interval
    }

    /// Returns a current snapshot, compacting first if needed.
    ///
    /// With `force`, any buffered transaction not yet in the snapshot
    /// triggers a compaction; without it, only the configured cadence
    /// does. Either way the returned snapshot is the latest published
    /// one.
    pub fn refresh(&self, buffer: &IngestBuffer, force: bool) -> Arc<Snapshot> {
        let due = if force {
            self.lag(buffer) > 0
        } else {
            self.is_stale(buffer)
        };
        if due {
            self.compact(buffer)
        } else {
            self.latest()
        }
    }

    /// Takes the buffer's pending records, merges them into the latest
    /// snapshot and publishes the result as the next epoch. If nothing
    /// was appended since the previous compaction, that snapshot is
    /// returned unchanged (no epoch bump).
    ///
    /// The batch is sorted and deduplicated, edges the previous snapshot
    /// already has are dropped by binary search, and the rest
    /// sorted-merge into its edge list: O(batch log graph + graph)
    /// instead of a rebuild. A store's first compaction merges into the
    /// empty epoch-0 graph along the same code. Every publish records the
    /// epoch's [`GraphDelta`].
    ///
    /// The records taken are consumed: `buffer` must feed this store
    /// only.
    pub fn compact(&self, buffer: &IngestBuffer) -> Arc<Snapshot> {
        let _serial = lock_recover(&self.compacting);
        let previous = self.latest();
        let mut batch = buffer.take();
        if batch.is_empty() {
            return previous;
        }
        let transactions = previous.transactions + batch.len();
        batch.sort_unstable();
        batch.dedup();
        let prev_edges = previous.graph.edge_pairs();
        batch.retain(|e| prev_edges.binary_search(e).is_err());

        let graph = if batch.is_empty() {
            // Every taken record was a repeat purchase: the graph is
            // unchanged, share it. (The epoch still bumps — transaction
            // counts are part of the snapshot.)
            previous.graph.clone()
        } else {
            let mut merged = Vec::with_capacity(prev_edges.len() + batch.len());
            let (mut i, mut j) = (0, 0);
            while i < prev_edges.len() && j < batch.len() {
                if prev_edges[i] < batch[j] {
                    merged.push(prev_edges[i]);
                    i += 1;
                } else {
                    // Strictly less: `batch` was filtered against
                    // `prev_edges`, so the lists are disjoint.
                    merged.push(batch[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&prev_edges[i..]);
            merged.extend_from_slice(&batch[j..]);
            let (pu, pv, _) = previous.dims();
            let nu = pu.max(batch.iter().map(|&(u, _)| u as usize + 1).max().unwrap_or(0));
            let nv = pv.max(batch.iter().map(|&(_, v)| v as usize + 1).max().unwrap_or(0));
            Arc::new(
                BipartiteGraph::from_edges(nu, nv, merged)
                    .expect("merged sorted-unique edge list is valid"),
            )
        };
        self.publish(&previous, transactions, graph, &batch)
    }

    /// Publishes `graph` as the next epoch and records its delta.
    /// `fresh` is the sorted-unique list of edges present in `graph` but
    /// not in `previous`. Caller holds the compaction lock.
    fn publish(
        &self,
        previous: &Snapshot,
        transactions: usize,
        graph: Arc<BipartiteGraph>,
        fresh: &[(u32, u32)],
    ) -> Arc<Snapshot> {
        let epoch = previous.epoch + 1;
        let new_dims = (graph.num_users(), graph.num_merchants(), graph.num_edges());
        let delta = if fresh.is_empty() {
            GraphDelta::unchanged(previous.epoch, epoch, new_dims)
        } else {
            GraphDelta::from_new_edges(previous.epoch, epoch, previous.dims(), new_dims, fresh)
        };
        {
            let mut deltas = lock_recover(&self.deltas);
            deltas.push_back(delta);
            while deltas.len() > DELTA_HISTORY {
                deltas.pop_front();
            }
        }
        let snapshot = Arc::new(Snapshot {
            epoch,
            transactions,
            graph,
        });
        *self
            .current
            .write()
            .unwrap_or_else(PoisonError::into_inner) = snapshot.clone();
        snapshot
    }

    /// The composed [`GraphDelta`] spanning `base_epoch → target_epoch`,
    /// or `None` when the retained history (the last [`DELTA_HISTORY`]
    /// publishes) no longer covers that span. `None` is a signal to fall
    /// back to a full scan, never an error.
    pub fn delta_since(&self, base_epoch: u64, target_epoch: u64) -> Option<GraphDelta> {
        if base_epoch >= target_epoch {
            return None;
        }
        let deltas = lock_recover(&self.deltas);
        let mut acc: Option<GraphDelta> = None;
        for d in deltas.iter() {
            acc = match acc {
                None if d.from_epoch == base_epoch => Some(d.clone()),
                None => continue,
                Some(a) => a.compose(d),
            };
            match &acc {
                Some(a) if a.to_epoch == target_epoch => return acc,
                Some(_) => {}
                // History is consecutive, so a failed compose means
                // corruption rather than a gap; treat as not covered.
                None => return None,
            }
        }
        None
    }
}

/// What one scan of a snapshot produced, tagged with the snapshot's
/// epoch.
#[derive(Clone, Debug)]
pub struct ScanOutcome {
    /// Epoch of the snapshot this scan ran on.
    pub epoch: u64,
    /// Transactions in that snapshot.
    pub transactions: usize,
    /// Every account at or above the vote threshold used for this scan.
    pub flagged: Vec<UserId>,
    /// Accounts crossing the threshold for the first time ever.
    pub new_alerts: Vec<UserId>,
    /// The ensemble pass itself: the vote tally (for custom thresholds
    /// downstream), the evidence, per-sample summaries, its wall-clock,
    /// per-stage split and pool diagnostics. On an incremental scan the
    /// timings measure this pass's work, and a replayed sample's summary
    /// still carries the timings of the run that produced it.
    pub ensemble: EnsembleOutcome,
    /// How this outcome was produced: full scan, incremental with
    /// per-sample reuse accounting, or a fallback (and why). The flagged
    /// set is identical either way — this is performance telemetry.
    pub reuse: ReuseStats,
    /// Hybrid component and fused scores, when the config enables
    /// scoring. Computed on the parent snapshot after the ensemble pass
    /// (never per sample), so it is identical on the full and
    /// incremental paths. The graph-only spectral and k-core components
    /// are computed once per snapshot graph and reused by the runner's
    /// later scans of it ([`HybridScanScores::components_reused`]); the
    /// vote fraction and the fusion run every scan. `flagged` above
    /// stays the plain vote-threshold set either way; the hybrid's own
    /// flag set is [`HybridScanScores::hybrid_flagged`].
    pub scoring: Option<HybridScanScores>,
}

/// The hybrid scan's graph-only components, kept for the graph they
/// were computed on: the clamped spoke statistic of
/// [`spectral_scores`](crate::spectral_scores) and the user core numbers
/// behind [`kcore_scores`](crate::kcore_scores).
///
/// The key is exact. `graph` is compared by address, and the weak
/// reference keeps the graph's allocation from being freed, so no other
/// graph can ever take that address; it keeps none of the graph's
/// buffers alive. The spectral scores are also keyed on the SVD rank and
/// sketch seed, the only other inputs of the SVD. Everything else in a
/// [`ScoringConfig`] (weights, floors, normalization, threshold) and the
/// votes feed only the fusion.
#[derive(Clone, Debug)]
struct GraphComponents {
    graph: Weak<BipartiteGraph>,
    /// `(spectral_components, spectral_seed)` of `spectral`.
    spectral_key: (usize, u64),
    spectral: Vec<f64>,
    user_core: Vec<u32>,
    degeneracy: u32,
}

/// Runs ensemble scans against snapshots and tracks which accounts have
/// already alerted, so downstream systems act once per account.
///
/// The *flagged set* of a scan is a pure function of
/// `(snapshot epoch, detector config)` — per-sample seeds derive from the
/// config seed, so re-running the same epoch with the same seed
/// reproduces it bit-for-bit. Besides `new_alerts`, the runner keeps
/// two caches, neither of which ever changes a result — only how much
/// work producing it takes: the sample cache behind
/// [`run_incremental`](Self::run_incremental), and the hybrid scan's
/// graph-only components (spectral and k-core) of the last scored
/// snapshot graph, which both scan paths reuse while the graph is
/// unchanged.
#[derive(Clone, Debug, Default)]
pub struct ScanRunner {
    alerted: HashSet<u32>,
    cache: Option<ScanCache>,
    components: Option<GraphComponents>,
    /// Sample-pool worker threads for every pass this runner drives;
    /// `0` = one per available core. A wall-clock knob only — any value
    /// produces the same flagged set (see [`EnsemFdet::with_workers`]),
    /// which is why it lives outside [`EnsemFdetConfig`] and never
    /// invalidates the incremental cache.
    workers: usize,
}

impl ScanRunner {
    /// A runner with no alert history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the sample-pool worker count for subsequent passes (`0` =
    /// auto). Safe to change between scans — results are worker-count
    /// invariant, so the cache stays valid.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers;
    }

    /// Runs one full ensemble pass over `snapshot`.
    ///
    /// Always peels every sample from scratch, and deliberately does
    /// *not* read or write the incremental cache — this is the reference
    /// path the incremental one is benchmarked (and equivalence-gated)
    /// against.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid ([`EnsemFdet::new`] asserts) or
    /// `threshold == 0`.
    pub fn run(
        &mut self,
        snapshot: &Snapshot,
        config: &EnsemFdetConfig,
        threshold: u32,
    ) -> ScanOutcome {
        self.scan(snapshot, config, threshold, None)
    }

    /// Runs one ensemble pass over `snapshot`, reusing cached per-sample
    /// results where the epoch delta provably cannot have changed them.
    ///
    /// The flagged set is **bit-identical** to [`run`](Self::run) on the
    /// same `(snapshot, config)` — reuse is a pure performance
    /// optimization (gated by `tests/tests/incremental_scan.rs`). When
    /// reuse is impossible or not worth it, the scan degrades to a full
    /// pass and says so in [`ScanOutcome::reuse`]:
    ///
    /// * [`FallbackReason::ColdCache`] — first scan through this runner.
    /// * [`FallbackReason::ConfigChanged`] — any config difference.
    /// * [`FallbackReason::MissingDelta`] — `store` no longer retains the
    ///   delta chain from the cached epoch to `snapshot.epoch`.
    /// * [`FallbackReason::OversizedDelta`] — the delta touched more than
    ///   [`IncrementalPolicy::max_touched_fraction`] of the nodes.
    ///
    /// Either way the cache is (re)primed for the next epoch.
    ///
    /// # Panics
    ///
    /// Same as [`run`](Self::run).
    pub fn run_incremental(
        &mut self,
        snapshot: &Snapshot,
        store: &SnapshotStore,
        config: &EnsemFdetConfig,
        threshold: u32,
        policy: &IncrementalPolicy,
    ) -> ScanOutcome {
        self.scan(snapshot, config, threshold, Some((store, policy)))
    }

    /// The body of [`run`](Self::run) (`incremental = None`) and
    /// [`run_incremental`](Self::run_incremental): one
    /// [`EnsemFdet::pass`], replaying from the cache when a usable delta
    /// exists, then the reuse accounting, the next cache and
    /// [`finish`](Self::finish).
    fn scan(
        &mut self,
        snapshot: &Snapshot,
        config: &EnsemFdetConfig,
        threshold: u32,
        incremental: Option<(&SnapshotStore, &IncrementalPolicy)>,
    ) -> ScanOutcome {
        assert!(threshold > 0, "alert threshold must be positive");
        let attempt =
            incremental.map(|(store, policy)| self.delta_to(snapshot, store, config, policy));
        let delta = attempt.as_ref().and_then(|a| a.as_ref().ok());
        let reuse = delta.zip(self.cache.as_ref());
        let (ensemble, entries, ran) =
            EnsemFdet::with_workers(*config, self.workers).pass(&snapshot.graph, reuse);
        let n = config.num_samples;
        let stats = match attempt {
            None => ReuseStats::full(n),
            Some(Err(reason)) => ReuseStats::fallback(n, reason),
            Some(Ok(delta)) => ReuseStats {
                incremental: true,
                fallback: None,
                samples_reused: n - ran,
                samples_repeeled: ran,
                delta_touched_nodes: delta.touched_nodes(),
                delta_touched_fraction: delta.touched_fraction(),
            },
        };
        if incremental.is_some() {
            self.cache = Some(ScanCache {
                base_epoch: snapshot.epoch,
                base_dims: snapshot.dims(),
                config: *config,
                entries,
            });
        }
        self.finish(snapshot, ensemble, stats, threshold, config)
    }

    /// The delta from the cached epoch to `snapshot`'s, or why the cache
    /// cannot be replayed against it.
    fn delta_to(
        &self,
        snapshot: &Snapshot,
        store: &SnapshotStore,
        config: &EnsemFdetConfig,
        policy: &IncrementalPolicy,
    ) -> Result<GraphDelta, FallbackReason> {
        let cache = match &self.cache {
            None => return Err(FallbackReason::ColdCache),
            Some(cache) if cache.config != *config => return Err(FallbackReason::ConfigChanged),
            Some(cache) => cache,
        };
        let delta = if cache.base_epoch == snapshot.epoch {
            // Re-scan of the very epoch the cache was built on.
            if cache.base_dims == snapshot.dims() {
                GraphDelta::unchanged(snapshot.epoch, snapshot.epoch, snapshot.dims())
            } else {
                return Err(FallbackReason::MissingDelta);
            }
        } else {
            store
                .delta_since(cache.base_epoch, snapshot.epoch)
                // The cache must describe the same epoch the delta starts
                // from; a dims mismatch means it came from some other
                // store's epoch numbering.
                .filter(|d| d.base_dims == cache.base_dims)
                .ok_or(FallbackReason::MissingDelta)?
        };
        if delta.touched_fraction() > policy.max_touched_fraction {
            return Err(FallbackReason::OversizedDelta);
        }
        Ok(delta)
    }

    /// Epoch of the snapshot the incremental cache currently describes.
    pub fn cached_epoch(&self) -> Option<u64> {
        self.cache.as_ref().map(|c| c.base_epoch)
    }

    /// Converts an ensemble outcome into a [`ScanOutcome`], updating the
    /// alert-once set. When the config enables hybrid scoring, it runs
    /// here, on the parent snapshot — the one place both the full and
    /// incremental paths flow through, so the scores are identical
    /// regardless of how much the ensemble pass reused.
    fn finish(
        &mut self,
        snapshot: &Snapshot,
        ensemble: EnsembleOutcome,
        reuse: ReuseStats,
        threshold: u32,
        config: &EnsemFdetConfig,
    ) -> ScanOutcome {
        let scoring = config
            .scoring
            .enabled
            .then(|| self.score(&snapshot.graph, &ensemble.votes, &config.scoring));
        let flagged = ensemble.votes.detected_users(threshold);
        let new_alerts: Vec<UserId> = flagged
            .iter()
            .copied()
            .filter(|u| self.alerted.insert(u.0))
            .collect();
        ScanOutcome {
            epoch: snapshot.epoch,
            transactions: snapshot.transactions,
            flagged,
            new_alerts,
            ensemble,
            reuse,
            scoring,
        }
    }

    /// [`hybrid_scan_scores`](crate::hybrid_scan_scores) on `graph`,
    /// taking the spectral and k-core components from the runner's cache
    /// when it holds them for this graph (and, for the spectral part,
    /// this SVD rank and seed). The output is bit-identical to a cold
    /// computation.
    fn score(
        &mut self,
        graph: &Arc<BipartiteGraph>,
        votes: &VoteTally,
        config: &ScoringConfig,
    ) -> HybridScanScores {
        let (vote, t_vote) = timed(|| votes.user_scores());
        let spectral_key = (config.spectral_components, config.spectral_seed);
        // The entry leaves the runner until both components are whole, so
        // a panic in either pass leaves none behind. An entry for another
        // graph is dropped here, and a stale spectral part below, before
        // their replacements are computed.
        let cached = self
            .components
            .take()
            .filter(|c| c.graph.ptr_eq(&Arc::downgrade(graph)));
        let (spectral, cores) = match cached {
            Some(c) if c.spectral_key == spectral_key => {
                (Some(c.spectral), Some((c.user_core, c.degeneracy)))
            }
            Some(c) => (None, Some((c.user_core, c.degeneracy))),
            None => (None, None),
        };
        let components_reused = spectral.is_some() && cores.is_some();
        let (spectral, t_spectral) = match spectral {
            Some(s) => (s, Duration::ZERO),
            None => timed(|| spectral_scores(&DetectContext::new(graph), config)),
        };
        let ((user_core, degeneracy), t_kcore) = match cores {
            Some(c) => (c, Duration::ZERO),
            None => timed(|| {
                let cores = core_decomposition(graph);
                (cores.user_core, cores.degeneracy)
            }),
        };
        let kcore = core_depth(&user_core, degeneracy);
        let entry = self.components.insert(GraphComponents {
            graph: Arc::downgrade(graph),
            spectral_key,
            spectral,
            user_core,
            degeneracy,
        });
        HybridScanScores::fuse(
            config,
            vote,
            entry.spectral.clone(),
            kcore,
            [t_vote, t_spectral, t_kcore],
            components_reused,
        )
    }

    /// Accounts alerted at any point so far, sorted.
    pub fn alerted(&self) -> Vec<UserId> {
        let mut out: Vec<UserId> = self.alerted.iter().map(|&u| UserId(u)).collect();
        out.sort_unstable();
        out
    }

    /// Number of accounts alerted so far.
    pub fn alerted_count(&self) -> usize {
        self.alerted.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemfdet_graph::builder::DuplicatePolicy;
    use ensemfdet_graph::GraphBuilder;
    use std::sync::atomic::AtomicBool;

    fn ring_and_background(buffer: &IngestBuffer) {
        for u in 0..8u32 {
            for v in 0..5u32 {
                buffer.append(UserId(u), MerchantId(v));
            }
        }
        for i in 0..200u32 {
            buffer.append(UserId(20 + i % 90), MerchantId(10 + i % 40));
        }
    }

    fn quick_config() -> EnsemFdetConfig {
        EnsemFdetConfig {
            num_samples: 10,
            sample_ratio: 0.7,
            seed: 9,
            ..Default::default()
        }
    }

    #[test]
    fn buffer_appends_are_counted_and_collected() {
        let b = IngestBuffer::new();
        assert!(b.is_empty());
        b.append(UserId(0), MerchantId(1));
        b.append_batch([(UserId(1), MerchantId(2)), (UserId(2), MerchantId(0))]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.take(), vec![(0, 1), (1, 2), (2, 0)]);
        // Taking drains the log but not the count of records ever appended.
        assert!(b.take().is_empty());
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn concurrent_appends_all_land() {
        let b = Arc::new(IngestBuffer::new());
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for i in 0..500u32 {
                        b.append(UserId(t * 1000 + i), MerchantId(i % 17));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.len(), 2000);
        assert_eq!(b.take().len(), 2000);
    }

    #[test]
    fn store_starts_at_epoch_zero_and_bumps_on_compact() {
        let b = IngestBuffer::new();
        let store = SnapshotStore::new(10);
        let s0 = store.latest();
        assert_eq!(s0.epoch, 0);
        assert_eq!(s0.graph.num_edges(), 0);

        b.append(UserId(0), MerchantId(0));
        let s1 = store.compact(&b);
        assert_eq!(s1.epoch, 1);
        assert_eq!(s1.transactions, 1);
        assert_eq!(store.latest().epoch, 1);
    }

    #[test]
    fn refresh_honors_cadence_and_force() {
        let b = IngestBuffer::new();
        let store = SnapshotStore::new(100);
        for i in 0..5u32 {
            b.append(UserId(i), MerchantId(0));
        }
        // 5 < 100: cadence says not stale.
        assert_eq!(store.refresh(&b, false).epoch, 0);
        // Force compacts anything pending.
        assert_eq!(store.refresh(&b, true).epoch, 1);
        // Nothing new: force is a no-op, same snapshot comes back.
        assert_eq!(store.refresh(&b, true).epoch, 1);
        for i in 0..100u32 {
            b.append(UserId(i), MerchantId(1));
        }
        assert!(store.is_stale(&b));
        assert_eq!(store.refresh(&b, false).epoch, 2);
        assert_eq!(store.lag(&b), 0);
    }

    #[test]
    fn snapshots_are_immutable_under_later_ingest() {
        let b = IngestBuffer::new();
        ring_and_background(&b);
        let store = SnapshotStore::new(1);
        let snap = store.compact(&b);
        let (edges_before, txn_before) = (snap.graph.num_edges(), snap.transactions);
        for i in 0..500u32 {
            b.append(UserId(500 + i), MerchantId(300 + i));
        }
        store.compact(&b);
        // The old snapshot still reads exactly as published.
        assert_eq!(snap.graph.num_edges(), edges_before);
        assert_eq!(snap.transactions, txn_before);
        assert!(store.latest().transactions > txn_before);
    }

    #[test]
    fn runner_is_deterministic_per_epoch_and_seed() {
        let b = IngestBuffer::new();
        ring_and_background(&b);
        let store = SnapshotStore::new(1);
        let snap = store.compact(&b);
        let cfg = quick_config();
        let a = ScanRunner::new().run(&snap, &cfg, 6);
        let c = ScanRunner::new().run(&snap, &cfg, 6);
        assert_eq!(a.flagged, c.flagged);
        assert_eq!(a.ensemble.votes, c.ensemble.votes);
        assert_eq!(a.epoch, c.epoch);
    }

    #[test]
    fn runner_alerts_once_per_account() {
        let b = IngestBuffer::new();
        let store = SnapshotStore::new(1);
        let cfg = quick_config();
        let mut runner = ScanRunner::new();
        let empty = runner.run(&store.latest(), &cfg, 6);
        assert!(empty.flagged.is_empty() && empty.new_alerts.is_empty());
        assert_eq!(empty.transactions, 0);

        ring_and_background(&b);
        let snap = store.compact(&b);
        let first = runner.run(&snap, &cfg, 6);
        assert!(!first.flagged.is_empty());
        assert_eq!(first.flagged, first.new_alerts);
        let second = runner.run(&snap, &cfg, 6);
        assert_eq!(second.flagged, first.flagged);
        assert!(second.new_alerts.is_empty());
        assert_eq!(runner.alerted_count(), first.flagged.len());

        // A second ring in a later epoch alerts only its own accounts.
        for u in 300..308u32 {
            for v in 100..105u32 {
                b.append(UserId(u), MerchantId(v));
            }
        }
        let third = runner.run(&store.compact(&b), &cfg, 6);
        assert!(!third.new_alerts.is_empty());
        assert!(third.new_alerts.iter().all(|u| !first.flagged.contains(u)));
        assert_eq!(
            runner.alerted_count(),
            first.flagged.len() + third.new_alerts.len()
        );
    }

    #[test]
    fn outcome_carries_epoch_and_timings() {
        let b = IngestBuffer::new();
        ring_and_background(&b);
        let store = SnapshotStore::new(1);
        store.compact(&b);
        b.append(UserId(900), MerchantId(900));
        let snap = store.compact(&b);
        let out = ScanRunner::new().run(&snap, &quick_config(), 6);
        assert_eq!(out.epoch, 2);
        assert_eq!(out.transactions, snap.transactions);
        assert_eq!(out.ensemble.samples.len(), 10);
        let total = out.ensemble.total_sample_time();
        assert!(out.ensemble.elapsed >= out.ensemble.max_sample_time());
        // The stage split is populated and bounded by the sample totals.
        let staged = out.ensemble.stages.sampling + out.ensemble.stages.detection;
        assert!(staged > Duration::ZERO);
        assert!(staged <= total);
    }

    /// The from-scratch oracle: every record ever appended, deduplicated
    /// by the graph builder.
    fn rebuilt(records: &[(u32, u32)]) -> BipartiteGraph {
        let mut builder = GraphBuilder::new();
        builder.extend_edges(records.iter().map(|&(u, v)| (UserId(u), MerchantId(v))));
        builder.build_with(DuplicatePolicy::MergeBinary)
    }

    fn dims_of(g: &BipartiteGraph) -> GraphDims {
        (g.num_users(), g.num_merchants(), g.num_edges())
    }

    /// Compaction (take, binary-search dedup, sorted merge) must publish
    /// the exact graph a from-scratch build of every record appended so
    /// far would, from the first epoch on, and each epoch's delta must
    /// name exactly the edges that epoch added.
    #[test]
    fn incremental_compaction_matches_full_rebuild() {
        let stores: Vec<Vec<Vec<(u32, u32)>>> = vec![
            vec![
                // Epoch 1: a dense ring plus background traffic.
                (0..8u32)
                    .flat_map(|u| (0..5u32).map(move |v| (u, v)))
                    .chain((0..200u32).map(|i| (20 + i % 90, 10 + i % 40)))
                    .collect(),
                (0..50u32).map(|i| (200 + i, i % 9)).collect(),
                // Repeat purchases only — dedup to nothing.
                vec![(0, 0); 30],
                (0..20u32).map(|i| (i, 102 + i % 3)).collect(),
                (0..20u32).map(|i| (i, 103 + i % 3)).collect(),
            ],
            // A first batch of one purchase repeated, then more repeats.
            vec![vec![(4, 2); 5], vec![(4, 2); 3], (0..6u32).map(|i| (i, 2)).collect()],
        ];
        for rounds in &stores {
            let b = IngestBuffer::new();
            let store = SnapshotStore::new(1);
            let mut log: Vec<(u32, u32)> = Vec::new();
            let mut before = rebuilt(&log);
            for (round, records) in rounds.iter().enumerate() {
                b.append_batch(records.iter().map(|&(u, v)| (UserId(u), MerchantId(v))));
                log.extend_from_slice(records);
                let snap = store.compact(&b);
                let full = rebuilt(&log);
                assert_eq!(snap.epoch, round as u64 + 1);
                assert_eq!(snap.graph.edge_pairs(), full.edge_pairs(), "round {round}");
                assert_eq!(snap.dims(), dims_of(&full));
                assert_eq!(snap.transactions, log.len());
                let fresh: Vec<(u32, u32)> = full
                    .edge_pairs()
                    .iter()
                    .copied()
                    .filter(|e| before.edge_pairs().binary_search(e).is_err())
                    .collect();
                let delta = GraphDelta::from_new_edges(
                    snap.epoch - 1,
                    snap.epoch,
                    dims_of(&before),
                    dims_of(&full),
                    &fresh,
                );
                assert_eq!(
                    store.delta_since(snap.epoch - 1, snap.epoch),
                    Some(delta),
                    "round {round}"
                );
                before = full;
            }
        }
    }

    /// Writers appending while a compactor loops lose no record and count
    /// none twice: after a final compaction the snapshot holds every
    /// record once, and epochs only ever grew.
    #[test]
    fn compaction_racing_appends_loses_nothing() {
        const WRITERS: u32 = 4;
        const BATCHES: u32 = 150;
        // Writers share merchants and repeat their own purchases, so
        // batches dedup both within and across compactions.
        let batch = |t: u32, i: u32| -> Vec<(UserId, MerchantId)> {
            (0..8u32)
                .map(|k| (UserId(t * 100 + (i + k) % 97), MerchantId((i * 7 + k) % 41)))
                .collect()
        };
        let b = Arc::new(IngestBuffer::new());
        let store = Arc::new(SnapshotStore::new(1));
        let done = Arc::new(AtomicBool::new(false));
        let compactor = {
            let (b, store, done) = (Arc::clone(&b), Arc::clone(&store), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut last = store.latest();
                while !done.load(Ordering::Acquire) {
                    let snap = store.compact(&b);
                    if !Arc::ptr_eq(&snap, &last) {
                        assert_eq!(snap.epoch, last.epoch + 1);
                        assert!(snap.transactions > last.transactions);
                        last = snap;
                    }
                }
                last
            })
        };
        let writers: Vec<_> = (0..WRITERS)
            .map(|t| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for i in 0..BATCHES {
                        b.append_batch(batch(t, i));
                        // Give the compactor a chance between batches.
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Release);
        let raced = compactor.join().unwrap();

        let last = store.compact(&b);
        assert!(last.epoch >= raced.epoch && last.epoch <= raced.epoch + 1);
        let log: Vec<(u32, u32)> = (0..WRITERS)
            .flat_map(|t| (0..BATCHES).flat_map(move |i| batch(t, i)))
            .map(|(u, v)| (u.0, v.0))
            .collect();
        assert_eq!(b.len(), log.len());
        assert_eq!(last.transactions, b.len());
        assert_eq!(store.lag(&b), 0);
        let full = rebuilt(&log);
        assert_eq!(last.graph.edge_pairs(), full.edge_pairs());
        assert_eq!(last.dims(), dims_of(&full));
    }

    #[test]
    fn compaction_publishes_deltas() {
        let b = IngestBuffer::new();
        let store = SnapshotStore::new(1);
        b.append(UserId(3), MerchantId(1));
        let s1 = store.compact(&b);
        let d1 = store.delta_since(0, 1).expect("epoch 1 has a delta");
        assert_eq!((d1.from_epoch, d1.to_epoch), (0, 1));
        assert_eq!(d1.touched_users, vec![3]);

        // Duplicate-only batch: epoch bumps, graph is shared untouched.
        b.append(UserId(3), MerchantId(1));
        let s2 = store.compact(&b);
        assert_eq!(s2.epoch, 2);
        assert!(Arc::ptr_eq(&s2.graph, &s1.graph));
        assert!(store.delta_since(1, 2).unwrap().graph_unchanged());
        assert_eq!(s2.transactions, 2);

        b.append(UserId(5), MerchantId(2));
        let s3 = store.compact(&b);
        let d3 = store.delta_since(2, 3).unwrap();
        assert_eq!(d3.touched_users, vec![5]);
        assert_eq!(d3.touched_merchants, vec![2]);

        // Composition across the whole span.
        let span = store.delta_since(1, 3).expect("history retained");
        assert_eq!(span.touched_users, vec![5]);
        assert_eq!(span.base_dims, s1.dims());
        assert_eq!(span.new_dims, s3.dims());
        // Uncovered or inverted spans refuse.
        assert!(store.delta_since(3, 1).is_none());
        assert!(store.delta_since(7, 9).is_none());
    }

    #[test]
    fn incremental_run_reuses_and_matches_full() {
        let b = IngestBuffer::new();
        ring_and_background(&b);
        let store = SnapshotStore::new(1);
        let snap1 = store.compact(&b);
        let cfg = quick_config();
        let policy = IncrementalPolicy::default();

        let mut inc_runner = ScanRunner::new();
        let cold = inc_runner.run_incremental(&snap1, &store, &cfg, 6, &policy);
        assert_eq!(cold.reuse.fallback, Some(FallbackReason::ColdCache));
        assert_eq!(cold.reuse.mode(), "full");
        assert_eq!(inc_runner.cached_epoch(), Some(1));

        // Re-scan of the same epoch: everything replays.
        let again = inc_runner.run_incremental(&snap1, &store, &cfg, 6, &policy);
        assert!(again.reuse.incremental);
        assert_eq!(again.reuse.samples_reused, cfg.num_samples);
        assert_eq!(again.flagged, cold.flagged);
        assert_eq!(again.ensemble.votes, cold.ensemble.votes);

        // Grow by a few edges on existing nodes and scan incrementally;
        // a fresh runner's full scan is the oracle.
        for i in 0..6u32 {
            b.append(UserId(20 + i), MerchantId(2));
        }
        let snap2 = store.compact(&b);
        let inc = inc_runner.run_incremental(&snap2, &store, &cfg, 6, &policy);
        let full = ScanRunner::new().run(&snap2, &cfg, 6);
        assert!(inc.reuse.incremental);
        assert_eq!(inc.flagged, full.flagged);
        assert_eq!(inc.ensemble.votes, full.ensemble.votes);
        assert_eq!(
            inc.reuse.samples_reused + inc.reuse.samples_repeeled,
            cfg.num_samples
        );
        assert_eq!(inc.reuse.delta_touched_nodes, 7); // 6 users + 1 merchant
        assert_eq!(inc_runner.cached_epoch(), Some(2));
    }

    #[test]
    fn incremental_run_fallbacks() {
        let b = IngestBuffer::new();
        ring_and_background(&b);
        let store = SnapshotStore::new(1);
        let snap = store.compact(&b);
        let cfg = quick_config();
        let mut runner = ScanRunner::new();
        runner.run_incremental(&snap, &store, &cfg, 6, &IncrementalPolicy::default());

        // Config change invalidates wholesale.
        let mut other = cfg;
        other.seed = 1234;
        let out = runner.run_incremental(&snap, &store, &other, 6, &IncrementalPolicy::default());
        assert_eq!(out.reuse.fallback, Some(FallbackReason::ConfigChanged));
        let oracle = ScanRunner::new().run(&snap, &other, 6);
        assert_eq!(out.flagged, oracle.flagged);

        // A zero-tolerance policy rejects any real delta as oversized.
        b.append(UserId(300), MerchantId(300));
        let snap2 = store.compact(&b);
        let strict = IncrementalPolicy {
            max_touched_fraction: 0.0,
        };
        let out = runner.run_incremental(&snap2, &store, &other, 6, &strict);
        assert_eq!(out.reuse.fallback, Some(FallbackReason::OversizedDelta));
        assert_eq!(
            out.flagged,
            ScanRunner::new().run(&snap2, &other, 6).flagged
        );
    }

    /// Hybrid scoring is computed on the parent snapshot after the
    /// ensemble pass, so (a) an unchanged scoring config keeps the
    /// incremental cache valid and the hybrid output bit-identical to a
    /// full scan's, and (b) any scoring change is a config change and
    /// takes the documented full-scan fallback.
    #[test]
    fn hybrid_scoring_reuses_cache_and_falls_back_on_change() {
        let b = IngestBuffer::new();
        ring_and_background(&b);
        let store = SnapshotStore::new(1);
        let snap1 = store.compact(&b);
        let mut cfg = quick_config();
        cfg.scoring = crate::scoring::ScoringConfig::enabled();
        let policy = IncrementalPolicy::default();

        let mut runner = ScanRunner::new();
        let cold = runner.run_incremental(&snap1, &store, &cfg, 6, &policy);
        assert_eq!(cold.reuse.fallback, Some(FallbackReason::ColdCache));
        assert!(cold.scoring.is_some());

        // Re-scan of the same epoch with the same scoring config: every
        // sample replays, and the hybrid output is still produced.
        let again = runner.run_incremental(&snap1, &store, &cfg, 6, &policy);
        assert_eq!(again.reuse.samples_reused, cfg.num_samples);
        let (a, b_scores) = (
            again.scoring.as_ref().unwrap(),
            cold.scoring.as_ref().unwrap(),
        );
        assert_eq!(a.hybrid, b_scores.hybrid);

        // Grow and rescan with the *same* scoring config: the cache is
        // still trusted and the hybrid output matches a from-scratch scan.
        for i in 0..6u32 {
            b.append(UserId(20 + i), MerchantId(2));
        }
        let snap2 = store.compact(&b);
        let inc = runner.run_incremental(&snap2, &store, &cfg, 6, &policy);
        assert!(inc.reuse.incremental, "unchanged scoring must keep reuse");
        let full = ScanRunner::new().run(&snap2, &cfg, 6);
        let (a, b_scores) = (inc.scoring.unwrap(), full.scoring.unwrap());
        assert_eq!(a.hybrid, b_scores.hybrid);
        assert_eq!(a.hybrid_flagged, b_scores.hybrid_flagged);
        assert_eq!(a.vote, b_scores.vote);
        assert_eq!(a.spectral, b_scores.spectral);
        assert_eq!(a.kcore, b_scores.kcore);

        // Any scoring knob change invalidates the cache wholesale.
        let mut retuned = cfg;
        retuned.scoring.vote_weight = 0.5;
        let out = runner.run_incremental(&snap2, &store, &retuned, 6, &policy);
        assert_eq!(out.reuse.fallback, Some(FallbackReason::ConfigChanged));
        assert!(out.scoring.is_some());

        // Disabling scoring is also a config change, and drops the field.
        let mut plain = cfg;
        plain.scoring = crate::scoring::ScoringConfig::default();
        let out = runner.run_incremental(&snap2, &store, &plain, 6, &policy);
        assert_eq!(out.reuse.fallback, Some(FallbackReason::ConfigChanged));
        assert!(out.scoring.is_none());
    }

    /// [`ring_and_background`] plus users of core number 3 between the
    /// ring's and the background's, so core depths such as 3/5 are not
    /// exact binary fractions.
    fn graded_ring(buffer: &IngestBuffer) {
        ring_and_background(buffer);
        for u in 8..12u32 {
            for v in 0..3u32 {
                buffer.append(UserId(u), MerchantId(v));
            }
        }
    }

    fn scored_config() -> EnsemFdetConfig {
        EnsemFdetConfig {
            scoring: ScoringConfig::enabled(),
            ..quick_config()
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts `out`'s hybrid scores are the bits a fresh runner computes
    /// cold for the same snapshot and config, and returns whether `out`
    /// reused its graph-only components.
    fn matches_cold(out: &ScanOutcome, snap: &Snapshot, cfg: &EnsemFdetConfig) -> bool {
        let cold = ScanRunner::new().run(snap, cfg, 6).scoring.unwrap();
        assert!(!cold.components_reused);
        let got = out.scoring.as_ref().expect("scored scan");
        assert_eq!(bits(&got.spectral), bits(&cold.spectral));
        assert_eq!(bits(&got.kcore), bits(&cold.kcore));
        assert_eq!(bits(&got.hybrid), bits(&cold.hybrid));
        assert_eq!(got.hybrid_flagged, cold.hybrid_flagged);
        let [_, spectral, kcore] = got.component_times;
        if got.components_reused {
            assert_eq!((spectral, kcore), (Duration::ZERO, Duration::ZERO));
        }
        got.components_reused
    }

    #[test]
    fn scored_rescan_reuses_components_on_both_paths() {
        let b = IngestBuffer::new();
        graded_ring(&b);
        let store = SnapshotStore::new(1);
        let snap = store.compact(&b);
        let cfg = scored_config();
        let policy = IncrementalPolicy::default();

        let mut runner = ScanRunner::new();
        assert!(!matches_cold(&runner.run(&snap, &cfg, 6), &snap, &cfg));
        assert!(matches_cold(&runner.run(&snap, &cfg, 6), &snap, &cfg));
        // One cache for both paths: the incremental scans hit too, the
        // cold-cache fallback and the replay alike.
        let out = runner.run_incremental(&snap, &store, &cfg, 6, &policy);
        assert_eq!(out.reuse.fallback, Some(FallbackReason::ColdCache));
        assert!(matches_cold(&out, &snap, &cfg));
        let out = runner.run_incremental(&snap, &store, &cfg, 6, &policy);
        assert!(out.reuse.incremental);
        assert!(matches_cold(&out, &snap, &cfg));

        let mut runner = ScanRunner::new();
        let out = runner.run_incremental(&snap, &store, &cfg, 6, &policy);
        assert!(!matches_cold(&out, &snap, &cfg));
        assert!(matches_cold(&runner.run(&snap, &cfg, 6), &snap, &cfg));
    }

    #[test]
    fn fusion_knobs_reuse_both_components() {
        let b = IngestBuffer::new();
        graded_ring(&b);
        let store = SnapshotStore::new(1);
        let snap = store.compact(&b);
        let mut runner = ScanRunner::new();
        let cfg = scored_config();
        assert!(!matches_cold(&runner.run(&snap, &cfg, 6), &snap, &cfg));
        let retunes: [fn(&mut ScoringConfig); 5] = [
            |s| s.vote_weight = 0.2,
            |s| (s.vote_floor, s.spectral_floor, s.kcore_floor) = (0.3, 0.2, 0.1),
            |s| s.normalization = crate::scoring::ScoreNormalization::Rank,
            |s| s.hybrid_threshold = 0.6,
            |s| s.kcore_weight = 0.0,
        ];
        for retune in retunes {
            let mut other = cfg;
            retune(&mut other.scoring);
            let out =
                runner.run_incremental(&snap, &store, &other, 6, &IncrementalPolicy::default());
            assert!(matches_cold(&out, &snap, &other), "{:?}", other.scoring);
        }
    }

    #[test]
    fn spectral_knobs_recompute_spectral_and_reuse_kcore() {
        let b = IngestBuffer::new();
        graded_ring(&b);
        let store = SnapshotStore::new(1);
        let snap = store.compact(&b);
        let mut runner = ScanRunner::new();
        let cfg = scored_config();
        runner.run(&snap, &cfg, 6);
        let rekeys: [fn(&mut ScoringConfig); 2] =
            [|s| s.spectral_components = 3, |s| s.spectral_seed = 77];
        for rekey in rekeys {
            let mut other = cfg;
            rekey(&mut other.scoring);
            let out = runner.run(&snap, &other, 6);
            assert!(!matches_cold(&out, &snap, &other));
            let [_, spectral, kcore] = out.scoring.as_ref().unwrap().component_times;
            assert!(spectral > Duration::ZERO, "spectral part recomputed");
            assert_eq!(kcore, Duration::ZERO, "k-core reused");
            // The new key is the cached one now.
            assert!(matches_cold(&runner.run(&snap, &other, 6), &snap, &other));
        }
    }

    #[test]
    fn duplicate_only_compaction_reuses_components() {
        let b = IngestBuffer::new();
        graded_ring(&b);
        let store = SnapshotStore::new(1);
        let snap1 = store.compact(&b);
        let cfg = scored_config();
        let mut runner = ScanRunner::new();
        runner.run(&snap1, &cfg, 6);
        b.append(UserId(0), MerchantId(0));
        let snap2 = store.compact(&b);
        assert_eq!(snap2.epoch, snap1.epoch + 1);
        assert!(Arc::ptr_eq(&snap1.graph, &snap2.graph));
        assert!(matches_cold(&runner.run(&snap2, &cfg, 6), &snap2, &cfg));
        // A compaction that adds an edge makes a new graph: a miss.
        b.append(UserId(0), MerchantId(9));
        let snap3 = store.compact(&b);
        assert!(!matches_cold(&runner.run(&snap3, &cfg, 6), &snap3, &cfg));
    }

    #[test]
    fn same_epoch_and_dims_from_another_store_misses() {
        let b = IngestBuffer::new();
        ring_and_background(&b);
        let store = SnapshotStore::new(1);
        let snap = store.compact(&b);
        // The same background with the ring moved to other merchants:
        // equal epoch and dims, a different graph.
        let other_buffer = IngestBuffer::new();
        for u in 0..8u32 {
            for v in 5..10u32 {
                other_buffer.append(UserId(u), MerchantId(v));
            }
        }
        for i in 0..200u32 {
            other_buffer.append(UserId(20 + i % 90), MerchantId(10 + i % 40));
        }
        let other = SnapshotStore::new(1).compact(&other_buffer);
        assert_eq!((other.epoch, other.dims()), (snap.epoch, snap.dims()));
        assert_ne!(other.graph.edge_pairs(), snap.graph.edge_pairs());

        let cfg = scored_config();
        let mut runner = ScanRunner::new();
        runner.run(&snap, &cfg, 6);
        assert!(!matches_cold(&runner.run(&other, &cfg, 6), &other, &cfg));
        assert!(!matches_cold(&runner.run(&snap, &cfg, 6), &snap, &cfg));
    }

    #[test]
    fn cached_components_hold_no_strong_reference_to_the_graph() {
        let b = IngestBuffer::new();
        graded_ring(&b);
        let store = SnapshotStore::new(1);
        let snap = store.compact(&b);
        let strong = Arc::strong_count(&snap.graph);
        let cfg = scored_config();
        let mut runner = ScanRunner::new();
        runner.run(&snap, &cfg, 6);
        runner.run_incremental(&snap, &store, &cfg, 6, &IncrementalPolicy::default());
        assert!(runner.components.is_some());
        assert_eq!(Arc::strong_count(&snap.graph), strong);
        let graph = Arc::downgrade(&snap.graph);
        drop(snap);
        drop(store);
        assert!(graph.upgrade().is_none());
        let entry = runner.components.as_ref().expect("entry kept");
        assert!(entry.graph.upgrade().is_none());
    }

    #[test]
    fn poisoned_shard_recovers() {
        let b = Arc::new(IngestBuffer::new());
        let poisoner = Arc::clone(&b);
        // A batch whose iterator panics does so holding the log's mutex,
        // which poisons it.
        let _ = std::thread::spawn(move || {
            poisoner.append_batch(std::iter::from_fn(|| -> Option<(UserId, MerchantId)> {
                panic!("poison the log")
            }));
        })
        .join();
        assert!(b.pending.is_poisoned());
        // Appends, reads and compaction still work.
        b.append(UserId(1), MerchantId(1));
        assert_eq!(b.len(), 1);
        let snap = SnapshotStore::new(1).compact(&b);
        assert_eq!((snap.transactions, snap.graph.num_edges()), (1, 1));
    }
}
