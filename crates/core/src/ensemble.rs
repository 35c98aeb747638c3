//! ENSEMFDET (Algorithm 2): sample → FDET in parallel → vote.
//!
//! The `N` sampled runs are independent, so they drain perfectly off a
//! shared work list — this is the parallelism behind the paper's
//! `Time(EnsemFDet) < S × Time(Fraudar)` claim. The ensemble runs on an
//! explicit worker pool ([`EnsemFdet::with_workers`]): `W` scoped threads,
//! each owning its own thread-local [`FdetEngine`] and
//! [`SamplerScratch`], claim sample indices from an atomic cursor until
//! the list is dry. Per-sample seeds are derived deterministically from
//! the master seed and results are gathered by sample index, so the
//! outcome is identical regardless of worker count or scheduling.
//!
//! Full and incremental scans share that one loop, `EnsemFdet::pass`:
//! given a delta and the previous scan's per-sample contributions, it
//! replays each sample the delta provably left clean instead of running
//! it (see [`crate::incremental`]), and aggregation tallies replayed and
//! fresh contributions alike. [`EnsemFdet::detect`] is the pass with
//! nothing to replay.

use crate::aggregate::VoteTally;
use crate::engine::{Engine, FdetEngine};
use crate::evidence::EvidenceTally;
use crate::fdet::{FdetResult, Truncation};
use crate::incremental::{SampleContribution, ScanCache};
use crate::metric::MetricKind;
use ensemfdet_graph::{
    BipartiteGraph, GraphDelta, MerchantId, SampleMaps, SampleSpec, SampledGraph, UserId,
};
use ensemfdet_sampling::{seed, spec_unaffected, Sampler, SamplerScratch, SamplingMethod};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use std::time::Instant;

/// Configuration of an ENSEMFDET run (the parameters of Table II).
///
/// `PartialEq` compares every field (including the seed): two configs are
/// equal iff they produce bit-identical scans of the same snapshot, which
/// is exactly the question the incremental scan cache asks before
/// trusting its entries.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EnsemFdetConfig {
    /// `N` — number of sampled graphs.
    pub num_samples: usize,
    /// `S` — sample ratio in `(0, 1]`.
    pub sample_ratio: f64,
    /// `M` — the structural sampling method.
    pub method: SamplingMethodConfig,
    /// Density metric `φ` (Definition 2 by default).
    pub metric: MetricKind,
    /// Block truncation strategy (Definition 3 by default).
    pub truncation: Truncation,
    /// Peeling engine backing every FDET run: the bucket-queue peel by
    /// default; the naive reference path produces identical results,
    /// slower, and exists for the equivalence gates.
    pub engine: Engine,
    /// Sampling data path: resolve sample specs lazily against the shared
    /// parent snapshot (`Mask`, default) or materialize each sample as a
    /// compacted graph copy (`Materialize`, the reference the equivalence
    /// gates compare against). Both yield bit-identical votes, evidence,
    /// and scores.
    #[serde(default)]
    pub path: SamplePath,
    /// Master RNG seed.
    pub seed: u64,
    /// Hybrid scoring: fuse the vote fraction with spectral and k-core
    /// components computed once on the parent graph (off by default —
    /// see [`crate::scoring`]). Lives inside the config, and hence
    /// inside the incremental cache's equality key, because it changes
    /// what a scan reports: any scoring change between epochs triggers
    /// the `config_changed` full-scan fallback.
    #[serde(default)]
    pub scoring: crate::scoring::ScoringConfig,
}

/// How each sampled run gets its subgraph.
///
/// `Mask` is the zero-copy path: the sampler emits a
/// [`ensemfdet_graph::SampleSpec`] into per-thread scratch and the engine
/// compacts it straight into its reusable `CsrView` — per-sample
/// allocation is O(sample), not O(parent + sample). `Materialize` builds
/// the compacted [`SampledGraph`] copy first (the original data path) and
/// remains as the reference for equivalence gates; it is also what the
/// naive engine runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SamplePath {
    /// Materialize each sample as a compacted `BipartiteGraph` copy.
    Materialize,
    /// Resolve sample specs lazily against the shared parent snapshot.
    #[default]
    Mask,
}

/// Serializable mirror of [`SamplingMethod`] (the sampling crate keeps its
/// enum serde-free).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SamplingMethodConfig {
    /// Random Edge Sampling.
    RandomEdge,
    /// One-side sampling of the user/PIN side.
    OneSideUser,
    /// One-side sampling of the merchant side.
    OneSideMerchant,
    /// Two-sides node sampling.
    TwoSide,
}

impl From<SamplingMethodConfig> for SamplingMethod {
    fn from(c: SamplingMethodConfig) -> Self {
        match c {
            SamplingMethodConfig::RandomEdge => SamplingMethod::RandomEdge,
            SamplingMethodConfig::OneSideUser => SamplingMethod::OneSideUser,
            SamplingMethodConfig::OneSideMerchant => SamplingMethod::OneSideMerchant,
            SamplingMethodConfig::TwoSide => SamplingMethod::TwoSide,
        }
    }
}

impl Default for EnsemFdetConfig {
    /// The paper's headline configuration: RES, `S = 0.1`, `N = 80`,
    /// log-weighted metric, auto-truncation.
    fn default() -> Self {
        EnsemFdetConfig {
            num_samples: 80,
            sample_ratio: 0.1,
            method: SamplingMethodConfig::RandomEdge,
            metric: MetricKind::default(),
            truncation: Truncation::default(),
            engine: Engine::default(),
            path: SamplePath::default(),
            seed: 0x0001_15ED,
            scoring: crate::scoring::ScoringConfig::default(),
        }
    }
}

/// Per-sample diagnostics.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SampleSummary {
    /// Index of the sample (0-based).
    pub index: usize,
    /// Nodes in the sampled graph.
    pub sample_nodes: usize,
    /// Edges in the sampled graph.
    pub sample_edges: usize,
    /// Blocks peeled before truncation.
    pub blocks_peeled: usize,
    /// `k̂` for this sample.
    pub k_hat: usize,
    /// Per-block scores (the Figure 1 curve of this sample).
    pub scores: Vec<f64>,
    /// Users detected in this sample.
    pub detected_users: usize,
    /// Merchants detected in this sample.
    pub detected_merchants: usize,
    /// Wall-clock spent sampling + detecting this sample.
    pub elapsed: Duration,
    /// Wall-clock of the sampling stage alone. On the materializing path
    /// this includes compacting the subgraph copy; on the mask path it is
    /// just the draw (compaction happens inside the detection stage,
    /// fused into the engine's view build).
    pub sampling_elapsed: Duration,
    /// Wall-clock of the FDET stage alone (peeling the sampled graph).
    pub detect_elapsed: Duration,
    /// Approximate bytes this sample's subgraph representation cost: the
    /// compacted-copy footprint on the materializing path (intern maps
    /// are O(parent)!), or just the selection vectors on the mask path.
    #[serde(default)]
    pub sample_bytes: u64,
}

/// Wall-clock of one ensemble run split by pipeline stage (summed across
/// samples for the per-sample stages, so on a parallel machine the stage
/// sums exceed [`EnsembleOutcome::elapsed`]).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct StageTimings {
    /// Total time drawing and compacting the `N` sampled subgraphs.
    pub sampling: Duration,
    /// Total time running FDET over the `N` samples.
    pub detection: Duration,
    /// Time merging per-sample votes/evidence into the final tallies.
    pub aggregation: Duration,
}

/// The full outcome of one ensemble run.
#[derive(Clone, Debug)]
pub struct EnsembleOutcome {
    /// Vote counts per parent-graph node; threshold with
    /// [`VoteTally::detected_users`] or sweep with
    /// [`VoteTally::user_detection_curve`].
    pub votes: VoteTally,
    /// Block-score-weighted evidence per node (the continuous alternative
    /// aggregation of Section IV-C's flexibility remark).
    pub evidence: EvidenceTally,
    /// Per-sample diagnostics, in sample order.
    pub samples: Vec<SampleSummary>,
    /// Total wall-clock of the run.
    pub elapsed: Duration,
    /// Per-stage wall-clock breakdown (sampling / detection / aggregation).
    pub stages: StageTimings,
    /// Worker threads the sample pool actually ran with (after clamping
    /// to the sample count).
    pub workers: usize,
    /// Per-worker busy time for this pass — the wall-clock each pool
    /// worker spent draining samples, one entry per worker. Never affects
    /// results; pure diagnostics.
    pub worker_times: Vec<Duration>,
}

impl EnsembleOutcome {
    /// Sum of per-sample wall-clock — what a fully parallel machine
    /// overlaps; `sum / elapsed` is the realized speedup, `sum / max` the
    /// ideal one.
    pub fn total_sample_time(&self) -> Duration {
        self.samples.iter().map(|s| s.elapsed).sum()
    }

    /// The slowest sample — the critical path under perfect parallelism.
    pub fn max_sample_time(&self) -> Duration {
        self.samples
            .iter()
            .map(|s| s.elapsed)
            .max()
            .unwrap_or_default()
    }

    /// Total bytes spent on per-sample subgraph representations across
    /// the run (see [`SampleSummary::sample_bytes`]).
    pub fn sample_bytes(&self) -> u64 {
        self.samples.iter().map(|s| s.sample_bytes).sum()
    }
}

/// The ENSEMFDET detector.
#[derive(Clone, Debug)]
pub struct EnsemFdet {
    config: EnsemFdetConfig,
    /// Worker threads for the sample pool; `0` = one per available core.
    /// Deliberately *outside* [`EnsemFdetConfig`]: the config's equality
    /// is the "bit-identical scans" contract the incremental cache keys
    /// on, and the worker count never changes results — only wall-clock.
    workers: usize,
}

/// Resolves a configured worker count: `0` means one worker per available
/// core, anything else is taken literally.
pub fn effective_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1)
    } else {
        workers
    }
}

/// Runs `f` over `0..n` on a pool of `workers` scoped threads draining an
/// atomic cursor, gathering results in index order. Each spawned thread
/// carries its own thread-local engine/scratch set, so per-worker state
/// never crosses threads. A single worker (or a single item) runs inline
/// on the calling thread — no spawn, same results.
///
/// Returns the results and each worker's busy time (the pool's
/// parallelism diagnostics).
fn drain_pool<T, F>(n: usize, workers: usize, f: F) -> (Vec<T>, Vec<Duration>)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 {
        let t0 = Instant::now();
        let out: Vec<T> = (0..n).map(&f).collect();
        return (out, vec![t0.elapsed()]);
    }

    let cursor = AtomicUsize::new(0);
    let f = &f;
    let cursor = &cursor;
    let per_worker: Vec<(Vec<(usize, T)>, Duration)> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                sc.spawn(move || {
                    let t0 = Instant::now();
                    let mut claimed = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        claimed.push((i, f(i)));
                    }
                    (claimed, t0.elapsed())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ensemble pool worker panicked"))
            .collect()
    });

    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let mut times = Vec::with_capacity(workers);
    for (claimed, busy) in per_worker {
        times.push(busy);
        for (i, v) in claimed {
            slots[i] = Some(v);
        }
    }
    let out = slots
        .into_iter()
        .map(|s| s.expect("every sample index claimed exactly once"))
        .collect();
    (out, times)
}

thread_local! {
    /// Per-thread sampling scratch for the mask path: the Floyd mark
    /// buffer, the spec being refilled, and the local↔parent id maps are
    /// all reused across every sample this thread draws, so steady-state
    /// sampling allocates nothing.
    static SAMPLE_SCRATCH: std::cell::RefCell<(SamplerScratch, SampleSpec, SampleMaps)> =
        std::cell::RefCell::new((SamplerScratch::new(), SampleSpec::new(), SampleMaps::default()));
}

/// Approximate allocation footprint of one materialized sample: the two
/// parent-sized intern maps plus the compacted graph copy (edge list,
/// optional weights, both CSR sides) and its back-maps. An accounting
/// estimate for telemetry — the point is the O(parent) intern-map term
/// the mask path eliminates — not an allocator measurement.
fn materialized_bytes(parent: &BipartiteGraph, sampled: &SampledGraph) -> u64 {
    let k = sampled.graph.num_edges();
    let su = sampled.graph.num_users();
    let sv = sampled.graph.num_merchants();
    let intern_maps = (parent.num_users() + parent.num_merchants()) * 4;
    let edge_pairs = k * 8;
    let weights = if sampled.graph.is_weighted() { k * 8 } else { 0 };
    let csr_sides = (su + 1) * 8 + (sv + 1) * 8 + 2 * k * 4;
    let back_maps = (su + sv) * 4;
    (intern_maps + edge_pairs + weights + csr_sides + back_maps) as u64
}

impl EnsemFdet {
    /// Builds a detector from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `num_samples == 0` or `sample_ratio ∉ (0, 1]`.
    pub fn new(config: EnsemFdetConfig) -> Self {
        Self::with_workers(config, 0)
    }

    /// [`new`](Self::new) with an explicit worker-pool size (`0` = one
    /// worker per available core). Worker count is a throughput knob
    /// only — any two counts produce bit-identical outcomes.
    ///
    /// # Panics
    ///
    /// Panics if `num_samples == 0` or `sample_ratio ∉ (0, 1]`.
    pub fn with_workers(config: EnsemFdetConfig, workers: usize) -> Self {
        assert!(config.num_samples > 0, "N must be at least 1");
        assert!(
            config.sample_ratio > 0.0 && config.sample_ratio <= 1.0,
            "S must be in (0, 1], got {}",
            config.sample_ratio
        );
        EnsemFdet { config, workers }
    }

    /// The active configuration.
    pub fn config(&self) -> &EnsemFdetConfig {
        &self.config
    }

    /// Runs Algorithm 2 on `g`: sample `N` subgraphs, run FDET on each in
    /// parallel, and tally votes in the parent id space.
    ///
    /// With [`SamplePath::Mask`] (the default) and the bucket engine,
    /// every sample is a lightweight spec
    /// resolved against `g` through per-thread scratch — no subgraph
    /// copies. The materializing path runs otherwise (including under the
    /// naive engine, which peels a real `BipartiteGraph` by definition);
    /// both produce bit-identical votes, evidence, and scores.
    pub fn detect(&self, g: &BipartiteGraph) -> EnsembleOutcome {
        self.pass(g, None).0
    }

    /// One ensemble pass over `g`, the one sample loop behind both full
    /// and incremental scans.
    ///
    /// With `reuse = Some((delta, cache))`, each sample index first redraws
    /// its spec (an O(selection) Floyd fill — the draw is a pure function
    /// of `(population, ratio, seed)`, so with populations unchanged it
    /// *is* the cached draw) and checks it against `delta` with
    /// [`spec_unaffected`]. A clean sample replays its cached parent-space
    /// contribution; every other sample runs the sample → peel path.
    /// Aggregation re-tallies every contribution in index order into fresh
    /// dimension-sized tallies, so the outcome is bit-identical to
    /// [`detect`](Self::detect) on the same `(graph, config)` — only
    /// wall-clock differs.
    ///
    /// Returns the outcome, the per-sample contributions (the next
    /// epoch's cache entries) and how many samples ran rather than
    /// replayed. [`StageTimings`] and the outcome's `elapsed` measure this
    /// pass's actual work; a replayed [`SampleSummary`]'s own timing
    /// fields still describe the run that produced it.
    ///
    /// # Panics
    ///
    /// Panics if `cache` was recorded under a different configuration or
    /// sample count — [`ScanRunner`] gates on [`ScanCache::config`] first.
    ///
    /// [`ScanRunner`]: crate::pipeline::ScanRunner
    pub(crate) fn pass(
        &self,
        g: &BipartiteGraph,
        reuse: Option<(&GraphDelta, &ScanCache)>,
    ) -> (EnsembleOutcome, Vec<Arc<SampleContribution>>, usize) {
        if let Some((_, cache)) = reuse {
            assert_eq!(
                cache.config, self.config,
                "scan cache recorded under a different config"
            );
            assert_eq!(cache.entries.len(), self.config.num_samples);
        }
        let start = Instant::now();
        let cfg = &self.config;
        let method: SamplingMethod = cfg.method.into();

        let (per_sample, worker_times): (Vec<(Arc<SampleContribution>, bool)>, Vec<Duration>) =
            drain_pool(cfg.num_samples, effective_workers(self.workers), |i| {
                let cached = reuse.filter(|(delta, _)| {
                    SAMPLE_SCRATCH.with(|cell| {
                        let (scratch, spec, _maps) = &mut *cell.borrow_mut();
                        let sample_seed = seed::derive(cfg.seed, i as u64);
                        method.sample_spec(g, cfg.sample_ratio, sample_seed, scratch, spec);
                        spec_unaffected(spec, delta)
                    })
                });
                match cached {
                    Some((_, cache)) => (Arc::clone(&cache.entries[i]), false),
                    None => (Arc::new(self.run_sample(g, method, i)), true),
                }
            });

        let (entries, fresh): (Vec<_>, Vec<bool>) = per_sample.into_iter().unzip();
        let outcome = self.aggregate(g, &entries, &fresh, start, worker_times);
        let ran = fresh.iter().filter(|&&f| f).count();
        (outcome, entries, ran)
    }

    /// One sampled run by the configured path (see
    /// [`detect`](Self::detect) for the mask/materialize split).
    ///
    /// The naive engine deliberately ignores [`SamplePath::Mask`] and
    /// always materializes. It is the equivalence-only oracle: its value
    /// is being a direct, independent transcription of the paper's FDET
    /// over a plain [`BipartiteGraph`], sharing *no* machinery with the
    /// optimized path. Threading `SamplePath` through it would mean
    /// teaching it the `CsrView`/`SpecResolver` mask infrastructure — the
    /// very code it exists to cross-check — so any resolver bug would
    /// cancel out of the equivalence gates instead of tripping them. The
    /// gates in `tests/tests/spec_equivalence.rs` close the loop from the
    /// other side (mask path ≡ materialized path under the bucket engine),
    /// so every pairing is still covered: naive ≡ materialized ≡ mask.
    fn run_sample(&self, g: &BipartiteGraph, method: SamplingMethod, i: usize) -> SampleContribution {
        let use_mask = self.config.path == SamplePath::Mask && self.config.engine != Engine::Naive;
        if use_mask {
            self.run_sample_mask(g, method, i)
        } else {
            self.run_sample_materialized(g, method, i)
        }
    }

    /// Tallies contributions in sample-index order into fresh
    /// dimension-sized tallies. Vote counts are order-independent and each
    /// node receives at most one evidence addend per sample (blocks are
    /// node-disjoint), so full and incremental scans — which differ only
    /// in *where* a contribution came from — aggregate bit-identically.
    ///
    /// `fresh[i]` says whether sample `i` ran in this pass rather than
    /// replayed; stage timings sum over those only. `worker_times` is the
    /// pool's per-worker busy time, passed straight through to the
    /// outcome.
    fn aggregate(
        &self,
        g: &BipartiteGraph,
        entries: &[Arc<SampleContribution>],
        fresh: &[bool],
        start: Instant,
        worker_times: Vec<Duration>,
    ) -> EnsembleOutcome {
        let t_agg = Instant::now();
        let mut votes = VoteTally::new(g.num_users(), g.num_merchants());
        let mut evidence = EvidenceTally::new(g.num_users(), g.num_merchants());
        let mut samples = Vec::with_capacity(entries.len());
        let mut stages = StageTimings::default();
        for (c, &ran) in entries.iter().zip(fresh) {
            votes.add_sample(c.users.iter().copied(), c.merchants.iter().copied());
            evidence.add_sample(
                c.user_evidence.iter().copied(),
                c.merchant_evidence.iter().copied(),
            );
            if ran {
                stages.sampling += c.summary.sampling_elapsed;
                stages.detection += c.summary.detect_elapsed;
            }
            samples.push(c.summary.clone());
        }
        stages.aggregation = t_agg.elapsed();

        EnsembleOutcome {
            votes,
            evidence,
            samples,
            elapsed: start.elapsed(),
            stages,
            workers: worker_times.len(),
            worker_times,
        }
    }

    /// One sampled run on the materializing path: draw → compact a
    /// `SampledGraph` copy → peel it with the configured engine.
    fn run_sample_materialized(
        &self,
        g: &BipartiteGraph,
        method: SamplingMethod,
        i: usize,
    ) -> SampleContribution {
        let cfg = &self.config;
        let t0 = Instant::now();
        let sample_seed = seed::derive(cfg.seed, i as u64);
        let sampled = method.sample(g, cfg.sample_ratio, sample_seed);
        let sampling_elapsed = t0.elapsed();
        let t1 = Instant::now();
        // The cached per-thread engine reuses the CSR view and
        // peel scratch across every sample this thread processes.
        let result = FdetEngine::run_cached(&sampled.graph, &cfg.metric, cfg.truncation, cfg.engine);
        let detect_elapsed = t1.elapsed();
        contribution(
            &result,
            &sampled.orig_users,
            &sampled.orig_merchants,
            t0,
            SampleSummary {
                index: i,
                sample_nodes: sampled.graph.num_nodes(),
                sample_edges: sampled.graph.num_edges(),
                sampling_elapsed,
                detect_elapsed,
                sample_bytes: materialized_bytes(g, &sampled),
                ..Default::default()
            },
        )
    }

    /// One sampled run on the mask path: draw a spec into per-thread
    /// scratch and peel it straight off the shared parent snapshot. No
    /// subgraph copy exists at any point; `maps` carries the local↔parent
    /// ids for voting.
    fn run_sample_mask(
        &self,
        g: &BipartiteGraph,
        method: SamplingMethod,
        i: usize,
    ) -> SampleContribution {
        let cfg = &self.config;
        SAMPLE_SCRATCH.with(|cell| {
            let (scratch, spec, maps) = &mut *cell.borrow_mut();
            let t0 = Instant::now();
            let sample_seed = seed::derive(cfg.seed, i as u64);
            method.sample_spec(g, cfg.sample_ratio, sample_seed, scratch, spec);
            let sampling_elapsed = t0.elapsed();
            let t1 = Instant::now();
            let (result, sample_edges) =
                FdetEngine::run_spec_cached(g, spec, &cfg.metric, cfg.truncation, cfg.engine, maps);
            let detect_elapsed = t1.elapsed();
            contribution(
                &result,
                &maps.orig_users,
                &maps.orig_merchants,
                t0,
                SampleSummary {
                    index: i,
                    sample_nodes: maps.num_users() + maps.num_merchants(),
                    sample_edges,
                    sampling_elapsed,
                    detect_elapsed,
                    sample_bytes: spec.selection_bytes(),
                    ..Default::default()
                },
            )
        })
    }
}

/// Maps one sample's FDET result into parent id space through its
/// local→parent id maps (`orig_users[local] = parent user`): the detected
/// nodes for the vote tally, the `(node, block score)` pairs for the
/// evidence tally, and the result half of `summary`. Both sample paths
/// end here, so they differ only in how they draw and peel.
///
/// `summary` carries the path's own fields (index, sizes, stage times);
/// its `elapsed` is measured from `started` once the votes are mapped.
fn contribution(
    result: &FdetResult,
    orig_users: &[u32],
    orig_merchants: &[u32],
    started: Instant,
    summary: SampleSummary,
) -> SampleContribution {
    let user = |lu: UserId| UserId(orig_users[lu.index()]);
    let merchant = |lv: MerchantId| MerchantId(orig_merchants[lv.index()]);
    let users: Vec<_> = result.detected_users().into_iter().map(user).collect();
    let merchants: Vec<_> = result
        .detected_merchants()
        .into_iter()
        .map(merchant)
        .collect();
    let summary = SampleSummary {
        blocks_peeled: result.blocks.len(),
        k_hat: result.k_hat,
        scores: result.scores.clone(),
        detected_users: users.len(),
        detected_merchants: merchants.len(),
        elapsed: started.elapsed(),
        ..summary
    };
    // Evidence: each detected node carries its block's score. FDET blocks
    // are node-disjoint, so a node appears at most once per sample.
    let blocks = result.detected_blocks();
    let user_evidence = blocks
        .iter()
        .flat_map(|b| b.users.iter().map(move |&lu| (user(lu), b.score)))
        .collect();
    let merchant_evidence = blocks
        .iter()
        .flat_map(|b| b.merchants.iter().map(move |&lv| (merchant(lv), b.score)))
        .collect();
    SampleContribution {
        users,
        merchants,
        user_evidence,
        merchant_evidence,
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemfdet_graph::{GraphBuilder, MerchantId, UserId};

    /// Dense planted block + sparse background.
    fn planted(nu_fraud: u32, nv_fraud: u32, nu_honest: u32) -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        for u in 0..nu_fraud {
            for v in 0..nv_fraud {
                b.add_edge(UserId(u), MerchantId(v));
            }
        }
        for u in nu_fraud..(nu_fraud + nu_honest) {
            b.add_edge(UserId(u), MerchantId(nv_fraud + u % 23));
            b.add_edge(UserId(u), MerchantId(nv_fraud + (u * 7) % 23));
        }
        b.build()
    }

    /// A full pass, with its contributions kept as the cache a scan
    /// runner would hold for the snapshot published at `epoch`.
    fn primed(det: &EnsemFdet, g: &BipartiteGraph, epoch: u64) -> (EnsembleOutcome, ScanCache) {
        let (outcome, entries, _) = det.pass(g, None);
        let cache = ScanCache {
            base_epoch: epoch,
            base_dims: (g.num_users(), g.num_merchants(), g.num_edges()),
            config: *det.config(),
            entries,
        };
        (outcome, cache)
    }

    fn quick_config(n: usize, s: f64) -> EnsemFdetConfig {
        EnsemFdetConfig {
            num_samples: n,
            sample_ratio: s,
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn detects_planted_fraud_users() {
        let g = planted(10, 4, 100);
        let det = EnsemFdet::new(quick_config(12, 0.4));
        let out = det.detect(&g);
        // Fraud users should out-vote honest ones decisively.
        let frauds = out.votes.detected_users(6);
        assert!(!frauds.is_empty());
        assert!(
            frauds.iter().all(|u| u.0 < 10),
            "false positives at high T: {frauds:?}"
        );
        // At T=1 recall of the block should be near-total.
        let loose = out.votes.detected_users(1);
        let fraud_hits = loose.iter().filter(|u| u.0 < 10).count();
        assert!(fraud_hits >= 9, "only {fraud_hits}/10 fraud users seen");
    }

    #[test]
    fn deterministic_across_runs() {
        let g = planted(8, 3, 60);
        let det = EnsemFdet::new(quick_config(8, 0.3));
        let a = det.detect(&g);
        let b = det.detect(&g);
        assert_eq!(a.votes, b.votes);
    }

    #[test]
    fn seed_changes_votes() {
        let g = planted(8, 3, 60);
        let mut c1 = quick_config(6, 0.3);
        c1.seed = 1;
        let mut c2 = c1;
        c2.seed = 2;
        let a = EnsemFdet::new(c1).detect(&g);
        let b = EnsemFdet::new(c2).detect(&g);
        assert_ne!(a.votes.user_votes, b.votes.user_votes);
    }

    #[test]
    fn sample_summaries_are_complete() {
        let g = planted(8, 3, 40);
        let out = EnsemFdet::new(quick_config(5, 0.5)).detect(&g);
        assert_eq!(out.samples.len(), 5);
        for (i, s) in out.samples.iter().enumerate() {
            assert_eq!(s.index, i);
            assert!(s.sample_edges > 0);
            assert!(s.k_hat <= s.blocks_peeled);
            assert_eq!(s.scores.len(), s.blocks_peeled);
        }
        assert_eq!(out.votes.num_samples, 5);
        assert!(out.total_sample_time() >= out.max_sample_time());
    }

    #[test]
    fn full_ratio_single_sample_equals_plain_fdet() {
        let g = planted(8, 3, 40);
        let cfg = EnsemFdetConfig {
            num_samples: 1,
            sample_ratio: 1.0,
            seed: 3,
            ..Default::default()
        };
        let out = EnsemFdet::new(cfg).detect(&g);
        let direct = crate::fdet::fdet(&g, &MetricKind::default(), Truncation::default());
        let ensemble_users = out.votes.detected_users(1);
        assert_eq!(ensemble_users, direct.detected_users());
    }

    #[test]
    #[should_panic(expected = "N must be at least 1")]
    fn zero_samples_rejected() {
        EnsemFdet::new(EnsemFdetConfig {
            num_samples: 0,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "S must be in (0, 1]")]
    fn invalid_ratio_rejected() {
        EnsemFdet::new(EnsemFdetConfig {
            sample_ratio: 1.5,
            ..Default::default()
        });
    }

    #[test]
    fn evidence_tracks_votes() {
        let g = planted(10, 4, 100);
        let out = EnsemFdet::new(quick_config(12, 0.4)).detect(&g);
        assert_eq!(out.evidence.num_samples, 12);
        // A node with votes has evidence and vice versa.
        for (u, &v) in out.votes.user_votes.iter().enumerate() {
            let e = out.evidence.user_evidence[u];
            assert_eq!(v > 0, e > 0.0, "user {u}: votes {v}, evidence {e}");
        }
        // Evidence separates the planted block at least as well as votes:
        // its fraud-user mean exceeds the honest mean by a wide margin.
        let fraud_mean: f64 =
            out.evidence.user_evidence[..10].iter().sum::<f64>() / 10.0;
        let honest_mean: f64 =
            out.evidence.user_evidence[10..].iter().sum::<f64>() / 100.0;
        assert!(fraud_mean > 3.0 * honest_mean);
    }

    #[test]
    fn works_on_edgeless_graph() {
        let g = BipartiteGraph::from_edges(5, 5, vec![]).unwrap();
        let out = EnsemFdet::new(quick_config(3, 0.5)).detect(&g);
        assert_eq!(out.votes.max_user_votes(), 0);
    }

    /// The mask path must be observationally identical to the reference
    /// materializing path: same votes, evidence, and per-sample blocks,
    /// scores, and node/edge counts for every sampling method.
    #[test]
    fn mask_path_matches_materialized_path() {
        let g = planted(10, 4, 80);
        for method in [
            SamplingMethodConfig::RandomEdge,
            SamplingMethodConfig::OneSideUser,
            SamplingMethodConfig::OneSideMerchant,
            SamplingMethodConfig::TwoSide,
        ] {
            let mut cfg = quick_config(8, 0.4);
            cfg.method = method;
            cfg.path = SamplePath::Mask;
            let mask = EnsemFdet::new(cfg).detect(&g);
            cfg.path = SamplePath::Materialize;
            let mat = EnsemFdet::new(cfg).detect(&g);

            assert_eq!(mask.votes, mat.votes, "{method:?}");
            assert_eq!(
                mask.evidence.user_evidence, mat.evidence.user_evidence,
                "{method:?}"
            );
            for (a, b) in mask.samples.iter().zip(&mat.samples) {
                assert_eq!(a.index, b.index);
                assert_eq!(a.sample_nodes, b.sample_nodes, "{method:?} #{}", a.index);
                assert_eq!(a.sample_edges, b.sample_edges, "{method:?} #{}", a.index);
                assert_eq!(a.blocks_peeled, b.blocks_peeled, "{method:?} #{}", a.index);
                assert_eq!(a.k_hat, b.k_hat, "{method:?} #{}", a.index);
                assert_eq!(a.scores, b.scores, "{method:?} #{}", a.index);
            }
        }
    }

    /// The naive engine has no CSR view to mask over, so a mask-path
    /// config silently falls back to materializing — results still match
    /// the bucket engine exactly.
    #[test]
    fn naive_engine_falls_back_to_materializing() {
        let g = planted(8, 3, 60);
        let mut cfg = quick_config(6, 0.4);
        cfg.engine = Engine::Naive;
        cfg.path = SamplePath::Mask;
        let naive = EnsemFdet::new(cfg).detect(&g);
        cfg.engine = Engine::Bucket;
        let bucket = EnsemFdet::new(cfg).detect(&g);
        assert_eq!(naive.votes, bucket.votes);
    }

    /// Replaying every sample across an unchanged-graph delta must be
    /// bit-identical to a fresh scan, with zero re-peels.
    #[test]
    fn incremental_reuses_everything_across_unchanged_delta() {
        let g = planted(10, 4, 80);
        let det = EnsemFdet::new(quick_config(8, 0.4));
        let (full, cache) = primed(&det, &g, 1);
        let delta = ensemfdet_graph::GraphDelta::unchanged(
            1,
            2,
            (g.num_users(), g.num_merchants(), g.num_edges()),
        );
        let (inc, _, repeeled) = det.pass(&g, Some((&delta, &cache)));
        assert_eq!(repeeled, 0);
        assert_eq!(inc.votes, full.votes);
        assert_eq!(inc.evidence.user_evidence, full.evidence.user_evidence);
    }

    /// A real delta (new edges on a few existing nodes) re-peels only the
    /// intersecting samples, and the mixed replay/re-peel outcome is
    /// bit-identical to a from-scratch scan of the grown graph.
    #[test]
    fn incremental_matches_full_scan_after_growth() {
        // Both snapshots in canonical sorted-unique edge order, as the
        // snapshot store publishes them — sample reuse is only claimed
        // across canonical snapshots (local id assignment, and with it
        // peel tie-breaking, follows edge order).
        let base = planted(10, 4, 80);
        let mut edges = base.edge_slice().to_vec();
        edges.sort_unstable();
        edges.dedup();
        let g1 =
            BipartiteGraph::from_edges(base.num_users(), base.num_merchants(), edges.clone())
                .unwrap();
        let dims1 = (g1.num_users(), g1.num_merchants(), g1.num_edges());
        // Grow: two background users start hitting a fraud merchant.
        let new_edges = [(40u32, 0u32), (41, 1)];
        edges.extend_from_slice(&new_edges);
        edges.sort_unstable();
        edges.dedup();
        let g2 = BipartiteGraph::from_edges(dims1.0, dims1.1, edges).unwrap();
        let dims2 = (g2.num_users(), g2.num_merchants(), g2.num_edges());
        let delta = ensemfdet_graph::GraphDelta::from_new_edges(1, 2, dims1, dims2, &new_edges);

        // ONS draws from the (unchanged) user population, so samples
        // avoiding users 40/41 replay.
        let mut cfg = quick_config(12, 0.4);
        cfg.method = SamplingMethodConfig::OneSideUser;
        let det = EnsemFdet::new(cfg);
        let (_, cache) = primed(&det, &g1, 1);
        let (inc, entries, repeeled) = det.pass(&g2, Some((&delta, &cache)));
        let full = det.detect(&g2);

        assert_eq!(entries.len(), 12);
        assert!(repeeled < 12, "no sample avoided 2 of 90 users");
        assert!(repeeled > 0, "some sample must see the delta");
        assert_eq!(inc.votes, full.votes);
        assert_eq!(inc.evidence.user_evidence, full.evidence.user_evidence);
        assert_eq!(inc.evidence.merchant_evidence, full.evidence.merchant_evidence);
        for (a, b) in inc.samples.iter().zip(&full.samples) {
            assert_eq!(a.scores, b.scores, "sample {}", a.index);
            assert_eq!(a.k_hat, b.k_hat, "sample {}", a.index);
        }
    }

    #[test]
    #[should_panic(expected = "different config")]
    fn incremental_rejects_mismatched_cache() {
        let g = planted(8, 3, 40);
        let det = EnsemFdet::new(quick_config(4, 0.5));
        let (_, cache) = primed(&det, &g, 1);
        let mut other = quick_config(4, 0.5);
        other.seed = 999;
        let delta = ensemfdet_graph::GraphDelta::unchanged(
            1,
            2,
            (g.num_users(), g.num_merchants(), g.num_edges()),
        );
        EnsemFdet::new(other).pass(&g, Some((&delta, &cache)));
    }

    /// The worker pool is a throughput knob only: workers=1 (inline, no
    /// spawn) and workers=4 (scoped pool) must produce bit-identical
    /// votes, evidence, and per-sample blocks/scores for every seed.
    #[test]
    fn worker_count_never_changes_results() {
        let g = planted(10, 4, 80);
        for seed in [7u64, 1234, 0xDEAD_BEEF] {
            let mut cfg = quick_config(8, 0.4);
            cfg.seed = seed;
            let seq = EnsemFdet::with_workers(cfg, 1).detect(&g);
            let par = EnsemFdet::with_workers(cfg, 4).detect(&g);

            assert_eq!(seq.workers, 1, "seed {seed}");
            assert_eq!(seq.worker_times.len(), 1, "seed {seed}");
            assert_eq!(par.workers, 4, "seed {seed}");
            assert_eq!(par.worker_times.len(), 4, "seed {seed}");

            assert_eq!(seq.votes, par.votes, "seed {seed}");
            assert_eq!(
                seq.evidence.user_evidence, par.evidence.user_evidence,
                "seed {seed}"
            );
            assert_eq!(
                seq.evidence.merchant_evidence, par.evidence.merchant_evidence,
                "seed {seed}"
            );
            for (a, b) in seq.samples.iter().zip(&par.samples) {
                assert_eq!(a.index, b.index, "seed {seed}");
                assert_eq!(a.blocks_peeled, b.blocks_peeled, "seed {seed} #{}", a.index);
                assert_eq!(a.k_hat, b.k_hat, "seed {seed} #{}", a.index);
                assert_eq!(a.scores, b.scores, "seed {seed} #{}", a.index);
            }
        }
    }

    /// The incremental path runs through the same pool: replay/re-peel
    /// with 4 workers matches a 1-worker run and a from-scratch scan.
    #[test]
    fn incremental_is_worker_count_invariant() {
        let g = planted(10, 4, 80);
        let cfg = quick_config(8, 0.4);
        let delta = ensemfdet_graph::GraphDelta::unchanged(
            1,
            2,
            (g.num_users(), g.num_merchants(), g.num_edges()),
        );
        let det1 = EnsemFdet::with_workers(cfg, 1);
        let det4 = EnsemFdet::with_workers(cfg, 4);
        let (_, cache1) = primed(&det1, &g, 1);
        let (_, cache4) = primed(&det4, &g, 1);
        let (inc1, _, ran1) = det1.pass(&g, Some((&delta, &cache1)));
        let (inc4, _, ran4) = det4.pass(&g, Some((&delta, &cache4)));
        assert_eq!(ran1, ran4);
        assert_eq!(inc1.votes, inc4.votes);
        assert_eq!(inc1.evidence.user_evidence, inc4.evidence.user_evidence);
    }

    /// Mask-path bookkeeping is O(sample selection); the materializing
    /// path pays for intern maps over the whole parent plus the subgraph
    /// buffers. On a graph much larger than the sample the byte counters
    /// must reflect that gap.
    #[test]
    fn mask_path_materializes_fewer_bytes() {
        let g = planted(10, 4, 400);
        let mut cfg = quick_config(6, 0.1);
        cfg.path = SamplePath::Mask;
        let mask = EnsemFdet::new(cfg).detect(&g);
        cfg.path = SamplePath::Materialize;
        let mat = EnsemFdet::new(cfg).detect(&g);
        assert!(mask.sample_bytes() > 0);
        assert!(
            mask.sample_bytes() * 4 < mat.sample_bytes(),
            "mask {} vs materialized {}",
            mask.sample_bytes(),
            mat.sample_bytes()
        );
    }
}
