//! `bench_suite` — the reproducible benchmarks behind `BENCH_PR2.json`
//! (peeling engine vs the naive reference), `BENCH_PR4.json` (sampling
//! data paths), `BENCH_PR7.json` (incremental vs full scans under
//! sustained ingest), `BENCH_PR8.json`
//! (the full-JD-scale sharded build + parallel ensemble),
//! `BENCH_PR9.json` (single methods vs the calibrated hybrid scorer
//! under camouflage), and `BENCH_PR10.json` (arena/sharded interners +
//! the chunked weighted CSV loader). The committed artifacts are history:
//! each was written by the suite as it stood in its own change, and
//! `BENCH_PR6.json` by a peel-engine phase that has since been removed.
//!
//! **Engine phase** times the two peeling engines (`bucket`, the default
//! bucket-queue peel, vs `naive`, the reference implementation) on
//! fixed-seed workloads:
//!
//! * `peel` — one densest-block extraction (`Truncation::FixedK(1)`),
//! * `fdet` — a full FDET pass with the default auto-truncation,
//! * `ensemble_s0.01` / `ensemble_s0.10` — the end-to-end ensemble at the
//!   paper's two operating ratios (`N = 20` samples each).
//!
//! **Sampling phase** compares the two sampling data paths —
//! `materialize` (every sample built as a compacted `BipartiteGraph`,
//! the reference) vs `mask` (sample specs resolved lazily against the
//! shared parent CSR, the default) — on two workload families per ratio:
//!
//! * `ensemble_s*` — the end-to-end ensemble scan. Peeling dominates
//!   here and is bit-identical across paths, so this ratio is an
//!   Amdahl-diluted view of the data-path change;
//! * `sampling_s*` — the per-sample draw→ready-`CsrView` data path in
//!   isolation (the ensemble's exact seed schedule, `N` samples per
//!   rep), which is the cost this refactor actually changes.
//!
//! Both families record the bytes of per-sample state each path
//! materializes.
//!
//! **Incremental phase** replays a ramping fraud campaign
//! (`ensemfdet_datagen::ramp_timeline`: one base batch registering every
//! account, then fraud-ring edges arriving over several epochs) through
//! the snapshot pipeline and scans every epoch twice — a from-scratch
//! full scan vs `ScanRunner::run_incremental`'s dirty-sample reuse — with
//! the two chains interleaved within every rep. Its gate checks the two
//! modes bit-identical (votes and flagged sets) on every epoch before any
//! timing. Per-epoch latency is recorded honestly: the first incremental
//! epoch is the cold-cache fallback (a full scan plus cache priming) and
//! is reported as such, and each epoch's row carries the delta footprint
//! and reuse counts the speedup depends on.
//!
//! Every workload runs on the small (#1) and large (#3) Table I presets.
//! Before any timing, an **equivalence gate** re-runs each workload through
//! both engines (and both sampling paths, across all four sampling
//! methods) and aborts (exit 1) unless they produce bit-identical
//! blocks, scores, and ensemble votes — a timing comparison between
//! non-equivalent implementations would be meaningless.
//!
//! **Full-scale phase** runs on jd3 at `1/4` of Table I (≈1.08M users,
//! ≈2.0M edges — ten times the default suite scale) regardless of
//! `--scale`, and times the three parallel paths this repo grew for that
//! size against their sequential baselines, each pair gated bit-identical
//! first: the sharded CSR build vs the sequential counting sort, the
//! worker-pool ensemble (`workers = N`) vs the single-worker drain, the
//! mask vs materialize sample paths under the pool (per-sample subgraph
//! materialization contends on the allocator across threads; masks over
//! the shared parent CSR don't), and the NDJSON ingest parser vs the
//! legacy JSON-array parser on the same records. The speedups are
//! *measured*, not ideal-parallel projections —
//! on a single-core machine the parallel variants land near (or below)
//! 1×, and that is the number recorded.
//!
//! **Hybrid-scoring phase** sweeps the camouflage ablation against the
//! unified detector registry: at each camouflage level (0/2/6/12
//! purchases per fraud user on dataset #1) it scores the graph with every
//! single method — the ensemble's vote sweep plus all six baselines
//! behind the `Detector` trait — and with the calibrated hybrid
//! (vote + spectral + k-core fusion, weights and normalization fitted
//! per level — a 66-point simplex grid under each normalization). Its gate first checks every detector adapter
//! rank-identical to its bespoke entry point and every degenerate fusion
//! corner reproducing its component's ranking; afterwards the suite
//! asserts the hybrid's best F1 at-or-above every single method at every
//! level and exits 1 on any violation.
//!
//! **Parallel bulk-ingest phase** renders the full-scale phase's jd3
//! graph as a `user,merchant,amount` CSV transaction log
//! (`ensemfdet_datagen::translog`) and times, behind a byte-counting
//! global allocator: the contiguous arena vs the sharded arena
//! (single-threaded and across the worker pool) on the log's pre-parsed
//! key pairs, and the chunked
//! weighted loader end to end at 1..N workers. Its gate first checks
//! every worker count bit-identical to the serial scan — assigned ids,
//! edge arrays, amount-summed weights as f64 bits, and the ensemble
//! votes of the loaded graph — and the sharded interner id-identical to
//! the serial arena. Speedups are measured, not projected: on a
//! single-core box the parallel loader lands near (or below) 1×, and
//! that is the number recorded.
//!
//! `--smoke` additionally drives the HTTP service's v1 surface over a real
//! socket (JSON-array, NDJSON, and `text/csv` ingest — each with its
//! per-line error contract — → async scan jobs, one with a
//! `workers` override, one with a `scoring` override → results) and
//! aborts if any step misbehaves, so CI catches service regressions
//! without a separate harness.
//!
//! Timing protocol: `--warmup` unmeasured iterations, then `--reps`
//! measured ones with the two engines interleaved back-to-back within
//! every rep. The JSON artifact records the median and p95 wall time of
//! each (workload, dataset, engine) cell; the per-cell speedup is the
//! median of the per-rep `naive / bucket` ratios, which cancels slow
//! background load drift on shared machines.
//!
//! ```text
//! cargo run --release -p ensemfdet-bench --bin bench_suite            # full
//! cargo run --release -p ensemfdet-bench --bin bench_suite -- --smoke # CI
//! ```
//!
//! `--out FILE` (default `BENCH_PR2.json`) picks the engine artifact
//! path, `--out-sampling FILE` (default `BENCH_PR4.json`) the sampling
//! one, `--out-incremental FILE` (default `BENCH_PR7.json`) the
//! incremental-scan one, `--out-scale FILE` (default `BENCH_PR8.json`)
//! the full-scale one, `--out-hybrid FILE` (default `BENCH_PR9.json`)
//! the hybrid-scoring one, `--out-ingest FILE` (default
//! `BENCH_PR10.json`) the parallel-ingest one; `--scale N` resizes the
//! datasets as in every other experiment binary (the full-scale phase
//! pins its own divisor). Under `--smoke` the default artifact paths lie
//! in a fresh temporary directory instead of the working directory, so a
//! smoke run never overwrites a committed artifact.
//! Absolute numbers are machine-dependent; the speedup ratios are the
//! portable signal.

use ensemfdet::pipeline::{IngestBuffer, ScanRunner, SnapshotStore};
use ensemfdet::{
    fdet_with_engine, kcore_scores, normalize_scores, spectral_scores, DetectContext, Detector,
    Engine, EnsemFdet, EnsemFdetConfig, HybridScorer, IncrementalPolicy, MetricKind, ReuseStats,
    SamplePath, SamplingMethodConfig, ScoreNormalization, ScoringConfig, Truncation,
};
use ensemfdet_baselines::{
    standard_detectors, DegreeBaseline, FBox, Fraudar, Hits, KCoreBaseline, Spoken,
};
use ensemfdet_bench::{datasets, methods, resolve_scale};
use ensemfdet_datagen::generate;
use ensemfdet_datagen::presets::{jd_preset, JdDataset};
use ensemfdet_datagen::{ramp_timeline, transaction_log_string, TransactionLogConfig};
use ensemfdet_graph::loader::parse_csv_record;
use ensemfdet_graph::{
    load_transactions, ArenaTransactionInterner, BipartiteGraph, ConcurrentTransactionInterner,
    CsrView, LoadOptions, MerchantId, SampleMaps, SampleSpec, SpecResolver, UserId,
};
use ensemfdet_sampling::{seed, Sampler, SamplerScratch, SamplingMethod};
use ensemfdet_service::api::{parse_json_records, parse_ndjson_records};
use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Byte-counting allocator wrapper: the ingest phase reports
/// bytes-allocated per interner variant alongside wall time, since the
/// arena refactor's whole point is collapsing per-key allocations. Two
/// relaxed atomic adds per allocation — negligible against the work the
/// other phases time, and every variant pays it equally.
struct CountingAlloc;

static ALLOC_BYTES: AtomicUsize = AtomicUsize::new(0);
static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f`, returning `(allocation calls, bytes requested, result)`.
fn counted_alloc<R>(f: impl FnOnce() -> R) -> (usize, usize, R) {
    let calls0 = ALLOC_CALLS.load(Ordering::SeqCst);
    let bytes0 = ALLOC_BYTES.load(Ordering::SeqCst);
    let out = f();
    (
        ALLOC_CALLS.load(Ordering::SeqCst) - calls0,
        ALLOC_BYTES.load(Ordering::SeqCst) - bytes0,
        out,
    )
}

const ENSEMBLE_SAMPLES: usize = 20;
const ENSEMBLE_SEED: u64 = 0x7AB3;

#[derive(Clone, Copy)]
struct Workload {
    name: &'static str,
    kind: WorkloadKind,
}

#[derive(Clone, Copy)]
enum WorkloadKind {
    /// One peel: FDET truncated to a single block.
    Peel,
    /// Full FDET with the default auto-truncation.
    Fdet,
    /// End-to-end ensemble at this sample ratio.
    Ensemble(f64),
}

const WORKLOADS: [Workload; 4] = [
    Workload { name: "peel", kind: WorkloadKind::Peel },
    Workload { name: "fdet", kind: WorkloadKind::Fdet },
    Workload { name: "ensemble_s0.01", kind: WorkloadKind::Ensemble(0.01) },
    Workload { name: "ensemble_s0.10", kind: WorkloadKind::Ensemble(0.1) },
];

#[derive(Serialize)]
struct Cell {
    workload: &'static str,
    dataset: &'static str,
    engine: &'static str,
    reps: usize,
    median_s: f64,
    p95_s: f64,
    min_s: f64,
}

#[derive(Serialize)]
struct Speedup {
    workload: &'static str,
    dataset: &'static str,
    /// Median of the per-rep `naive / bucket` wall-time ratios (the
    /// engines run back-to-back within each rep) — above 1 means the
    /// bucket engine is faster.
    bucket_over_naive: f64,
}

#[derive(Serialize)]
struct Artifact {
    schema: &'static str,
    smoke: bool,
    scale: u32,
    warmup: usize,
    reps: usize,
    ensemble_samples: usize,
    equivalence: &'static str,
    /// `"ok"` when `--smoke` drove the v1 HTTP surface end-to-end,
    /// `"skipped"` on full (non-smoke) runs.
    service_smoke: &'static str,
    datasets: Vec<DatasetInfo>,
    cells: Vec<Cell>,
    speedups: Vec<Speedup>,
}

#[derive(Clone, Serialize)]
struct DatasetInfo {
    name: &'static str,
    users: usize,
    merchants: usize,
    edges: usize,
}

fn dataset_tag(which: JdDataset) -> &'static str {
    match which {
        JdDataset::Jd1 => "jd1",
        JdDataset::Jd2 => "jd2",
        JdDataset::Jd3 => "jd3",
    }
}

fn run_workload(w: WorkloadKind, g: &BipartiteGraph, engine: Engine) {
    match w {
        WorkloadKind::Peel => {
            let r = fdet_with_engine(g, &MetricKind::default(), Truncation::FixedK(1), engine);
            std::hint::black_box(r.blocks.len());
        }
        WorkloadKind::Fdet => {
            let r = fdet_with_engine(g, &MetricKind::default(), Truncation::default(), engine);
            std::hint::black_box(r.k_hat);
        }
        WorkloadKind::Ensemble(ratio) => {
            let outcome = EnsemFdet::new(EnsemFdetConfig {
                num_samples: ENSEMBLE_SAMPLES,
                sample_ratio: ratio,
                engine,
                seed: ENSEMBLE_SEED,
                ..Default::default()
            })
            .detect(g);
            std::hint::black_box(outcome.votes.max_user_votes());
        }
    }
}

/// `warmup` unmeasured alternating runs, then `reps` measured wall times
/// per engine, interleaved naive/bucket within every rep.
///
/// Interleaving matters on shared machines: background load drifts on a
/// seconds scale, so timing one engine's reps in a block and then the
/// other's would fold that drift into the comparison. Back-to-back pairs
/// see near-identical machine state, and the per-pair ratio cancels it.
fn time_workload_pair(
    w: WorkloadKind,
    g: &BipartiteGraph,
    warmup: usize,
    reps: usize,
) -> (Vec<f64>, Vec<f64>) {
    for _ in 0..warmup {
        run_workload(w, g, Engine::Naive);
        run_workload(w, g, Engine::Bucket);
    }
    let mut naive = Vec::with_capacity(reps);
    let mut bucket = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        run_workload(w, g, Engine::Naive);
        naive.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        run_workload(w, g, Engine::Bucket);
        bucket.push(t.elapsed().as_secs_f64());
    }
    (naive, bucket)
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

// ---------------------------------------------------------------------------
// Sampling-path phase (BENCH_PR4.json)
// ---------------------------------------------------------------------------

/// The ensemble ratios timed in the sampling phase — the paper's two
/// operating points.
const SAMPLING_RATIOS: [f64; 2] = [0.01, 0.1];

#[derive(Serialize)]
struct PathCell {
    workload: String,
    dataset: &'static str,
    path: &'static str,
    reps: usize,
    median_s: f64,
    p95_s: f64,
    min_s: f64,
    /// Bytes of per-sample state one ensemble pass materializes on this
    /// path (selection vectors vs full subgraph buffers + intern maps).
    sample_bytes: u64,
}

#[derive(Serialize)]
struct PathSpeedup {
    workload: String,
    dataset: &'static str,
    /// Median of the per-rep `materialize / mask` wall-time ratios —
    /// above 1 means the mask path is faster.
    mask_over_materialize: f64,
    /// `materialize_bytes / mask_bytes` — the allocation-footprint gap.
    bytes_ratio: f64,
}

#[derive(Serialize)]
struct SamplingArtifact {
    schema: &'static str,
    smoke: bool,
    scale: u32,
    warmup: usize,
    reps: usize,
    ensemble_samples: usize,
    equivalence: &'static str,
    datasets: Vec<DatasetInfo>,
    cells: Vec<PathCell>,
    speedups: Vec<PathSpeedup>,
}

fn path_config(ratio: f64, path: SamplePath, method: SamplingMethodConfig) -> EnsemFdetConfig {
    EnsemFdetConfig {
        num_samples: ENSEMBLE_SAMPLES,
        sample_ratio: ratio,
        path,
        method,
        seed: ENSEMBLE_SEED,
        ..Default::default()
    }
}

/// One timed ensemble pass on `path`; returns the bytes it materialized.
fn run_path_workload(ratio: f64, g: &BipartiteGraph, path: SamplePath) -> u64 {
    let outcome = EnsemFdet::new(path_config(ratio, path, SamplingMethodConfig::RandomEdge))
        .detect(g);
    std::hint::black_box(outcome.votes.max_user_votes());
    outcome.sample_bytes()
}

/// One timed pass over the ensemble's *sampling data path* — the part of
/// the scan this refactor changes: per sample, draw the sample and build
/// the ready-to-peel `CsrView`, with the ensemble's exact seed schedule.
/// The peel itself (bit-identical across paths, and the dominant cost at
/// `S = 0.1`) is deliberately excluded, so this isolates the
/// draw→ready-view cost the two paths actually differ on.
fn run_data_path_workload(
    ratio: f64,
    g: &BipartiteGraph,
    path: SamplePath,
    state: &mut DataPathState,
) {
    for i in 0..ENSEMBLE_SAMPLES as u64 {
        let sample_seed = seed::derive(ENSEMBLE_SEED, i);
        match path {
            SamplePath::Materialize => {
                let sampled = SamplingMethod::RandomEdge.sample(g, ratio, sample_seed);
                state.view.rebuild(&sampled.graph, None);
            }
            SamplePath::Mask => {
                SamplingMethod::RandomEdge.sample_spec(
                    g,
                    ratio,
                    sample_seed,
                    &mut state.scratch,
                    &mut state.spec,
                );
                state
                    .view
                    .rebuild_from_spec(g, &state.spec, &mut state.resolver, &mut state.maps);
            }
        }
        std::hint::black_box(state.view.num_edges());
    }
}

/// Reusable buffers for [`run_data_path_workload`], mirroring the
/// per-thread scratch the ensemble holds.
#[derive(Default)]
struct DataPathState {
    view: CsrView,
    scratch: SamplerScratch,
    spec: SampleSpec,
    resolver: SpecResolver,
    maps: SampleMaps,
}

/// `warmup` unmeasured alternating passes, then `reps` measured wall
/// times per path, interleaved within every rep.
fn time_data_path_pair(
    ratio: f64,
    g: &BipartiteGraph,
    warmup: usize,
    reps: usize,
) -> (Vec<f64>, Vec<f64>) {
    let mut state = DataPathState::default();
    for _ in 0..warmup {
        run_data_path_workload(ratio, g, SamplePath::Materialize, &mut state);
        run_data_path_workload(ratio, g, SamplePath::Mask, &mut state);
    }
    let mut materialize = Vec::with_capacity(reps);
    let mut mask = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        run_data_path_workload(ratio, g, SamplePath::Materialize, &mut state);
        materialize.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        run_data_path_workload(ratio, g, SamplePath::Mask, &mut state);
        mask.push(t.elapsed().as_secs_f64());
    }
    (materialize, mask)
}

/// Both sampling paths must agree exactly — votes, evidence, per-sample
/// blocks and scores — across all four sampling methods before we time
/// them.
fn sampling_equivalence_gate(g: &BipartiteGraph) -> Result<(), String> {
    for method in [
        SamplingMethodConfig::RandomEdge,
        SamplingMethodConfig::OneSideUser,
        SamplingMethodConfig::OneSideMerchant,
        SamplingMethodConfig::TwoSide,
    ] {
        let run = |path| EnsemFdet::new(path_config(0.3, path, method)).detect(g);
        let (mask, mat) = (run(SamplePath::Mask), run(SamplePath::Materialize));
        if mask.votes != mat.votes {
            return Err(format!("{method:?}: ensemble votes differ between paths"));
        }
        if mask.evidence.user_evidence != mat.evidence.user_evidence {
            return Err(format!("{method:?}: evidence differs between paths"));
        }
        for (a, b) in mask.samples.iter().zip(&mat.samples) {
            if a.scores != b.scores
                || a.sample_nodes != b.sample_nodes
                || a.sample_edges != b.sample_edges
                || a.k_hat != b.k_hat
            {
                return Err(format!(
                    "{method:?}: sample #{} diagnostics differ between paths",
                    a.index
                ));
            }
        }
    }
    Ok(())
}

/// `warmup` unmeasured alternating runs, then `reps` measured wall times
/// per path, interleaved materialize/mask within every rep (same drift
/// rationale as [`time_workload_pair`]).
fn time_sampling_pair(
    ratio: f64,
    g: &BipartiteGraph,
    warmup: usize,
    reps: usize,
) -> (Vec<f64>, Vec<f64>, [u64; 2]) {
    for _ in 0..warmup {
        run_path_workload(ratio, g, SamplePath::Materialize);
        run_path_workload(ratio, g, SamplePath::Mask);
    }
    let mut materialize = Vec::with_capacity(reps);
    let mut mask = Vec::with_capacity(reps);
    let mut bytes = [0u64; 2];
    for _ in 0..reps {
        let t = Instant::now();
        bytes[0] = run_path_workload(ratio, g, SamplePath::Materialize);
        materialize.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        bytes[1] = run_path_workload(ratio, g, SamplePath::Mask);
        mask.push(t.elapsed().as_secs_f64());
    }
    (materialize, mask, bytes)
}

/// Both engines must agree exactly on every workload before we time them.
fn equivalence_gate(g: &BipartiteGraph) -> Result<(), String> {
    let run = |e| fdet_with_engine(g, &MetricKind::default(), Truncation::KeepAll { k_max: 50 }, e);
    let (bucket, naive) = (run(Engine::Bucket), run(Engine::Naive));
    if bucket.blocks != naive.blocks {
        return Err("FDET blocks differ between engines".into());
    }
    if bucket.scores != naive.scores {
        return Err("FDET scores differ between engines".into());
    }
    let vote = |e| {
        EnsemFdet::new(EnsemFdetConfig {
            num_samples: 8,
            sample_ratio: 0.3,
            engine: e,
            seed: ENSEMBLE_SEED,
            ..Default::default()
        })
        .detect(g)
        .votes
        .user_scores()
    };
    if vote(Engine::Bucket) != vote(Engine::Naive) {
        return Err("ensemble votes differ between engines".into());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Incremental-scan phase (BENCH_PR7.json)
// ---------------------------------------------------------------------------

/// Fraud-ring ramp epochs after the base batch.
const RAMP_EPOCHS: usize = 5;

/// Expected users per sample at the monitoring operating point. A cached
/// user-subset sample survives an epoch with probability
/// `(1 - ratio)^touched_users ≈ exp(-sample_users × touched_fraction)`,
/// so holding the sample *size* fixed (a per-sample peel budget) instead
/// of the ratio makes the reuse rate depend only on the delta's touched
/// fraction — scale-invariant across the presets (see docs/MONITORING.md
/// for the tuning math).
const SAMPLE_TARGET_USERS: f64 = 150.0;

const INCREMENTAL_THRESHOLD: u32 = ENSEMBLE_SAMPLES as u32 / 2;

fn incremental_ratio(users: usize) -> f64 {
    (SAMPLE_TARGET_USERS / users.max(1) as f64).min(0.05)
}

fn incremental_config(ratio: f64) -> EnsemFdetConfig {
    EnsemFdetConfig {
        num_samples: ENSEMBLE_SAMPLES,
        sample_ratio: ratio,
        method: SamplingMethodConfig::OneSideUser,
        seed: ENSEMBLE_SEED,
        ..Default::default()
    }
}

/// One ramping-campaign ingest sequence, compacted to a snapshot per
/// epoch. Built once per dataset; the timed reps replay scans over the
/// same snapshots so full and incremental always see identical graphs.
struct RampScenario {
    snapshots: Vec<Arc<ensemfdet::pipeline::Snapshot>>,
    store: SnapshotStore,
}

fn build_ramp(which: JdDataset, scale: u32) -> RampScenario {
    let tl = ramp_timeline(&jd_preset(which, scale, ENSEMBLE_SEED), RAMP_EPOCHS);
    let buffer = IngestBuffer::new();
    let store = SnapshotStore::new(1);
    let mut snapshots = Vec::new();
    for batch in std::iter::once(&tl.base).chain(tl.epochs.iter()) {
        buffer.append_batch(batch.iter().map(|&(u, v)| (UserId(u), MerchantId(v))));
        snapshots.push(store.refresh(&buffer, true));
    }
    RampScenario { snapshots, store }
}

/// The incremental chain must match a from-scratch scan bit for bit on
/// every epoch — votes and flagged set — before any timing happens.
fn incremental_gate(
    scenario: &RampScenario,
    ratio: f64,
    policy: &IncrementalPolicy,
) -> Result<(), String> {
    let cfg = incremental_config(ratio);
    let mut inc = ScanRunner::new();
    for (i, snapshot) in scenario.snapshots.iter().enumerate() {
        let a = inc.run_incremental(snapshot, &scenario.store, &cfg, INCREMENTAL_THRESHOLD, policy);
        let b = ScanRunner::new().run(snapshot, &cfg, INCREMENTAL_THRESHOLD);
        if a.votes != b.votes {
            return Err(format!("epoch {i}: vote tallies diverged"));
        }
        if a.flagged != b.flagged {
            return Err(format!("epoch {i}: flagged sets diverged"));
        }
    }
    Ok(())
}

/// Timing output of [`time_incremental_pair`]: outer index is the epoch,
/// inner vectors hold one wall time per measured rep; `reuse` carries the
/// deterministic per-epoch reuse stats plus the snapshot's transaction
/// count.
struct IncrementalTimings {
    full: Vec<Vec<f64>>,
    incremental: Vec<Vec<f64>>,
    reuse: Vec<(ReuseStats, usize)>,
}

/// Per-epoch wall times for the full and incremental chains, interleaved
/// back-to-back within every rep (same drift rationale as
/// [`time_workload_pair`]). Each rep replays the whole epoch sequence
/// with fresh runners, so the incremental chain's cache state is exactly
/// what a live `--follow` deployment would hold at that epoch: the first
/// epoch is always the cold-cache fallback and is timed as such. The
/// reuse stats are deterministic across reps (same seeds, same
/// snapshots) so they are recorded from the first measured rep.
fn time_incremental_pair(
    scenario: &RampScenario,
    ratio: f64,
    policy: &IncrementalPolicy,
    warmup: usize,
    reps: usize,
) -> IncrementalTimings {
    let cfg = incremental_config(ratio);
    let epochs = scenario.snapshots.len();
    for _ in 0..warmup {
        let mut full = ScanRunner::new();
        let mut inc = ScanRunner::new();
        for s in &scenario.snapshots {
            std::hint::black_box(full.run(s, &cfg, INCREMENTAL_THRESHOLD).flagged.len());
            std::hint::black_box(
                inc.run_incremental(s, &scenario.store, &cfg, INCREMENTAL_THRESHOLD, policy)
                    .flagged
                    .len(),
            );
        }
    }
    let mut full_times = vec![Vec::with_capacity(reps); epochs];
    let mut inc_times = vec![Vec::with_capacity(reps); epochs];
    let mut reuse = Vec::with_capacity(epochs);
    for rep in 0..reps {
        let mut full = ScanRunner::new();
        let mut inc = ScanRunner::new();
        for (e, s) in scenario.snapshots.iter().enumerate() {
            let t = Instant::now();
            let f = full.run(s, &cfg, INCREMENTAL_THRESHOLD);
            full_times[e].push(t.elapsed().as_secs_f64());
            std::hint::black_box(f.flagged.len());
            let t = Instant::now();
            let o = inc.run_incremental(s, &scenario.store, &cfg, INCREMENTAL_THRESHOLD, policy);
            inc_times[e].push(t.elapsed().as_secs_f64());
            std::hint::black_box(o.flagged.len());
            if rep == 0 {
                reuse.push((o.reuse, o.transactions));
            }
        }
    }
    IncrementalTimings {
        full: full_times,
        incremental: inc_times,
        reuse,
    }
}

#[derive(Serialize)]
struct IncrementalCell {
    dataset: &'static str,
    epoch: u64,
    transactions: usize,
    /// `"incremental"` when the reuse path ran, `"full"` otherwise (the
    /// cold-cache first epoch, or an oversized delta).
    mode: &'static str,
    fallback: Option<&'static str>,
    samples_reused: usize,
    samples_repeeled: usize,
    delta_touched_nodes: usize,
    delta_touched_fraction: f64,
    reps: usize,
    full_median_s: f64,
    incremental_median_s: f64,
    /// Median per-rep `full / incremental` wall-time ratio — above 1
    /// means the incremental scan won this epoch.
    full_over_incremental: f64,
}

#[derive(Serialize)]
struct IncrementalSpeedup {
    dataset: &'static str,
    /// Per-dataset ratio realizing [`SAMPLE_TARGET_USERS`].
    sample_ratio: f64,
    /// Median of the per-epoch `full_over_incremental` ratios across the
    /// epochs that actually took the reuse path (cold-cache and other
    /// fallback epochs excluded — those are full scans plus cache
    /// bookkeeping and are reported per-epoch, not here).
    full_over_incremental: f64,
    epochs_incremental: usize,
    epochs_fallback: usize,
}

#[derive(Serialize)]
struct IncrementalArtifact {
    schema: &'static str,
    smoke: bool,
    scale: u32,
    warmup: usize,
    reps: usize,
    ensemble_samples: usize,
    sample_target_users: f64,
    ramp_epochs: usize,
    max_touched_fraction: f64,
    equivalence: &'static str,
    datasets: Vec<DatasetInfo>,
    cells: Vec<IncrementalCell>,
    speedups: Vec<IncrementalSpeedup>,
}

// ---------------------------------------------------------------------------
// Full-scale phase (BENCH_PR8.json)
// ---------------------------------------------------------------------------

/// Population divisor for the full-scale phase: jd3 at `1/4` of Table I
/// (≈1.08M users, ≈0.66M merchants, ≈2.0M edges) — the largest graph the
/// suite times. Smoke runs substitute the tiny smoke scale.
const SCALE_DIVISOR: u32 = 4;

/// Ensemble ratios timed at full scale — the paper's operating points.
const SCALE_RATIOS: [f64; 2] = [0.01, 0.1];

/// Records in the ingest-parse comparison — sized to roughly one
/// `MAX_BODY` (1 MiB) batch, the largest body the endpoint accepts.
const INGEST_RECORDS: usize = 45_000;
const INGEST_RECORDS_SMOKE: usize = 2_000;

/// Worker threads the parallel variants run with: every core the machine
/// offers, but at least two so the sharded build and the sample pool
/// actually cross threads even on a single-core box — where the honest
/// result is the coordination overhead, not an ideal-parallel projection.
fn scale_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2)
}

/// The same records rendered as the two wire formats the ingest endpoint
/// accepts: the legacy `{"records": [[u, m], …]}` envelope and one
/// `["u", "m"]` line per record (NDJSON).
fn ingest_bodies(records: &[(String, String)]) -> (Vec<u8>, Vec<u8>) {
    let rendered: Vec<String> = records
        .iter()
        .map(|(u, m)| format!("[\"{u}\",\"{m}\"]"))
        .collect();
    let json = format!("{{\"records\":[{}]}}", rendered.join(",")).into_bytes();
    let mut ndjson = rendered.join("\n");
    ndjson.push('\n');
    (json, ndjson.into_bytes())
}

/// Every parallel variant must match its sequential baseline before any
/// timing: the sharded CSR build bit-identical to the sequential counting
/// sort (edge arrays and every adjacency row), the worker-pool ensemble
/// bit-identical to the single-worker drain (votes, evidence, per-sample
/// diagnostics), and the NDJSON parser agreeing with the JSON-array
/// parser on the same records.
fn scale_equivalence_gate(g: &BipartiteGraph, workers: usize) -> Result<(), String> {
    let seq = CsrView::from_graph(g);
    let shard = CsrView::from_graph_sharded(g, workers);
    if shard.edge_ids() != seq.edge_ids()
        || shard.edge_users() != seq.edge_users()
        || shard.edge_merchants() != seq.edge_merchants()
        || shard.edge_weights() != seq.edge_weights()
    {
        return Err("sharded CSR edge arrays differ from sequential".into());
    }
    for u in 0..g.num_users() as u32 {
        if shard.user_neighbors(UserId(u)).pairs != seq.user_neighbors(UserId(u)).pairs {
            return Err(format!("sharded CSR user row {u} differs from sequential"));
        }
    }
    for v in 0..g.num_merchants() as u32 {
        if shard.merchant_neighbors(MerchantId(v)).pairs != seq.merchant_neighbors(MerchantId(v)).pairs
        {
            return Err(format!("sharded CSR merchant row {v} differs from sequential"));
        }
    }

    let cfg = EnsemFdetConfig {
        num_samples: ENSEMBLE_SAMPLES,
        sample_ratio: SCALE_RATIOS[0],
        seed: ENSEMBLE_SEED,
        ..Default::default()
    };
    let one = EnsemFdet::with_workers(cfg, 1).detect(g);
    let par = EnsemFdet::with_workers(cfg, workers).detect(g);
    if par.votes != one.votes {
        return Err(format!("ensemble votes differ between 1 and {workers} workers"));
    }
    if par.evidence.user_evidence != one.evidence.user_evidence {
        return Err(format!("evidence differs between 1 and {workers} workers"));
    }
    for (a, b) in one.samples.iter().zip(&par.samples) {
        if a.scores != b.scores
            || a.sample_nodes != b.sample_nodes
            || a.sample_edges != b.sample_edges
            || a.k_hat != b.k_hat
        {
            return Err(format!(
                "sample #{} diagnostics differ between 1 and {workers} workers",
                a.index
            ));
        }
    }

    let records: Vec<(String, String)> = (0..512)
        .map(|i| (format!("user-{i}"), format!("store-{}", i % 37)))
        .collect();
    let (json, ndjson) = ingest_bodies(&records);
    let a = parse_json_records(&json).map_err(|_| "JSON-array parser rejected valid records")?;
    let b = parse_ndjson_records(&ndjson).map_err(|_| "NDJSON parser rejected valid records")?;
    if a != records || b != records {
        return Err("ingest parsers disagree with the source records".into());
    }
    Ok(())
}

/// `warmup` unmeasured alternating runs, then `reps` measured wall times
/// per variant, interleaved baseline/variant within every rep (same
/// drift rationale as [`time_workload_pair`]).
fn time_variant_pair(
    warmup: usize,
    reps: usize,
    mut baseline: impl FnMut(),
    mut variant: impl FnMut(),
) -> (Vec<f64>, Vec<f64>) {
    for _ in 0..warmup {
        baseline();
        variant();
    }
    let mut base_t = Vec::with_capacity(reps);
    let mut var_t = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        baseline();
        base_t.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        variant();
        var_t.push(t.elapsed().as_secs_f64());
    }
    (base_t, var_t)
}

#[derive(Serialize)]
struct ScaleCell {
    workload: String,
    variant: String,
    reps: usize,
    median_s: f64,
    p95_s: f64,
    min_s: f64,
}

#[derive(Serialize)]
struct ScaleSpeedup {
    workload: String,
    baseline: String,
    variant: String,
    /// Median of the per-rep `baseline / variant` wall-time ratios —
    /// above 1 means the parallel (or NDJSON) variant won. Measured, not
    /// an ideal-parallel projection: on a single-core machine the
    /// threaded variants land near (or below) 1×, and that is the number
    /// recorded.
    speedup: f64,
}

#[derive(Serialize)]
struct ScaleArtifact {
    schema: &'static str,
    smoke: bool,
    /// Population divisor of this phase's jd3 graph (always
    /// [`SCALE_DIVISOR`] on full runs, regardless of `--scale`).
    scale: u32,
    warmup: usize,
    reps: usize,
    ensemble_samples: usize,
    /// Worker threads the parallel variants ran with.
    workers: usize,
    /// What the machine actually offered; when `workers` exceeds it the
    /// pool oversubscribes and the speedups honestly show the overhead.
    available_parallelism: usize,
    ingest_records: usize,
    ingest_json_bytes: usize,
    ingest_ndjson_bytes: usize,
    equivalence: &'static str,
    dataset: DatasetInfo,
    cells: Vec<ScaleCell>,
    speedups: Vec<ScaleSpeedup>,
}

/// Reduces one timed baseline/variant pair to its two [`ScaleCell`]s and
/// a [`ScaleSpeedup`], printing the console row.
fn summarize_scale_pair(
    workload: &str,
    names: [&str; 2],
    base: Vec<f64>,
    var: Vec<f64>,
    reps: usize,
    cells: &mut Vec<ScaleCell>,
    speedups: &mut Vec<ScaleSpeedup>,
) {
    let mut ratios: Vec<f64> = base.iter().zip(&var).map(|(b, v)| b / v.max(1e-12)).collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let speedup = median(&ratios);
    let mut medians = [0.0f64; 2];
    for (slot, (name, times)) in names.into_iter().zip([base, var]).enumerate() {
        let mut times = times;
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        medians[slot] = median(&times);
        cells.push(ScaleCell {
            workload: workload.to_string(),
            variant: name.to_string(),
            reps,
            median_s: median(&times),
            p95_s: percentile(&times, 0.95),
            min_s: times[0],
        });
    }
    println!(
        "{:<18} {:<12} {:>10.3} ms  {:<12} {:>10.3} ms  speedup {:.2}x",
        workload,
        names[0],
        medians[0] * 1e3,
        names[1],
        medians[1] * 1e3,
        speedup
    );
    speedups.push(ScaleSpeedup {
        workload: workload.to_string(),
        baseline: names[0].to_string(),
        variant: names[1].to_string(),
        speedup,
    });
}

// ---------------------------------------------------------------------------
// Hybrid-scoring phase (BENCH_PR9.json)
// ---------------------------------------------------------------------------

/// Camouflage purchases per fraud user at each swept operating point.
const CAMO_LEVELS: [usize; 4] = [0, 2, 6, 12];
/// Ensemble operating point of the camouflage ablation. Stronger than
/// the `ablation_camouflage` binary's N=40/S=0.1: under heavy
/// camouflage the vote component needs deep sampling before the fused
/// score can match Fraudar's full-graph peeling.
const HYBRID_SAMPLES: usize = 120;
const HYBRID_RATIO: f64 = 0.4;
const HYBRID_SEED: u64 = 0xCA31;
/// Tolerance of the dominance assertion: the calibrated hybrid must
/// reach at least `best_single - eps` at every camouflage level.
const HYBRID_EPS: f64 = 1e-9;

/// The detector registry must reproduce the bespoke entry points before
/// the hybrid fusion built on it is trusted: every adapter's scores
/// finite in `[0, 1]` and ranking users exactly as the legacy
/// `score_users` path (compared via rank normalization, which ignores
/// how ties are stored), Fraudar's block structure unchanged, and each
/// degenerate fusion corner reproducing its component's ranking.
fn hybrid_equivalence_gate(g: &BipartiteGraph) -> Result<(), String> {
    let ctx = DetectContext::new(g);
    let ranks = |s: &[f64]| normalize_scores(s, ScoreNormalization::Rank);
    for det in standard_detectors() {
        let out = det.score(&ctx);
        if out.scores.len() != g.num_users() {
            return Err(format!("{}: wrong score length", det.name()));
        }
        if !out
            .scores
            .iter()
            .all(|s| s.is_finite() && (0.0..=1.0).contains(s))
        {
            return Err(format!("{}: scores leave [0, 1]", det.name()));
        }
        let legacy = match det.name() {
            "spoken" => Some(Spoken::default().score_users(g)),
            "fbox" => Some(FBox::default().score_users(g)),
            "hits" => Some(Hits::default().score_users(g)),
            "kcore" => Some(KCoreBaseline.score_users(g)),
            "degree" => Some(DegreeBaseline.score_users(g)),
            _ => None,
        };
        if let Some(legacy) = legacy {
            if ranks(&out.scores) != ranks(&legacy) {
                return Err(format!(
                    "{}: adapter ranking differs from the bespoke entry point",
                    det.name()
                ));
            }
        }
    }
    let fraudar = Fraudar::default();
    let trait_blocks = fraudar
        .score(&ctx)
        .blocks
        .ok_or("fraudar: adapter lost the block structure")?;
    if trait_blocks != fraudar.run(g).blocks {
        return Err("fraudar: adapter blocks differ from Fraudar::run".into());
    }

    let vote = EnsemFdet::new(EnsemFdetConfig {
        num_samples: 8,
        sample_ratio: 0.3,
        seed: ENSEMBLE_SEED,
        ..Default::default()
    })
    .detect(g)
    .votes
    .user_scores();
    let base = ScoringConfig::enabled();
    let spectral = spectral_scores(&ctx, &base);
    let kcore = kcore_scores(&ctx);
    for (weights, component, name) in [
        ([1.0, 0.0, 0.0], &vote, "vote"),
        ([0.0, 1.0, 0.0], &spectral, "spectral"),
        ([0.0, 0.0, 1.0], &kcore, "kcore"),
    ] {
        let corner = ScoringConfig {
            vote_weight: weights[0],
            spectral_weight: weights[1],
            kcore_weight: weights[2],
            ..base
        };
        let fused = HybridScorer::new(corner).fuse(&vote, &spectral, &kcore);
        if ranks(&fused) != ranks(component) {
            return Err(format!(
                "degenerate weight corner `{name}` does not reproduce the component ranking"
            ));
        }
    }
    Ok(())
}

#[derive(Serialize)]
struct HybridCell {
    camouflage_per_user: usize,
    method: String,
    best_f1: f64,
    auc_pr: f64,
}

#[derive(Serialize)]
struct HybridLevel {
    camouflage_per_user: usize,
    hybrid_best_f1: f64,
    hybrid_auc_pr: f64,
    /// The fitted `[vote, spectral, kcore]` weights at this level.
    calibrated_weights: [f64; 3],
    /// The strongest single method at this level and its best F1 — the
    /// bar the hybrid must clear.
    best_single_method: String,
    best_single_f1: f64,
    /// `hybrid_best_f1 - best_single_f1`; never below `-eps` or the
    /// suite exits 1.
    margin: f64,
}

#[derive(Serialize)]
struct HybridArtifact {
    schema: &'static str,
    smoke: bool,
    scale: u32,
    ensemble_samples: usize,
    sample_ratio: f64,
    camouflage_levels: Vec<usize>,
    equivalence: &'static str,
    dominance: &'static str,
    cells: Vec<HybridCell>,
    levels: Vec<HybridLevel>,
}

// ---------------------------------------------------------------------------
// Parallel bulk-ingest phase (BENCH_PR10.json)
// ---------------------------------------------------------------------------

/// Loader worker counts swept by the ingest phase: serial, one doubling,
/// and everything the machine offers.
fn ingest_worker_counts(workers: usize) -> Vec<usize> {
    let mut counts = vec![1, 2, workers];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// The chunked loader must be bit-identical to its serial scan for every
/// worker count — assigned ids (both key dictionaries in id order), edge
/// arrays, amount-summed weights (compared as f64 bits), record/line
/// accounting, and the ensemble votes a scan of the loaded graph
/// produces. Returns the serial reference load for the timing stage.
fn ingest_equivalence_gate(
    log: &[u8],
    workers: usize,
) -> Result<ensemfdet_graph::LoadedLog, String> {
    let serial = load_transactions(log, &LoadOptions::default())
        .map_err(|e| format!("serial load failed: {e}"))?;
    let keys_of = |i: &ArenaTransactionInterner| -> (Vec<String>, Vec<String>) {
        (
            i.users().keys().map(str::to_string).collect(),
            i.merchants().keys().map(str::to_string).collect(),
        )
    };
    let weight_bits = |g: &BipartiteGraph| -> Vec<u64> {
        (0..g.num_edges()).map(|e| g.edge_weight(e).to_bits()).collect()
    };
    let cfg = EnsemFdetConfig {
        num_samples: ENSEMBLE_SAMPLES,
        sample_ratio: SCALE_RATIOS[0],
        seed: ENSEMBLE_SEED,
        ..Default::default()
    };
    let serial_votes = EnsemFdet::new(cfg).detect(&serial.graph).votes;
    for w in ingest_worker_counts(workers).into_iter().filter(|&w| w > 1) {
        let par = load_transactions(
            log,
            &LoadOptions {
                workers: w,
                ..Default::default()
            },
        )
        .map_err(|e| format!("{w}-worker load failed: {e}"))?;
        if par.records != serial.records || par.lines != serial.lines {
            return Err(format!("{w}-worker load counts differ from serial"));
        }
        if keys_of(&par.interner) != keys_of(&serial.interner) {
            return Err(format!("{w}-worker interner ids differ from serial"));
        }
        if par.graph.edge_pairs() != serial.graph.edge_pairs() {
            return Err(format!("{w}-worker edge arrays differ from serial"));
        }
        if weight_bits(&par.graph) != weight_bits(&serial.graph) {
            return Err(format!(
                "{w}-worker amount-summed weights differ from serial (f64 bits)"
            ));
        }
        if EnsemFdet::new(cfg).detect(&par.graph).votes != serial_votes {
            return Err(format!("{w}-worker load changes ensemble votes"));
        }
    }

    // The sharded interner must assign the same dense arrival-order ids
    // as the serial arena when driven from one thread, and stay
    // internally consistent when driven from many.
    let pairs = parse_log_pairs(log)?;
    let sharded = ConcurrentTransactionInterner::new();
    for (u, m) in &pairs {
        sharded.user(u);
        sharded.merchant(m);
    }
    let (users, merchants) = keys_of(&serial.interner);
    if sharded.num_users() != users.len() || sharded.num_merchants() != merchants.len() {
        return Err("sharded interner key counts differ from serial arena".into());
    }
    for (id, key) in users.iter().enumerate() {
        if sharded.find_user(key).map(|u| u.0) != Some(id as u32) {
            return Err(format!("sharded interner id for `{key}` differs from serial"));
        }
    }
    let concurrent = ConcurrentTransactionInterner::new();
    std::thread::scope(|scope| {
        for shard in pairs.chunks(pairs.len().div_ceil(workers.max(2))) {
            let concurrent = &concurrent;
            scope.spawn(move || {
                for (u, m) in shard {
                    concurrent.user(u);
                    concurrent.merchant(m);
                }
            });
        }
    });
    if concurrent.num_users() != users.len() || concurrent.num_merchants() != merchants.len() {
        return Err("concurrently-driven sharded interner lost or invented keys".into());
    }
    for key in &users {
        let id = concurrent
            .find_user(key)
            .ok_or_else(|| format!("concurrently-driven interner lost `{key}`"))?;
        if concurrent.user_key(id) != *key {
            return Err(format!("concurrently-driven interner id for `{key}` inconsistent"));
        }
    }
    Ok(serial)
}

/// Pre-parses the log into `(user, merchant)` key pairs so interner
/// timing measures interning, not CSV splitting.
fn parse_log_pairs(log: &[u8]) -> Result<Vec<(String, String)>, String> {
    let text = std::str::from_utf8(log).map_err(|e| format!("log not UTF-8: {e}"))?;
    let mut pairs = Vec::new();
    for line in text.lines() {
        if let Some((u, m, _)) =
            parse_csv_record(line, ',').map_err(|e| format!("log line rejected: {e}"))?
        {
            pairs.push((u.to_string(), m.to_string()));
        }
    }
    Ok(pairs)
}

/// `warmup` unmeasured rounds, then `reps` measured ones with all
/// variants interleaved back-to-back within every rep; each variant's
/// allocation footprint is captured once, on the first measured rep.
fn time_ingest_variants(
    warmup: usize,
    reps: usize,
    variants: &mut [&mut dyn FnMut()],
) -> (Vec<Vec<f64>>, Vec<usize>) {
    for _ in 0..warmup {
        for v in variants.iter_mut() {
            v();
        }
    }
    let mut times = vec![Vec::with_capacity(reps); variants.len()];
    let mut bytes = vec![0usize; variants.len()];
    for rep in 0..reps {
        for (slot, v) in variants.iter_mut().enumerate() {
            let t = Instant::now();
            let (_, allocated, ()) = counted_alloc(&mut **v);
            times[slot].push(t.elapsed().as_secs_f64());
            if rep == 0 {
                bytes[slot] = allocated;
            }
        }
    }
    (times, bytes)
}

#[derive(Serialize)]
struct IngestCell {
    workload: String,
    variant: String,
    reps: usize,
    median_s: f64,
    p95_s: f64,
    min_s: f64,
    /// Throughput at the median wall time.
    records_per_sec: f64,
    /// Heap bytes requested during one run of this variant.
    alloc_bytes: usize,
}

/// Reduces one timed variant family (slot 0 = baseline) to its
/// [`IngestCell`]s and per-variant [`ScaleSpeedup`]s, printing console
/// rows.
#[allow(clippy::too_many_arguments)]
fn summarize_ingest_variants(
    workload: &str,
    names: &[String],
    times: &[Vec<f64>],
    alloc: &[usize],
    records: usize,
    reps: usize,
    cells: &mut Vec<IngestCell>,
    speedups: &mut Vec<ScaleSpeedup>,
) {
    let mut medians = vec![0.0f64; names.len()];
    for (slot, name) in names.iter().enumerate() {
        let mut t = times[slot].clone();
        t.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        medians[slot] = median(&t);
        cells.push(IngestCell {
            workload: workload.to_string(),
            variant: name.clone(),
            reps,
            median_s: medians[slot],
            p95_s: percentile(&t, 0.95),
            min_s: t[0],
            records_per_sec: records as f64 / medians[slot].max(1e-12),
            alloc_bytes: alloc[slot],
        });
    }
    for slot in 0..names.len() {
        let line = format!(
            "{:<9} {:<14} {:>9.3} ms  {:>9.0} rec/s  {:>7.1} MiB alloc",
            workload,
            names[slot],
            medians[slot] * 1e3,
            records as f64 / medians[slot].max(1e-12),
            alloc[slot] as f64 / (1024.0 * 1024.0),
        );
        if slot == 0 {
            println!("{line}");
            continue;
        }
        let mut ratios: Vec<f64> = times[0]
            .iter()
            .zip(&times[slot])
            .map(|(b, v)| b / v.max(1e-12))
            .collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
        let speedup = median(&ratios);
        println!("{line}  speedup {speedup:.2}x");
        speedups.push(ScaleSpeedup {
            workload: workload.to_string(),
            baseline: names[0].clone(),
            variant: names[slot].clone(),
            speedup,
        });
    }
}

#[derive(Serialize)]
struct IngestArtifact {
    schema: &'static str,
    smoke: bool,
    /// Population divisor of the jd3 graph behind the log.
    scale: u32,
    warmup: usize,
    reps: usize,
    workers: usize,
    /// What the machine actually offered; with one core the parallel
    /// loader honestly lands near (or below) 1× and that is the number
    /// recorded.
    available_parallelism: usize,
    /// Data records in the generated transaction log.
    records: usize,
    /// Distinct `(user, merchant)` pairs — the weighted edge count after
    /// amount-summing.
    distinct_pairs: usize,
    log_bytes: usize,
    equivalence: &'static str,
    dataset: DatasetInfo,
    cells: Vec<IngestCell>,
    speedups: Vec<ScaleSpeedup>,
}

/// Drives the HTTP service's v1 surface over a real socket: ingest a
/// small ring, submit an async scan job, poll it to completion, read the
/// latest result. Any deviation is a hard error.
fn service_smoke() -> Result<(), String> {
    use ensemfdet::{EnsemFdetConfig as DetCfg, MonitorConfig};
    use ensemfdet_service::{Api, ApiConfig, Server};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    let api = Api::new(ApiConfig {
        monitor: MonitorConfig {
            detector: DetCfg {
                num_samples: 8,
                sample_ratio: 0.5,
                seed: ENSEMBLE_SEED,
                ..Default::default()
            },
            scan_interval: 1_000_000,
            alert_threshold: 4,
            min_transactions: 0,
        },
        ..Default::default()
    });
    let server = Server::bind("127.0.0.1:0", api)
        .map_err(|e| format!("bind: {e}"))?
        .start()
        .map_err(|e| format!("start: {e}"))?;
    let addr = server.addr();

    let roundtrip = |raw: String| -> Result<String, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("timeout: {e}"))?;
        stream.write_all(raw.as_bytes()).map_err(|e| format!("send: {e}"))?;
        let mut out = String::new();
        stream.read_to_string(&mut out).map_err(|e| format!("recv: {e}"))?;
        Ok(out)
    };
    let expect = |resp: &str, status: &str, step: &str| -> Result<(), String> {
        if resp.starts_with(&format!("HTTP/1.1 {status}")) {
            Ok(())
        } else {
            Err(format!("{step}: expected {status}, got: {resp}"))
        }
    };

    let mut records = Vec::new();
    for b in 0..8 {
        for s in 0..5 {
            records.push(format!("[\"bot-{b}\",\"ring-{s}\"]"));
        }
    }
    for p in 0..60 {
        records.push(format!("[\"pin-{p}\",\"store-{}\"]", p % 20));
    }
    let body = format!("{{\"records\":[{}]}}", records.join(","));
    let resp = roundtrip(format!(
        "POST /v1/transactions HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    ))?;
    expect(&resp, "200", "POST /v1/transactions")?;

    // NDJSON bulk path on the same endpoint: one record per line, and a
    // malformed line must 400 with its 1-based line number without
    // ingesting anything.
    let nd_body: String = (0..10)
        .map(|p| format!("[\"pin-nd-{p}\",\"store-{}\"]\n", p % 20))
        .collect();
    let resp = roundtrip(format!(
        "POST /v1/transactions HTTP/1.1\r\ncontent-type: application/x-ndjson\r\n\
         content-length: {}\r\n\r\n{nd_body}",
        nd_body.len()
    ))?;
    expect(&resp, "200", "POST /v1/transactions (ndjson)")?;
    let bad = "[\"only-one-field\"]\n";
    let resp = roundtrip(format!(
        "POST /v1/transactions HTTP/1.1\r\ncontent-type: application/x-ndjson\r\n\
         content-length: {}\r\n\r\n{bad}",
        bad.len()
    ))?;
    expect(&resp, "400", "POST bad NDJSON line")?;
    if !resp.contains("\"line\":1") {
        return Err(format!("bad NDJSON line not pinpointed: {resp}"));
    }

    let submit = |body: &str| -> Result<u64, String> {
        let resp = roundtrip(format!(
            "POST /v1/scans HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ))?;
        expect(&resp, "202", "POST /v1/scans")?;
        resp.split("\"job_id\":")
            .nth(1)
            .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("no job_id in: {resp}"))
    };
    let poll_done = |job_id: u64| -> Result<String, String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let resp = roundtrip(format!("GET /v1/scans/{job_id} HTTP/1.1\r\n\r\n"))?;
            expect(&resp, "200", "GET /v1/scans/{id}")?;
            if resp.contains("\"status\":\"done\"") {
                return Ok(resp);
            }
            if resp.contains("\"status\":\"failed\"") {
                return Err(format!("scan job failed: {resp}"));
            }
            if Instant::now() > deadline {
                return Err(format!("scan job never finished: {resp}"));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    };

    let resp = poll_done(submit("{}")?)?;
    if !resp.contains("bot-") {
        return Err(format!("scan flagged no ring accounts: {resp}"));
    }
    // A per-scan workers override must run and echo the effective count.
    let resp = poll_done(submit("{\"workers\":2}")?)?;
    if !resp.contains("\"workers\":2") {
        return Err(format!("workers override not echoed in result: {resp}"));
    }
    // A per-scan scoring override must run the hybrid pass and echo the
    // component breakdown in the result.
    let resp = poll_done(submit("{\"scoring\":{\"hybrid_threshold\":0.5}}")?)?;
    if !resp.contains("\"scoring\"") || !resp.contains("\"hybrid_flagged\"") {
        return Err(format!("scoring override not echoed in result: {resp}"));
    }
    if !resp.contains("\"account_scores\"") {
        return Err(format!("scoring result missing component scores: {resp}"));
    }

    // text/csv bulk path: `user,merchant[,amount]` lines with comments,
    // duplicates, and the same per-line error contract as NDJSON. Runs
    // after the scan assertions so the extra accounts cannot perturb the
    // seeded sample draws those scans are checked against.
    let csv_body: String = std::iter::once("# csv batch\n".to_string())
        .chain((0..10).map(|p| format!("pin-csv-{p},store-{},4.25\n", p % 20)))
        .chain(std::iter::once("pin-csv-0,store-0,1.75\n".to_string()))
        .collect();
    let resp = roundtrip(format!(
        "POST /v1/transactions HTTP/1.1\r\ncontent-type: text/csv\r\n\
         content-length: {}\r\n\r\n{csv_body}",
        csv_body.len()
    ))?;
    expect(&resp, "200", "POST /v1/transactions (csv)")?;
    if !resp.contains("\"ingested\":11") {
        return Err(format!("csv ingest miscounted records: {resp}"));
    }
    let bad_csv = "no-merchant-field\n";
    let resp = roundtrip(format!(
        "POST /v1/transactions HTTP/1.1\r\ncontent-type: text/csv\r\n\
         content-length: {}\r\n\r\n{bad_csv}",
        bad_csv.len()
    ))?;
    expect(&resp, "400", "POST bad CSV line")?;
    if !resp.contains("\"line\":1") {
        return Err(format!("bad CSV line not pinpointed: {resp}"));
    }

    let resp = roundtrip("GET /v1/scans/latest HTTP/1.1\r\n\r\n".into())?;
    expect(&resp, "200", "GET /v1/scans/latest")?;
    let resp = roundtrip("GET /v1/config HTTP/1.1\r\n\r\n".into())?;
    expect(&resp, "200", "GET /v1/config")?;
    if !resp.contains("\"workers\"") {
        return Err(format!("config page missing workers: {resp}"));
    }
    let resp = roundtrip("GET /metrics HTTP/1.1\r\n\r\n".into())?;
    expect(&resp, "200", "GET /metrics")?;
    if !resp.contains("ensemfdet_scans_total 3") {
        return Err(format!("scans not counted in metrics: {resp}"));
    }
    if !resp.contains("ensemfdet_scans_hybrid_total 1") {
        return Err(format!("hybrid scan not counted in metrics: {resp}"));
    }
    if !resp.contains("ensemfdet_ingest_load_duration_seconds_count{format=\"csv\"} 1") {
        return Err(format!("csv bulk load not recorded in metrics: {resp}"));
    }
    if !resp.contains("ensemfdet_interner_keys_total{side=\"user\"}") {
        return Err(format!("interner gauges missing from metrics: {resp}"));
    }
    server.shutdown();
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // Artifact paths: `--out…` flags, else the committed file names —
    // inside a fresh temporary directory under `--smoke`.
    let out_dir = if smoke {
        let dir =
            std::env::temp_dir().join(format!("ensemfdet_bench_smoke_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the smoke output directory");
        dir
    } else {
        std::path::PathBuf::from(".")
    };
    let out = |flag: &str, default: &str| -> String {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
            .unwrap_or_else(|| out_dir.join(default).to_string_lossy().into_owned())
    };
    let out_path = out("--out", "BENCH_PR2.json");
    let out_sampling = out("--out-sampling", "BENCH_PR4.json");
    let out_incremental = out("--out-incremental", "BENCH_PR7.json");
    let out_scale = out("--out-scale", "BENCH_PR8.json");
    let out_hybrid = out("--out-hybrid", "BENCH_PR9.json");
    let out_ingest = out("--out-ingest", "BENCH_PR10.json");
    // Smoke mode: tiny datasets, minimal repetitions — a CI-speed check
    // that the harness runs end-to-end and the engines stay equivalent.
    let scale = if smoke { 400 } else { resolve_scale(&args) };
    let (warmup, reps) = if smoke { (1, 2) } else { (2, 7) };

    println!(
        "== bench_suite: bucket vs naive peeling engines (scale 1/{scale}{}) ==\n",
        if smoke { ", smoke" } else { "" }
    );

    let suite: Vec<(JdDataset, ensemfdet_datagen::Dataset)> = [JdDataset::Jd1, JdDataset::Jd3]
        .into_iter()
        .map(|w| (w, datasets::load(w, scale)))
        .collect();

    let mut infos = Vec::new();
    for (which, ds) in &suite {
        println!(
            "{}: {} users, {} merchants, {} edges",
            dataset_tag(*which),
            ds.graph.num_users(),
            ds.graph.num_merchants(),
            ds.graph.num_edges()
        );
        infos.push(DatasetInfo {
            name: dataset_tag(*which),
            users: ds.graph.num_users(),
            merchants: ds.graph.num_merchants(),
            edges: ds.graph.num_edges(),
        });
        print!("equivalence gate (engines) ... ");
        if let Err(e) = equivalence_gate(&ds.graph) {
            println!("FAILED");
            eprintln!("engine equivalence gate failed on {}: {e}", dataset_tag(*which));
            std::process::exit(1);
        }
        println!("ok");
        print!("equivalence gate (sampling paths) ... ");
        if let Err(e) = sampling_equivalence_gate(&ds.graph) {
            println!("FAILED");
            eprintln!(
                "sampling-path equivalence gate failed on {}: {e}",
                dataset_tag(*which)
            );
            std::process::exit(1);
        }
        println!("ok");
    }
    let service = if smoke {
        print!("service v1 smoke ... ");
        if let Err(e) = service_smoke() {
            println!("FAILED");
            eprintln!("service smoke failed: {e}");
            std::process::exit(1);
        }
        println!("ok");
        "ok"
    } else {
        "skipped"
    };
    println!();

    let mut cells = Vec::new();
    let mut speedups = Vec::new();
    for w in WORKLOADS {
        for (which, ds) in &suite {
            let (naive, bucket) = time_workload_pair(w.kind, &ds.graph, warmup, reps);
            // Speedup = median of the per-pair ratios, so slow background
            // drift (which hits both halves of a pair equally) cancels.
            let mut ratios: Vec<f64> = naive
                .iter()
                .zip(&bucket)
                .map(|(n, b)| n / b.max(1e-12))
                .collect();
            ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
            let ratio = median(&ratios);
            let mut medians = [0.0f64; 2];
            for (slot, (engine, times)) in
                [("naive", naive), ("bucket", bucket)].into_iter().enumerate()
            {
                let mut times = times;
                times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
                medians[slot] = median(&times);
                cells.push(Cell {
                    workload: w.name,
                    dataset: dataset_tag(*which),
                    engine,
                    reps,
                    median_s: median(&times),
                    p95_s: percentile(&times, 0.95),
                    min_s: times[0],
                });
            }
            println!(
                "{:<16} {:<4} naive {:>9.3} ms  bucket {:>9.3} ms  speedup {:.2}x",
                w.name,
                dataset_tag(*which),
                medians[0] * 1e3,
                medians[1] * 1e3,
                ratio
            );
            speedups.push(Speedup {
                workload: w.name,
                dataset: dataset_tag(*which),
                bucket_over_naive: ratio,
            });
        }
    }

    let artifact = Artifact {
        schema: "ensemfdet-bench-suite/v1",
        smoke,
        scale,
        warmup,
        reps,
        ensemble_samples: ENSEMBLE_SAMPLES,
        equivalence: "ok",
        service_smoke: service,
        datasets: infos.clone(),
        cells,
        speedups,
    };
    match ensemfdet_eval::write_json(&artifact, &out_path) {
        Ok(()) => println!("\n[saved {out_path}]"),
        Err(e) => {
            eprintln!("cannot write {out_path}: {e}");
            std::process::exit(1);
        }
    }

    // -- Sampling-path phase ------------------------------------------------
    println!("\n== bench_suite: mask vs materialize sampling paths ==\n");
    let mut path_cells = Vec::new();
    let mut path_speedups = Vec::new();
    for ratio in SAMPLING_RATIOS {
        for (which, ds) in &suite {
            let (materialize, mask, bytes) =
                time_sampling_pair(ratio, &ds.graph, warmup, reps);
            let (dp_materialize, dp_mask) = time_data_path_pair(ratio, &ds.graph, warmup, reps);
            for (workload, materialize, mask) in [
                (format!("ensemble_s{ratio:.2}"), materialize, mask),
                (format!("sampling_s{ratio:.2}"), dp_materialize, dp_mask),
            ] {
                let mut ratios: Vec<f64> = materialize
                    .iter()
                    .zip(&mask)
                    .map(|(m, k)| m / k.max(1e-12))
                    .collect();
                ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
                let speedup = median(&ratios);
                let mut medians = [0.0f64; 2];
                for (slot, (path, times)) in [("materialize", materialize), ("mask", mask)]
                    .into_iter()
                    .enumerate()
                {
                    let mut times = times;
                    times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
                    medians[slot] = median(&times);
                    path_cells.push(PathCell {
                        workload: workload.clone(),
                        dataset: dataset_tag(*which),
                        path,
                        reps,
                        median_s: median(&times),
                        p95_s: percentile(&times, 0.95),
                        min_s: times[0],
                        sample_bytes: bytes[slot],
                    });
                }
                println!(
                    "{:<16} {:<4} materialize {:>9.3} ms  mask {:>9.3} ms  speedup {:.2}x  bytes {:.0}x",
                    workload,
                    dataset_tag(*which),
                    medians[0] * 1e3,
                    medians[1] * 1e3,
                    speedup,
                    bytes[0] as f64 / bytes[1].max(1) as f64,
                );
                path_speedups.push(PathSpeedup {
                    workload: workload.clone(),
                    dataset: dataset_tag(*which),
                    mask_over_materialize: speedup,
                    bytes_ratio: bytes[0] as f64 / bytes[1].max(1) as f64,
                });
            }
        }
    }
    let sampling_artifact = SamplingArtifact {
        schema: "ensemfdet-sampling-path/v1",
        smoke,
        scale,
        warmup,
        reps,
        ensemble_samples: ENSEMBLE_SAMPLES,
        equivalence: "ok",
        datasets: infos,
        cells: path_cells,
        speedups: path_speedups,
    };
    match ensemfdet_eval::write_json(&sampling_artifact, &out_sampling) {
        Ok(()) => println!("\n[saved {out_sampling}]"),
        Err(e) => {
            eprintln!("cannot write {out_sampling}: {e}");
            std::process::exit(1);
        }
    }

    // -- Incremental-scan phase ---------------------------------------------
    println!("\n== bench_suite: full vs incremental scans on a ramping campaign ==\n");
    let policy = IncrementalPolicy::default();
    let mut inc_infos = Vec::new();
    let mut inc_cells = Vec::new();
    let mut inc_speedups = Vec::new();
    for which in [JdDataset::Jd1, JdDataset::Jd3] {
        let scenario = build_ramp(which, scale);
        let last = scenario.snapshots.last().expect("at least the base epoch");
        let ratio = incremental_ratio(last.graph.num_users());
        println!(
            "{}: {} users, {} merchants, {} edges at the final epoch ({} epochs, ratio {:.4})",
            dataset_tag(which),
            last.graph.num_users(),
            last.graph.num_merchants(),
            last.graph.num_edges(),
            scenario.snapshots.len(),
            ratio,
        );
        inc_infos.push(DatasetInfo {
            name: dataset_tag(which),
            users: last.graph.num_users(),
            merchants: last.graph.num_merchants(),
            edges: last.graph.num_edges(),
        });
        print!("equivalence gate (incremental vs full) ... ");
        if let Err(e) = incremental_gate(&scenario, ratio, &policy) {
            println!("FAILED");
            eprintln!(
                "incremental equivalence gate failed on {}: {e}",
                dataset_tag(which)
            );
            std::process::exit(1);
        }
        println!("ok");

        let timings = time_incremental_pair(&scenario, ratio, &policy, warmup, reps);
        let mut reuse_ratios = Vec::new();
        let (mut n_incremental, mut n_fallback) = (0usize, 0usize);
        for (e, (stats, transactions)) in timings.reuse.iter().enumerate() {
            let mut ratios: Vec<f64> = timings.full[e]
                .iter()
                .zip(&timings.incremental[e])
                .map(|(f, i)| f / i.max(1e-12))
                .collect();
            ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
            let ratio = median(&ratios);
            if stats.incremental {
                n_incremental += 1;
                reuse_ratios.push(ratio);
            } else {
                n_fallback += 1;
            }
            let sorted = |times: &[f64]| {
                let mut t = times.to_vec();
                t.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
                t
            };
            let (full_sorted, inc_sorted) =
                (sorted(&timings.full[e]), sorted(&timings.incremental[e]));
            let snapshot = &scenario.snapshots[e];
            println!(
                "epoch {:<2} {:<4} full {:>8.3} ms  incremental {:>8.3} ms ({:.2}x)  \
                 {:>2}/{:<2} reused  delta {:>4} nodes ({:.1}%){}",
                snapshot.epoch,
                dataset_tag(which),
                median(&full_sorted) * 1e3,
                median(&inc_sorted) * 1e3,
                ratio,
                stats.samples_reused,
                ENSEMBLE_SAMPLES,
                stats.delta_touched_nodes,
                stats.delta_touched_fraction * 100.0,
                match stats.fallback {
                    Some(r) => format!("  [{}]", r.name()),
                    None => String::new(),
                },
            );
            inc_cells.push(IncrementalCell {
                dataset: dataset_tag(which),
                epoch: snapshot.epoch,
                transactions: *transactions,
                mode: if stats.incremental { "incremental" } else { "full" },
                fallback: stats.fallback.map(|r| r.name()),
                samples_reused: stats.samples_reused,
                samples_repeeled: stats.samples_repeeled,
                delta_touched_nodes: stats.delta_touched_nodes,
                delta_touched_fraction: stats.delta_touched_fraction,
                reps,
                full_median_s: median(&full_sorted),
                incremental_median_s: median(&inc_sorted),
                full_over_incremental: ratio,
            });
        }
        reuse_ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
        let overall = if reuse_ratios.is_empty() { 1.0 } else { median(&reuse_ratios) };
        println!(
            "{}: incremental speedup {:.2}x over {} reuse epochs ({} fallback)",
            dataset_tag(which),
            overall,
            n_incremental,
            n_fallback,
        );
        inc_speedups.push(IncrementalSpeedup {
            dataset: dataset_tag(which),
            sample_ratio: ratio,
            full_over_incremental: overall,
            epochs_incremental: n_incremental,
            epochs_fallback: n_fallback,
        });
    }
    let incremental_artifact = IncrementalArtifact {
        schema: "ensemfdet-incremental-scan/v1",
        smoke,
        scale,
        warmup,
        reps,
        ensemble_samples: ENSEMBLE_SAMPLES,
        sample_target_users: SAMPLE_TARGET_USERS,
        ramp_epochs: RAMP_EPOCHS,
        max_touched_fraction: policy.max_touched_fraction,
        equivalence: "votes and flagged set bit-identical per epoch",
        datasets: inc_infos,
        cells: inc_cells,
        speedups: inc_speedups,
    };
    match ensemfdet_eval::write_json(&incremental_artifact, &out_incremental) {
        Ok(()) => println!("\n[saved {out_incremental}]"),
        Err(e) => {
            eprintln!("cannot write {out_incremental}: {e}");
            std::process::exit(1);
        }
    }

    // -- Full-scale phase ---------------------------------------------------
    let scale_divisor = if smoke { scale } else { SCALE_DIVISOR };
    let workers = scale_workers();
    let available = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "\n== bench_suite: full-JD-scale sharded build + parallel ensemble \
         (jd3 at 1/{scale_divisor}, {workers} workers, {available} cores) ==\n"
    );
    let ds = datasets::load(JdDataset::Jd3, scale_divisor);
    let g = &ds.graph;
    println!(
        "jd3: {} users, {} merchants, {} edges",
        g.num_users(),
        g.num_merchants(),
        g.num_edges()
    );
    print!("equivalence gate (sharded build / worker pool / ingest parsers) ... ");
    if let Err(e) = scale_equivalence_gate(g, workers) {
        println!("FAILED");
        eprintln!("full-scale equivalence gate failed: {e}");
        std::process::exit(1);
    }
    println!("ok\n");

    let mut scale_cells = Vec::new();
    let mut scale_speedups = Vec::new();
    let sharded_name = format!("sharded_w{workers}");
    {
        let mut seq_view = CsrView::new();
        let mut shard_view = CsrView::new();
        let (base, var) = time_variant_pair(
            warmup,
            reps,
            || {
                seq_view.rebuild(g, None);
                std::hint::black_box(seq_view.num_edges());
            },
            || {
                shard_view.rebuild_sharded(g, workers);
                std::hint::black_box(shard_view.num_edges());
            },
        );
        summarize_scale_pair(
            "csr_build",
            ["sequential", &sharded_name],
            base,
            var,
            reps,
            &mut scale_cells,
            &mut scale_speedups,
        );
    }
    let workers_name = format!("workers_{workers}");
    for ratio in SCALE_RATIOS {
        let cfg = EnsemFdetConfig {
            num_samples: ENSEMBLE_SAMPLES,
            sample_ratio: ratio,
            seed: ENSEMBLE_SEED,
            ..Default::default()
        };
        let (base, var) = time_variant_pair(
            warmup,
            reps,
            || {
                std::hint::black_box(
                    EnsemFdet::with_workers(cfg, 1).detect(g).votes.max_user_votes(),
                );
            },
            || {
                std::hint::black_box(
                    EnsemFdet::with_workers(cfg, workers).detect(g).votes.max_user_votes(),
                );
            },
        );
        summarize_scale_pair(
            &format!("ensemble_s{ratio:.2}"),
            ["workers_1", &workers_name],
            base,
            var,
            reps,
            &mut scale_cells,
            &mut scale_speedups,
        );
    }
    // The mask path's allocator-contention win: under the worker pool,
    // materialize builds every sample as its own compacted subgraph —
    // N threads hammering the global allocator — while mask threads only
    // write selection vectors over the shared parent CSR.
    {
        let cfg_of = |path| EnsemFdetConfig {
            num_samples: ENSEMBLE_SAMPLES,
            sample_ratio: SCALE_RATIOS[1],
            path,
            seed: ENSEMBLE_SEED,
            ..Default::default()
        };
        let (base, var) = time_variant_pair(
            warmup,
            reps,
            || {
                std::hint::black_box(
                    EnsemFdet::with_workers(cfg_of(SamplePath::Materialize), workers)
                        .detect(g)
                        .votes
                        .max_user_votes(),
                );
            },
            || {
                std::hint::black_box(
                    EnsemFdet::with_workers(cfg_of(SamplePath::Mask), workers)
                        .detect(g)
                        .votes
                        .max_user_votes(),
                );
            },
        );
        summarize_scale_pair(
            &format!("pool_path_s{:.2}", SCALE_RATIOS[1]),
            [&format!("materialize_w{workers}"), &format!("mask_w{workers}")],
            base,
            var,
            reps,
            &mut scale_cells,
            &mut scale_speedups,
        );
    }
    let ingest_records = if smoke { INGEST_RECORDS_SMOKE } else { INGEST_RECORDS };
    let records: Vec<(String, String)> = (0..ingest_records)
        .map(|i| (format!("user-{i}"), format!("store-{}", i % 9973)))
        .collect();
    let (json_body, ndjson_body) = ingest_bodies(&records);
    {
        let (base, var) = time_variant_pair(
            warmup,
            reps,
            || {
                std::hint::black_box(parse_json_records(&json_body).expect("gated").len());
            },
            || {
                std::hint::black_box(parse_ndjson_records(&ndjson_body).expect("gated").len());
            },
        );
        summarize_scale_pair(
            "ingest_parse",
            ["json_array", "ndjson"],
            base,
            var,
            reps,
            &mut scale_cells,
            &mut scale_speedups,
        );
    }
    let scale_artifact = ScaleArtifact {
        schema: "ensemfdet-full-scale/v1",
        smoke,
        scale: scale_divisor,
        warmup,
        reps,
        ensemble_samples: ENSEMBLE_SAMPLES,
        workers,
        available_parallelism: available,
        ingest_records,
        ingest_json_bytes: json_body.len(),
        ingest_ndjson_bytes: ndjson_body.len(),
        equivalence: "sharded build and worker pool bit-identical; ingest parsers agree",
        dataset: DatasetInfo {
            name: "jd3",
            users: g.num_users(),
            merchants: g.num_merchants(),
            edges: g.num_edges(),
        },
        cells: scale_cells,
        speedups: scale_speedups,
    };
    match ensemfdet_eval::write_json(&scale_artifact, &out_scale) {
        Ok(()) => println!("\n[saved {out_scale}]"),
        Err(e) => {
            eprintln!("cannot write {out_scale}: {e}");
            std::process::exit(1);
        }
    }

    // -- Hybrid-scoring phase -----------------------------------------------
    println!(
        "\n== bench_suite: camouflage ablation — single methods vs calibrated hybrid \
         (jd1 at 1/{scale}) ==\n"
    );
    print!("equivalence gate (detector registry / fusion corners) ... ");
    if let Err(e) = hybrid_equivalence_gate(&suite[0].1.graph) {
        println!("FAILED");
        eprintln!("hybrid equivalence gate failed: {e}");
        std::process::exit(1);
    }
    println!("ok\n");

    let mut hybrid_cells = Vec::new();
    let mut hybrid_levels = Vec::new();
    let mut violations = Vec::new();
    for camo in CAMO_LEVELS {
        let mut cfg = jd_preset(JdDataset::Jd1, scale, 0xCA30);
        for gcfg in &mut cfg.fraud_groups {
            gcfg.camouflage_per_user = camo;
        }
        let ds = generate(&cfg);
        let labels = ds.labels();
        let outcome = methods::run_ensemfdet(
            &ds.graph,
            EnsemFdetConfig {
                num_samples: HYBRID_SAMPLES,
                sample_ratio: HYBRID_RATIO,
                seed: HYBRID_SEED,
                ..Default::default()
            },
        );

        let mut singles: Vec<(String, f64, f64)> = Vec::new();
        let vote_curve = methods::ensemfdet_curve(&outcome, &labels);
        singles.push(("ensemfdet".into(), vote_curve.best_f1(), vote_curve.auc_pr()));
        for (name, curve) in methods::detector_curves(&ds.graph, &labels) {
            singles.push((name.into(), curve.best_f1(), curve.auc_pr()));
        }
        let (cal, hybrid) =
            methods::hybrid_curve(&ds.graph, &outcome, &labels, &ScoringConfig::enabled());
        let (hybrid_f1, hybrid_auc) = (hybrid.best_f1(), hybrid.auc_pr());

        let (mut best_name, mut best_single) = (String::new(), f64::NEG_INFINITY);
        for (name, f1, auc) in &singles {
            hybrid_cells.push(HybridCell {
                camouflage_per_user: camo,
                method: name.clone(),
                best_f1: *f1,
                auc_pr: *auc,
            });
            if *f1 > best_single {
                best_single = *f1;
                best_name = name.clone();
            }
            if hybrid_f1 + HYBRID_EPS < *f1 {
                violations.push(format!(
                    "camo {camo}: hybrid best F1 {hybrid_f1:.4} below {name} {f1:.4}"
                ));
            }
        }
        hybrid_cells.push(HybridCell {
            camouflage_per_user: camo,
            method: "hybrid".into(),
            best_f1: hybrid_f1,
            auc_pr: hybrid_auc,
        });
        let weights = cal.config.weights();
        println!(
            "camo {:<2} hybrid F1 {:.3} (weights {:.1}/{:.1}/{:.1})  best single: {} {:.3}  \
             margin {:+.3}",
            camo,
            hybrid_f1,
            weights[0],
            weights[1],
            weights[2],
            best_name,
            best_single,
            hybrid_f1 - best_single,
        );
        hybrid_levels.push(HybridLevel {
            camouflage_per_user: camo,
            hybrid_best_f1: hybrid_f1,
            hybrid_auc_pr: hybrid_auc,
            calibrated_weights: weights,
            best_single_method: best_name,
            best_single_f1: best_single,
            margin: hybrid_f1 - best_single,
        });
    }
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("hybrid dominance violated — {v}");
        }
        std::process::exit(1);
    }
    println!("\nhybrid at-or-above every single method at every camouflage level");

    let hybrid_artifact = HybridArtifact {
        schema: "ensemfdet-hybrid-scoring/v1",
        smoke,
        scale,
        ensemble_samples: HYBRID_SAMPLES,
        sample_ratio: HYBRID_RATIO,
        camouflage_levels: CAMO_LEVELS.to_vec(),
        equivalence: "detector adapters rank-identical to bespoke entry points; \
                      fusion corners reproduce component rankings",
        dominance: "hybrid best F1 >= every single method at every camouflage level",
        cells: hybrid_cells,
        levels: hybrid_levels,
    };
    match ensemfdet_eval::write_json(&hybrid_artifact, &out_hybrid) {
        Ok(()) => println!("\n[saved {out_hybrid}]"),
        Err(e) => {
            eprintln!("cannot write {out_hybrid}: {e}");
            std::process::exit(1);
        }
    }

    // -- Parallel bulk-ingest phase -----------------------------------------
    println!(
        "\n== bench_suite: arena interners + chunked weighted CSV loading \
         (jd3 at 1/{scale_divisor}, {workers} workers) ==\n"
    );
    let log_cfg = TransactionLogConfig {
        seed: ENSEMBLE_SEED,
        ..Default::default()
    };
    let (log, log_summary) = transaction_log_string(&ds, &log_cfg);
    let log_bytes = log.into_bytes();
    println!(
        "log: {} records over {} distinct (user, merchant) pairs, {:.1} MiB",
        log_summary.records,
        log_summary.distinct_pairs,
        log_bytes.len() as f64 / (1024.0 * 1024.0),
    );
    print!("equivalence gate (loader worker counts / interner ids / votes) ... ");
    let serial_load = match ingest_equivalence_gate(&log_bytes, workers) {
        Ok(l) => l,
        Err(e) => {
            println!("FAILED");
            eprintln!("ingest equivalence gate failed: {e}");
            std::process::exit(1);
        }
    };
    println!("ok\n");

    let mut ingest_cells = Vec::new();
    let mut ingest_speedups = Vec::new();

    // Interner comparison on pre-parsed key pairs: the contiguous arena
    // vs the sharded arena, both single-threaded (its routing overhead)
    // and across the worker pool (the contention-free concurrent path).
    let pairs = parse_log_pairs(&log_bytes).expect("gated");
    {
        let mut arena = || {
            let mut i = ArenaTransactionInterner::new();
            for (u, m) in &pairs {
                i.user(u);
                i.merchant(m);
            }
            std::hint::black_box(i.num_users());
        };
        let mut sharded_one = || {
            let i = ConcurrentTransactionInterner::new();
            for (u, m) in &pairs {
                i.user(u);
                i.merchant(m);
            }
            std::hint::black_box(i.num_users());
        };
        let mut sharded_pool = || {
            let i = ConcurrentTransactionInterner::new();
            std::thread::scope(|scope| {
                for shard in pairs.chunks(pairs.len().div_ceil(workers)) {
                    let i = &i;
                    scope.spawn(move || {
                        for (u, m) in shard {
                            i.user(u);
                            i.merchant(m);
                        }
                    });
                }
            });
            std::hint::black_box(i.num_users());
        };
        let (times, alloc) = time_ingest_variants(
            warmup,
            reps,
            &mut [&mut arena, &mut sharded_one, &mut sharded_pool],
        );
        let names = vec![
            "arena".to_string(),
            "sharded_w1".to_string(),
            format!("sharded_w{workers}"),
        ];
        summarize_ingest_variants(
            "intern",
            &names,
            &times,
            &alloc,
            pairs.len(),
            reps,
            &mut ingest_cells,
            &mut ingest_speedups,
        );
    }

    // The chunked loader end to end (split → parse → merge → weighted
    // graph), serial vs every swept worker count.
    {
        let counts = ingest_worker_counts(workers);
        let mut fns: Vec<Box<dyn FnMut()>> = counts
            .iter()
            .map(|&w| {
                let log_bytes = &log_bytes;
                Box::new(move || {
                    let l = load_transactions(
                        log_bytes,
                        &LoadOptions {
                            workers: w,
                            ..Default::default()
                        },
                    )
                    .expect("gated");
                    std::hint::black_box(l.graph.num_edges());
                }) as Box<dyn FnMut()>
            })
            .collect();
        let mut refs: Vec<&mut dyn FnMut()> =
            fns.iter_mut().map(|b| b.as_mut() as &mut dyn FnMut()).collect();
        let (times, alloc) = time_ingest_variants(warmup, reps, &mut refs);
        let names: Vec<String> = counts
            .iter()
            .map(|&w| if w == 1 { "serial".to_string() } else { format!("workers_{w}") })
            .collect();
        summarize_ingest_variants(
            "load_csv",
            &names,
            &times,
            &alloc,
            log_summary.records,
            reps,
            &mut ingest_cells,
            &mut ingest_speedups,
        );
    }

    let ingest_artifact = IngestArtifact {
        schema: "ensemfdet-parallel-ingest/v1",
        smoke,
        scale: scale_divisor,
        warmup,
        reps,
        workers,
        available_parallelism: available,
        records: log_summary.records,
        distinct_pairs: log_summary.distinct_pairs,
        log_bytes: log_bytes.len(),
        equivalence: "ids, weights (f64 bits), and votes bit-identical for every \
                      worker count; sharded interner id-identical to serial",
        dataset: DatasetInfo {
            name: "jd3",
            users: serial_load.graph.num_users(),
            merchants: serial_load.graph.num_merchants(),
            edges: serial_load.graph.num_edges(),
        },
        cells: ingest_cells,
        speedups: ingest_speedups,
    };
    match ensemfdet_eval::write_json(&ingest_artifact, &out_ingest) {
        Ok(()) => println!("\n[saved {out_ingest}]"),
        Err(e) => {
            eprintln!("cannot write {out_ingest}: {e}");
            std::process::exit(1);
        }
    }
}
