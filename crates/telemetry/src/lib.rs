#![warn(missing_docs)]

//! Process-local telemetry for the detection service.
//!
//! Three primitives — [`Counter`], [`Gauge`], [`Histogram`] — all safe to
//! update from any thread without locks on the hot path, plus
//! [`StatusCounter`] (a small labelled counter behind a mutex, fine at
//! request rates) and [`ServiceMetrics`], the concrete metric set the HTTP
//! service exposes at `GET /metrics` in the Prometheus text exposition
//! format (version 0.0.4).
//!
//! No dependencies, no global registry: whoever owns a [`ServiceMetrics`]
//! decides where its numbers go. The ensemble's per-sample wall-clock
//! ([`SampleSummary::elapsed`]-style data) feeds the
//! `ensemfdet_scan_sample_duration_seconds` histogram via
//! [`ServiceMetrics::record_scan`].
//!
//! [`SampleSummary::elapsed`]: https://docs.rs/ensemfdet

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The content type Prometheus scrapers expect from a text-format endpoint.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous value that can go up and down (queue depth, busy
/// workers).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Default latency bucket upper bounds, in seconds: sub-millisecond up to
/// ten seconds, roughly log-spaced — wide enough for both a `/v1/health` hit
/// and a full ensemble scan.
pub const DEFAULT_LATENCY_BOUNDS: [f64; 14] = [
    0.000_25, 0.000_5, 0.001, 0.002_5, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
];

/// A fixed-bucket histogram of seconds.
///
/// Buckets are chosen at construction and never change, so observation is
/// a binary search plus two relaxed atomic adds — no locks, no allocation.
#[derive(Debug)]
pub struct Histogram {
    /// Upper bounds (`le`), strictly increasing; a `+Inf` bucket is
    /// implicit.
    bounds: Vec<f64>,
    /// Non-cumulative per-bucket counts; `buckets[bounds.len()]` is `+Inf`.
    buckets: Vec<AtomicU64>,
    /// Sum of all observations, in nanoseconds.
    sum_nanos: AtomicU64,
}

impl Histogram {
    /// A histogram over the given upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, non-finite, or not strictly increasing.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "bucket bounds must be finite and strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_nanos: AtomicU64::new(0),
        }
    }

    /// A histogram over [`DEFAULT_LATENCY_BOUNDS`].
    pub fn latency() -> Self {
        Self::new(&DEFAULT_LATENCY_BOUNDS)
    }

    /// Records one observation, in seconds (negatives clamp to zero).
    pub fn observe(&self, seconds: f64) {
        let s = seconds.max(0.0);
        let idx = self.bounds.partition_point(|&b| b < s);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos
            .fetch_add((s * 1e9).round() as u64, Ordering::Relaxed);
    }

    /// Records one duration.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Number of observations (derived from one [`snapshot`](Self::snapshot)).
    pub fn count(&self) -> u64 {
        self.snapshot().count()
    }

    /// Sum of observations in seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Copies every bucket cell in one pass. All derived figures — the
    /// cumulative rows *and* the total count — must come from a single
    /// snapshot: loading cells on demand lets a concurrent `observe` land
    /// between two loads, so a scrape could expose a `+Inf` bucket that
    /// disagrees with `_count`, which Prometheus treats as a malformed
    /// histogram.
    pub fn snapshot(&self) -> HistogramSnapshot<'_> {
        HistogramSnapshot {
            bounds: &self.bounds,
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Cumulative `(upper_bound, count ≤ bound)` pairs; the final entry is
    /// the `+Inf` bucket, equal to the total count of the same snapshot.
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        self.snapshot().cumulative()
    }
}

/// A point-in-time copy of a [`Histogram`]'s bucket cells, from which the
/// exposition derives every per-scrape figure consistently.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot<'a> {
    bounds: &'a [f64],
    /// Non-cumulative cell values; the last entry is the `+Inf` bucket.
    buckets: Vec<u64>,
}

impl HistogramSnapshot<'_> {
    /// Total observations in this snapshot — always equal to the final
    /// (`+Inf`) entry of [`cumulative`](Self::cumulative) by construction.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Cumulative `(upper_bound, count ≤ bound)` pairs over this snapshot;
    /// the final entry is the `+Inf` bucket.
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(self.buckets.len());
        for (i, &b) in self.buckets.iter().enumerate() {
            acc += b;
            out.push((self.bounds.get(i).copied().unwrap_or(f64::INFINITY), acc));
        }
        out
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::latency()
    }
}

/// A counter labelled by `(route, status)` — a handful of cells behind a
/// mutex, which is plenty at HTTP request rates.
#[derive(Debug, Default)]
pub struct StatusCounter {
    cells: Mutex<BTreeMap<(&'static str, u16), u64>>,
}

impl StatusCounter {
    /// An empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one to the `(route, status)` cell.
    pub fn inc(&self, route: &'static str, status: u16) {
        let mut cells = self.cells.lock().expect("status counter poisoned");
        *cells.entry((route, status)).or_insert(0) += 1;
    }

    /// All cells, sorted by label.
    pub fn snapshot(&self) -> Vec<((&'static str, u16), u64)> {
        let cells = self.cells.lock().expect("status counter poisoned");
        cells.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// Sum over all cells.
    pub fn total(&self) -> u64 {
        self.snapshot().iter().map(|&(_, v)| v).sum()
    }

    /// Sum over cells matching a route.
    pub fn total_for_route(&self, route: &str) -> u64 {
        self.snapshot()
            .iter()
            .filter(|((r, _), _)| *r == route)
            .map(|&(_, v)| v)
            .sum()
    }
}

/// The full metric set of the detection service.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Requests served, by route and status.
    pub requests: StatusCounter,
    /// Connections shed because the accept queue was full.
    pub rejected: Counter,
    /// Connections currently waiting in the accept queue.
    pub queue_depth: Gauge,
    /// Workers currently handling a connection.
    pub workers_busy: Gauge,
    /// Wall-clock per HTTP request (read → handle → write).
    pub request_duration: Histogram,
    /// Wall-clock per ensemble scan.
    pub scan_duration: Histogram,
    /// Wall-clock per ensemble *sample* (N observations per scan).
    pub sample_duration: Histogram,
    /// CPU time per scan spent sampling (summed over the scan's samples).
    pub stage_sampling: Histogram,
    /// CPU time per scan spent in FDET detection (summed over samples).
    pub stage_detection: Histogram,
    /// Wall-clock per scan spent merging votes and evidence.
    pub stage_aggregation: Histogram,
    /// Transactions ingested via `POST /v1/transactions`.
    pub transactions_ingested: Counter,
    /// Detection scans run (manual and automatic).
    pub scans: Counter,
    /// New accounts alerted across all scans.
    pub alerts: Counter,
    /// Scan jobs waiting in the scan executor's queue.
    pub scan_queue_depth: Gauge,
    /// Scan jobs currently executing (0 or 1 with a single executor).
    pub scans_in_flight: Gauge,
    /// Scan jobs rejected because the scan queue was full (429s).
    pub scan_queue_rejected: Counter,
    /// Scan jobs that failed (detector panic or internal error).
    pub scans_failed: Counter,
    /// Epoch of the latest published graph snapshot.
    pub snapshot_epoch: Gauge,
    /// Transactions ingested since the latest snapshot was compacted
    /// (snapshot age, measured in transactions).
    pub snapshot_lag: Gauge,
    /// End-to-end scan-job latency (enqueue → published result).
    pub scan_job_duration: Histogram,
    /// Time scan jobs spend queued before the executor picks them up.
    pub scan_queue_wait: Histogram,
    /// Per-scan sampling-stage duration (spec drawing on the mask path;
    /// includes full subgraph construction when materializing).
    pub sampling_duration: Histogram,
    /// Bytes of per-sample state materialized across all scans:
    /// selection vectors on the mask path, full subgraph buffers and
    /// intern maps on the materializing path.
    pub sample_bytes_materialized: Counter,
    /// Scans that actually ran the incremental per-sample reuse path.
    pub scans_incremental: Counter,
    /// Incremental scan requests that degraded to a full re-peel (cold
    /// cache, config change, missing delta, or oversized delta).
    pub scan_fallbacks: Counter,
    /// Fraction of samples an incremental scan had to re-peel (one
    /// observation per incremental scan; fallbacks observe 1.0).
    pub dirty_sample_fraction: FractionHistogram,
    /// Nodes touched by the delta behind the most recent incremental
    /// scan.
    pub delta_touched_nodes: Gauge,
    /// Wall-clock of full-mode scans (the `mode="full"` series of
    /// `ensemfdet_scan_mode_duration_seconds`).
    pub scan_duration_full: Histogram,
    /// Wall-clock of incremental-mode scans (`mode="incremental"`).
    pub scan_duration_incremental: Histogram,
    /// Worker threads the most recent scan's sample pool ran with.
    pub scan_workers: Gauge,
    /// Busy time per ensemble worker per scan (`workers` observations
    /// per scan) — the spread shows how evenly the sample pool balances.
    pub worker_busy_duration: Histogram,
    /// Ingest-body parse time for JSON-array batches (the
    /// `content_type="json"` series of
    /// `ensemfdet_ingest_parse_duration_seconds`).
    pub ingest_parse_json: Histogram,
    /// Ingest-body parse time for NDJSON batches
    /// (`content_type="ndjson"`).
    pub ingest_parse_ndjson: Histogram,
    /// Ingest-body parse time for `text/csv` transaction-log batches
    /// (`content_type="csv"`).
    pub ingest_parse_csv: Histogram,
    /// End-to-end bulk-load time (parse + intern + append) for JSON-array
    /// ingest (the `format="json"` series of
    /// `ensemfdet_ingest_load_duration_seconds`).
    pub ingest_load_json: Histogram,
    /// End-to-end bulk-load time for NDJSON ingest (`format="ndjson"`).
    pub ingest_load_ndjson: Histogram,
    /// End-to-end bulk-load time for `text/csv` ingest (`format="csv"`).
    pub ingest_load_csv: Histogram,
    /// Distinct user keys the interner currently holds (the
    /// `side="user"` series of `ensemfdet_interner_keys_total`).
    pub interner_user_keys: Gauge,
    /// Distinct merchant keys the interner currently holds
    /// (`side="merchant"`).
    pub interner_merchant_keys: Gauge,
    /// Bytes held by the interner's key arenas, both sides and all
    /// shards.
    pub interner_arena_bytes: Gauge,
    /// Scans that ran the hybrid scoring fusion on top of the ensemble.
    pub scans_hybrid: Counter,
    /// Hybrid-scoring vote-component time (the `component="vote"` series
    /// of `ensemfdet_scan_scoring_duration_seconds`; covers only the
    /// vote-fraction conversion — the ensemble pass itself is timed by
    /// the stage histograms).
    pub scoring_vote_duration: Histogram,
    /// Hybrid-scoring spectral-component time (`component="spectral"`:
    /// adjacency assembly + randomized SVD).
    pub scoring_spectral_duration: Histogram,
    /// Hybrid-scoring k-core-component time (`component="kcore"`).
    pub scoring_kcore_duration: Histogram,
}

/// A [`Histogram`] whose default buckets cover a `[0, 1]` fraction
/// instead of a latency — used for the dirty-sample fraction, where the
/// interesting resolution is near 0 (most samples replayed).
#[derive(Debug)]
pub struct FractionHistogram(pub Histogram);

impl Default for FractionHistogram {
    fn default() -> Self {
        FractionHistogram(Histogram::new(&[
            0.0, 0.01, 0.025, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0,
        ]))
    }
}

impl ServiceMetrics {
    /// A fresh metric set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one ensemble scan: total wall-clock plus every per-sample
    /// timing (from the ensemble's `SampleSummary.elapsed` diagnostics).
    pub fn record_scan(&self, elapsed: Duration, sample_times: &[Duration]) {
        self.scans.inc();
        self.scan_duration.observe_duration(elapsed);
        for &t in sample_times {
            self.sample_duration.observe_duration(t);
        }
    }

    /// Records one scan's per-stage split (from the ensemble's
    /// `StageTimings` diagnostics): `[sampling, detection, aggregation]`.
    pub fn record_scan_stages(&self, stages: [Duration; 3]) {
        self.stage_sampling.observe_duration(stages[0]);
        self.stage_detection.observe_duration(stages[1]);
        self.stage_aggregation.observe_duration(stages[2]);
    }

    /// Records one scan's sampling cost: the sampling-stage duration and
    /// the bytes of per-sample state it materialized (from the ensemble's
    /// `sample_bytes` diagnostics).
    pub fn record_sampling(&self, sampling: Duration, bytes: u64) {
        self.sampling_duration.observe_duration(sampling);
        self.sample_bytes_materialized.add(bytes);
    }

    /// Renders everything in the Prometheus text exposition format.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);

        write_header(
            &mut out,
            "ensemfdet_http_requests_total",
            "counter",
            "HTTP requests served, by route and status.",
        );
        for ((route, status), n) in self.requests.snapshot() {
            let _ = writeln!(
                out,
                "ensemfdet_http_requests_total{{route=\"{route}\",status=\"{status}\"}} {n}"
            );
        }

        write_counter(
            &mut out,
            "ensemfdet_http_rejected_total",
            "Connections shed because the accept queue was full.",
            self.rejected.get(),
        );
        write_gauge(
            &mut out,
            "ensemfdet_http_queue_depth",
            "Connections waiting in the accept queue.",
            self.queue_depth.get(),
        );
        write_gauge(
            &mut out,
            "ensemfdet_http_workers_busy",
            "Workers currently handling a connection.",
            self.workers_busy.get(),
        );
        write_histogram(
            &mut out,
            "ensemfdet_http_request_duration_seconds",
            "Wall-clock per HTTP request.",
            &self.request_duration,
        );
        write_histogram(
            &mut out,
            "ensemfdet_scan_duration_seconds",
            "Wall-clock per ensemble detection scan.",
            &self.scan_duration,
        );
        write_histogram(
            &mut out,
            "ensemfdet_scan_sample_duration_seconds",
            "Wall-clock per ensemble sample (N per scan).",
            &self.sample_duration,
        );
        write_header(
            &mut out,
            "ensemfdet_scan_stage_duration_seconds",
            "histogram",
            "Per-scan pipeline-stage time (sampling/detection summed over samples).",
        );
        for (stage, h) in [
            ("sampling", &self.stage_sampling),
            ("detection", &self.stage_detection),
            ("aggregation", &self.stage_aggregation),
        ] {
            write_histogram_samples(
                &mut out,
                "ensemfdet_scan_stage_duration_seconds",
                &format!("stage=\"{stage}\","),
                h,
            );
        }
        write_counter(
            &mut out,
            "ensemfdet_transactions_ingested_total",
            "Transactions ingested via POST /v1/transactions.",
            self.transactions_ingested.get(),
        );
        write_counter(
            &mut out,
            "ensemfdet_scans_total",
            "Detection scans run (manual and automatic).",
            self.scans.get(),
        );
        write_counter(
            &mut out,
            "ensemfdet_alerts_total",
            "New accounts alerted across all scans.",
            self.alerts.get(),
        );
        write_gauge(
            &mut out,
            "ensemfdet_scan_queue_depth",
            "Scan jobs waiting in the executor queue.",
            self.scan_queue_depth.get(),
        );
        write_gauge(
            &mut out,
            "ensemfdet_scans_in_flight",
            "Scan jobs currently executing.",
            self.scans_in_flight.get(),
        );
        write_counter(
            &mut out,
            "ensemfdet_scan_queue_rejected_total",
            "Scan jobs rejected because the queue was full.",
            self.scan_queue_rejected.get(),
        );
        write_counter(
            &mut out,
            "ensemfdet_scans_failed_total",
            "Scan jobs that failed.",
            self.scans_failed.get(),
        );
        write_gauge(
            &mut out,
            "ensemfdet_snapshot_epoch",
            "Epoch of the latest published graph snapshot.",
            self.snapshot_epoch.get(),
        );
        write_gauge(
            &mut out,
            "ensemfdet_snapshot_lag_transactions",
            "Transactions ingested since the latest snapshot was compacted.",
            self.snapshot_lag.get(),
        );
        write_histogram(
            &mut out,
            "ensemfdet_scan_job_duration_seconds",
            "End-to-end scan-job latency (enqueue to published result).",
            &self.scan_job_duration,
        );
        write_histogram(
            &mut out,
            "ensemfdet_scan_queue_wait_seconds",
            "Time scan jobs spend queued before execution.",
            &self.scan_queue_wait,
        );
        write_histogram(
            &mut out,
            "ensemfdet_scan_sampling_duration_seconds",
            "Per-scan sampling-stage duration.",
            &self.sampling_duration,
        );
        write_counter(
            &mut out,
            "ensemfdet_sample_bytes_materialized_total",
            "Bytes of per-sample state materialized across all scans.",
            self.sample_bytes_materialized.get(),
        );
        write_counter(
            &mut out,
            "ensemfdet_scans_incremental_total",
            "Scans that ran the incremental per-sample reuse path.",
            self.scans_incremental.get(),
        );
        write_counter(
            &mut out,
            "ensemfdet_scan_fallbacks_total",
            "Incremental scan requests that degraded to a full re-peel.",
            self.scan_fallbacks.get(),
        );
        write_histogram(
            &mut out,
            "ensemfdet_dirty_sample_fraction",
            "Fraction of samples an incremental scan re-peeled.",
            &self.dirty_sample_fraction.0,
        );
        write_gauge(
            &mut out,
            "ensemfdet_delta_touched_nodes",
            "Nodes touched by the delta behind the latest incremental scan.",
            self.delta_touched_nodes.get(),
        );
        write_header(
            &mut out,
            "ensemfdet_scan_mode_duration_seconds",
            "histogram",
            "Wall-clock per scan, split by full vs incremental mode.",
        );
        for (mode, h) in [
            ("full", &self.scan_duration_full),
            ("incremental", &self.scan_duration_incremental),
        ] {
            write_histogram_samples(
                &mut out,
                "ensemfdet_scan_mode_duration_seconds",
                &format!("mode=\"{mode}\","),
                h,
            );
        }
        write_gauge(
            &mut out,
            "ensemfdet_scan_workers",
            "Worker threads the most recent scan's sample pool ran with.",
            self.scan_workers.get(),
        );
        write_histogram(
            &mut out,
            "ensemfdet_scan_worker_busy_seconds",
            "Busy time per ensemble worker per scan.",
            &self.worker_busy_duration,
        );
        write_header(
            &mut out,
            "ensemfdet_ingest_parse_duration_seconds",
            "histogram",
            "Ingest-body parse time, by content type.",
        );
        for (ct, h) in [
            ("json", &self.ingest_parse_json),
            ("ndjson", &self.ingest_parse_ndjson),
            ("csv", &self.ingest_parse_csv),
        ] {
            write_histogram_samples(
                &mut out,
                "ensemfdet_ingest_parse_duration_seconds",
                &format!("content_type=\"{ct}\","),
                h,
            );
        }
        write_header(
            &mut out,
            "ensemfdet_ingest_load_duration_seconds",
            "histogram",
            "End-to-end bulk-load time (parse + intern + append), by format.",
        );
        for (format, h) in [
            ("json", &self.ingest_load_json),
            ("ndjson", &self.ingest_load_ndjson),
            ("csv", &self.ingest_load_csv),
        ] {
            write_histogram_samples(
                &mut out,
                "ensemfdet_ingest_load_duration_seconds",
                &format!("format=\"{format}\","),
                h,
            );
        }
        write_header(
            &mut out,
            "ensemfdet_interner_keys_total",
            "gauge",
            "Distinct keys the transaction interner holds, by side.",
        );
        let _ = writeln!(
            out,
            "ensemfdet_interner_keys_total{{side=\"user\"}} {}",
            self.interner_user_keys.get()
        );
        let _ = writeln!(
            out,
            "ensemfdet_interner_keys_total{{side=\"merchant\"}} {}",
            self.interner_merchant_keys.get()
        );
        write_gauge(
            &mut out,
            "ensemfdet_interner_arena_bytes",
            "Bytes held by the interner's key arenas (both sides).",
            self.interner_arena_bytes.get(),
        );
        write_counter(
            &mut out,
            "ensemfdet_scans_hybrid_total",
            "Scans that ran the hybrid scoring fusion.",
            self.scans_hybrid.get(),
        );
        write_header(
            &mut out,
            "ensemfdet_scan_scoring_duration_seconds",
            "histogram",
            "Hybrid-scoring component time per hybrid scan, by component.",
        );
        for (component, h) in [
            ("vote", &self.scoring_vote_duration),
            ("spectral", &self.scoring_spectral_duration),
            ("kcore", &self.scoring_kcore_duration),
        ] {
            write_histogram_samples(
                &mut out,
                "ensemfdet_scan_scoring_duration_seconds",
                &format!("component=\"{component}\","),
                h,
            );
        }
        out
    }

    /// Records one hybrid-scored scan: the `[vote, spectral, kcore]`
    /// component wall-clocks (from the scan outcome's
    /// `HybridScanScores::component_times`) plus the hybrid-scan counter.
    pub fn record_scan_scoring(&self, component_times: [Duration; 3]) {
        self.scans_hybrid.inc();
        self.scoring_vote_duration.observe_duration(component_times[0]);
        self.scoring_spectral_duration.observe_duration(component_times[1]);
        self.scoring_kcore_duration.observe_duration(component_times[2]);
    }

    /// Records one scan's reuse telemetry: the mode-labelled duration
    /// series, and — for incremental scans — the dirty-sample fraction
    /// and delta size. A fallback counts as a full-mode scan with a
    /// dirty fraction of 1.0 (every sample re-peeled).
    pub fn record_scan_reuse(
        &self,
        incremental: bool,
        fell_back: bool,
        dirty_fraction: f64,
        delta_touched: usize,
        elapsed: Duration,
    ) {
        if incremental {
            self.scans_incremental.inc();
            self.dirty_sample_fraction.0.observe(dirty_fraction);
            self.delta_touched_nodes.set(delta_touched as i64);
            self.scan_duration_incremental.observe_duration(elapsed);
        } else {
            if fell_back {
                self.scan_fallbacks.inc();
                self.dirty_sample_fraction.0.observe(1.0);
            }
            self.scan_duration_full.observe_duration(elapsed);
        }
    }

    /// Records one scan's worker-pool telemetry: the effective worker
    /// count and each worker's busy time (from the ensemble's
    /// `worker_times` diagnostics).
    pub fn record_scan_workers(&self, workers: usize, worker_times: &[Duration]) {
        self.scan_workers.set(workers as i64);
        for &t in worker_times {
            self.worker_busy_duration.observe_duration(t);
        }
    }

    /// Records one ingest body parse, labelled by content type:
    /// `"json"` (the default JSON array), `"ndjson"`, or `"csv"`.
    /// Unknown labels fall back to the JSON series.
    pub fn record_ingest_parse(&self, content_type: &str, elapsed: Duration) {
        let h = match content_type {
            "ndjson" => &self.ingest_parse_ndjson,
            "csv" => &self.ingest_parse_csv,
            _ => &self.ingest_parse_json,
        };
        h.observe_duration(elapsed);
    }

    /// Records one end-to-end bulk load (parse + intern + append),
    /// labelled by format (`"json"`, `"ndjson"`, `"csv"`).
    pub fn record_ingest_load(&self, format: &str, elapsed: Duration) {
        let h = match format {
            "ndjson" => &self.ingest_load_ndjson,
            "csv" => &self.ingest_load_csv,
            _ => &self.ingest_load_json,
        };
        h.observe_duration(elapsed);
    }

    /// Publishes the interner's size gauges: distinct keys per side and
    /// total arena bytes.
    pub fn record_interner(&self, users: usize, merchants: usize, arena_bytes: usize) {
        self.interner_user_keys.set(users as i64);
        self.interner_merchant_keys.set(merchants as i64);
        self.interner_arena_bytes.set(arena_bytes as i64);
    }

    /// Records one completed scan job: time spent queued and the
    /// end-to-end latency from enqueue to published result.
    pub fn record_scan_job(&self, queue_wait: Duration, total: Duration) {
        self.scan_queue_wait.observe_duration(queue_wait);
        self.scan_job_duration.observe_duration(total);
    }

    /// Updates the snapshot freshness gauges from the latest published
    /// snapshot's epoch and the transactions ingested since it.
    pub fn record_snapshot(&self, epoch: u64, lag: usize) {
        self.snapshot_epoch.set(epoch as i64);
        self.snapshot_lag.set(lag as i64);
    }
}

fn write_header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn write_counter(out: &mut String, name: &str, help: &str, value: u64) {
    write_header(out, name, "counter", help);
    let _ = writeln!(out, "{name} {value}");
}

fn write_gauge(out: &mut String, name: &str, help: &str, value: i64) {
    write_header(out, name, "gauge", help);
    let _ = writeln!(out, "{name} {value}");
}

fn write_histogram(out: &mut String, name: &str, help: &str, h: &Histogram) {
    write_header(out, name, "histogram", help);
    write_histogram_samples(out, name, "", h);
}

/// Emits one histogram's samples with `extra_labels` (e.g. `stage="x",`,
/// trailing comma included) prepended to each bucket's `le` label.
///
/// Every figure comes from one [`Histogram::snapshot`], so the emitted
/// `+Inf` bucket and `_count` always agree even under concurrent observes.
fn write_histogram_samples(out: &mut String, name: &str, extra_labels: &str, h: &Histogram) {
    let snapshot = h.snapshot();
    let total = snapshot.count();
    for (bound, count) in snapshot.cumulative() {
        if bound.is_finite() {
            let _ = writeln!(out, "{name}_bucket{{{extra_labels}le=\"{bound}\"}} {count}");
        } else {
            let _ = writeln!(out, "{name}_bucket{{{extra_labels}le=\"+Inf\"}} {count}");
        }
    }
    let labels = extra_labels.trim_end_matches(',');
    if labels.is_empty() {
        let _ = writeln!(out, "{name}_sum {}", h.sum_seconds());
        let _ = writeln!(out, "{name}_count {total}");
    } else {
        let _ = writeln!(out, "{name}_sum{{{labels}}} {}", h.sum_seconds());
        let _ = writeln!(out, "{name}_count{{{labels}}} {total}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.set(3);
        g.inc();
        g.dec();
        g.dec();
        assert_eq!(g.get(), 2);
    }

    #[test]
    fn histogram_places_observations() {
        let h = Histogram::new(&[0.01, 0.1, 1.0]);
        h.observe(0.005); // ≤ 0.01
        h.observe(0.01); // ≤ 0.01 (le is inclusive)
        h.observe(0.05); // ≤ 0.1
        h.observe(10.0); // +Inf
        let c = h.cumulative();
        assert_eq!(c[0], (0.01, 2));
        assert_eq!(c[1], (0.1, 3));
        assert_eq!(c[2], (1.0, 3));
        assert_eq!(c[3].1, 4);
        assert!(c[3].0.is_infinite());
        assert_eq!(h.count(), 4);
        assert!((h.sum_seconds() - 10.065).abs() < 1e-6);
    }

    #[test]
    fn histogram_clamps_negatives() {
        let h = Histogram::new(&[1.0]);
        h.observe(-5.0);
        assert_eq!(h.cumulative()[0], (1.0, 1));
        assert_eq!(h.sum_seconds(), 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_rejected() {
        Histogram::new(&[1.0, 0.5]);
    }

    #[test]
    fn status_counter_tracks_labels() {
        let s = StatusCounter::new();
        s.inc("/health", 200);
        s.inc("/health", 200);
        s.inc("/scan", 200);
        s.inc("/scan", 503);
        assert_eq!(s.total(), 4);
        assert_eq!(s.total_for_route("/health"), 2);
        assert_eq!(s.snapshot().len(), 3);
    }

    #[test]
    fn histogram_is_thread_safe() {
        let h = std::sync::Arc::new(Histogram::latency());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        h.observe(i as f64 * 1e-5);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
    }

    #[test]
    fn snapshot_keeps_inf_bucket_and_count_consistent_under_writes() {
        // Scrape-vs-observe race: every snapshot's +Inf row must equal its
        // own total, and successive scrapes must be monotone. (Per-cell
        // on-demand loads violated the first invariant when an observe
        // landed between two loads.)
        let h = std::sync::Arc::new(Histogram::latency());
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..3)
            .map(|_| {
                let h = std::sync::Arc::clone(&h);
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        h.observe((i % 1000) as f64 * 1e-4);
                        i += 1;
                    }
                })
            })
            .collect();
        let mut last_total = 0u64;
        for _ in 0..200 {
            let snap = h.snapshot();
            let cumulative = snap.cumulative();
            let inf_row = cumulative.last().expect("has +Inf row");
            assert!(inf_row.0.is_infinite());
            assert_eq!(inf_row.1, snap.count(), "+Inf bucket vs _count");
            assert!(
                cumulative.windows(2).all(|w| w[0].1 <= w[1].1),
                "cumulative rows must be monotone"
            );
            assert!(snap.count() >= last_total, "scrapes must be monotone");
            last_total = snap.count();
        }
        stop.store(true, Ordering::Relaxed);
        for t in writers {
            t.join().unwrap();
        }
    }

    #[test]
    fn render_is_valid_exposition_text() {
        let m = ServiceMetrics::new();
        m.requests.inc("/health", 200);
        m.requests.inc("/scan", 503);
        m.rejected.inc();
        m.queue_depth.set(2);
        m.record_scan(
            Duration::from_millis(30),
            &[Duration::from_millis(10), Duration::from_millis(20)],
        );
        m.record_scan_stages([
            Duration::from_millis(5),
            Duration::from_millis(24),
            Duration::from_millis(1),
        ]);
        m.record_sampling(Duration::from_millis(5), 4096);
        let text = m.render();
        assert!(text.contains("ensemfdet_scan_sampling_duration_seconds_count 1"));
        assert!(text.contains("ensemfdet_sample_bytes_materialized_total 4096"));
        assert!(text.contains(
            "ensemfdet_http_requests_total{route=\"/health\",status=\"200\"} 1"
        ));
        assert!(text.contains("ensemfdet_http_requests_total{route=\"/scan\",status=\"503\"} 1"));
        assert!(text.contains("ensemfdet_http_rejected_total 1"));
        assert!(text.contains("ensemfdet_http_queue_depth 2"));
        assert!(text.contains(
            "# HELP ensemfdet_transactions_ingested_total \
             Transactions ingested via POST /v1/transactions."
        ));
        assert!(text.contains("ensemfdet_scans_total 1"));
        assert!(text.contains("ensemfdet_scan_sample_duration_seconds_count 2"));
        assert!(text.contains("ensemfdet_scan_duration_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains(
            "ensemfdet_scan_stage_duration_seconds_bucket{stage=\"detection\",le=\"+Inf\"} 1"
        ));
        assert!(text.contains("ensemfdet_scan_stage_duration_seconds_count{stage=\"sampling\"} 1"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "bad value in `{line}`");
        }
        // HELP/TYPE pairs precede their samples.
        assert!(text.find("# TYPE ensemfdet_scans_total").unwrap()
            < text.find("\nensemfdet_scans_total ").unwrap());
    }

    #[test]
    fn scan_pipeline_metrics_render() {
        let m = ServiceMetrics::new();
        m.scan_queue_depth.set(3);
        m.scans_in_flight.set(1);
        m.scan_queue_rejected.inc();
        m.scans_failed.inc();
        m.record_snapshot(7, 42);
        m.record_scan_job(Duration::from_millis(2), Duration::from_millis(90));
        let text = m.render();
        assert!(text.contains("ensemfdet_scan_queue_depth 3"));
        assert!(text.contains("ensemfdet_scans_in_flight 1"));
        assert!(text.contains("ensemfdet_scan_queue_rejected_total 1"));
        assert!(text.contains("ensemfdet_scans_failed_total 1"));
        assert!(text.contains("ensemfdet_snapshot_epoch 7"));
        assert!(text.contains("ensemfdet_snapshot_lag_transactions 42"));
        assert!(text.contains("ensemfdet_scan_job_duration_seconds_count 1"));
        assert!(text.contains("ensemfdet_scan_queue_wait_seconds_count 1"));
    }

    #[test]
    fn worker_and_ingest_parse_metrics_render() {
        let m = ServiceMetrics::new();
        m.record_scan_workers(
            2,
            &[Duration::from_millis(40), Duration::from_millis(35)],
        );
        m.record_ingest_parse("json", Duration::from_micros(300));
        m.record_ingest_parse("ndjson", Duration::from_micros(120));
        m.record_ingest_parse("ndjson", Duration::from_micros(90));
        m.record_ingest_parse("csv", Duration::from_micros(75));
        let text = m.render();
        assert!(text.contains("ensemfdet_scan_workers 2"));
        assert!(text.contains("ensemfdet_scan_worker_busy_seconds_count 2"));
        assert!(text.contains(
            "ensemfdet_ingest_parse_duration_seconds_count{content_type=\"json\"} 1"
        ));
        assert!(text.contains(
            "ensemfdet_ingest_parse_duration_seconds_count{content_type=\"ndjson\"} 2"
        ));
        assert!(text.contains(
            "ensemfdet_ingest_parse_duration_seconds_count{content_type=\"csv\"} 1"
        ));
    }

    #[test]
    fn ingest_load_and_interner_metrics_render() {
        let m = ServiceMetrics::new();
        m.record_ingest_load("csv", Duration::from_millis(4));
        m.record_ingest_load("csv", Duration::from_millis(6));
        m.record_ingest_load("ndjson", Duration::from_millis(2));
        m.record_interner(1200, 340, 65536);
        let text = m.render();
        assert!(text.contains(
            "ensemfdet_ingest_load_duration_seconds_count{format=\"csv\"} 2"
        ));
        assert!(text.contains(
            "ensemfdet_ingest_load_duration_seconds_count{format=\"ndjson\"} 1"
        ));
        assert!(text.contains(
            "ensemfdet_ingest_load_duration_seconds_count{format=\"json\"} 0"
        ));
        assert!(text.contains("ensemfdet_interner_keys_total{side=\"user\"} 1200"));
        assert!(text.contains("ensemfdet_interner_keys_total{side=\"merchant\"} 340"));
        assert!(text.contains("ensemfdet_interner_arena_bytes 65536"));
    }

    #[test]
    fn scoring_metrics_render_per_component() {
        let m = ServiceMetrics::new();
        m.record_scan_scoring([
            Duration::from_micros(50),
            Duration::from_millis(12),
            Duration::from_millis(3),
        ]);
        m.record_scan_scoring([
            Duration::from_micros(60),
            Duration::from_millis(11),
            Duration::from_millis(2),
        ]);
        let text = m.render();
        assert!(text.contains("ensemfdet_scans_hybrid_total 2"));
        for component in ["vote", "spectral", "kcore"] {
            assert!(
                text.contains(&format!(
                    "ensemfdet_scan_scoring_duration_seconds_count{{component=\"{component}\"}} 2"
                )),
                "{text}"
            );
        }
    }

    #[test]
    fn incremental_scan_metrics_render() {
        let m = ServiceMetrics::new();
        // One incremental scan: 2 of 8 samples re-peeled, 14 nodes touched.
        m.record_scan_reuse(true, false, 0.25, 14, Duration::from_millis(12));
        // One plain full scan (no fallback).
        m.record_scan_reuse(false, false, 1.0, 0, Duration::from_millis(80));
        // One fallback (oversized delta, say).
        m.record_scan_reuse(false, true, 1.0, 0, Duration::from_millis(75));
        let text = m.render();
        assert!(text.contains("ensemfdet_scans_incremental_total 1"));
        assert!(text.contains("ensemfdet_scan_fallbacks_total 1"));
        assert!(text.contains("ensemfdet_delta_touched_nodes 14"));
        // 0.25 lands in the le=0.35 bucket; the fallback's 1.0 joins at 1.
        assert!(text.contains("ensemfdet_dirty_sample_fraction_bucket{le=\"0.35\"} 1"));
        assert!(text.contains("ensemfdet_dirty_sample_fraction_bucket{le=\"1\"} 2"));
        assert!(text.contains("ensemfdet_dirty_sample_fraction_count 2"));
        // Mode-labelled duration series: 1 incremental, 2 full.
        assert!(text.contains(
            "ensemfdet_scan_mode_duration_seconds_count{mode=\"incremental\"} 1"
        ));
        assert!(text.contains("ensemfdet_scan_mode_duration_seconds_count{mode=\"full\"} 2"));
    }
}
