#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Process-local telemetry for the detection service.
//!
//! Three primitives — [`Counter`], [`Gauge`], [`Histogram`] — all safe to
//! update from any thread without locks on the hot path, plus
//! [`StatusCounter`] (a small labelled counter behind a mutex, fine at
//! request rates), [`Labelled`] (one series per variant of a fixed label
//! enum) and [`ServiceMetrics`], the concrete metric set the HTTP service
//! exposes at `GET /metrics` in the Prometheus text exposition format
//! (version 0.0.4).
//!
//! Each family of [`ServiceMetrics`] is declared once — field, name, HELP
//! text, and a type that fixes its kind, label set and buckets — and one
//! generic renderer writes every family through one sample writer.
//!
//! No dependencies, no global registry: whoever owns a [`ServiceMetrics`]
//! decides where its numbers go.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::marker::PhantomData;
use std::ops::Index;
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

/// A fixed label set: one enum variant per series of a [`Labelled`]
/// family.
pub trait LabelSet: Copy + 'static {
    /// Every variant, in exposition order.
    const ALL: &'static [Self];

    /// The label value this variant is exposed as.
    fn value(self) -> &'static str;

    /// This variant's position in [`ALL`](Self::ALL).
    fn index(self) -> usize;
}

/// Declares a fieldless label enum and its [`LabelSet`] impl from
/// `Variant = "value"` pairs, in exposition order.
macro_rules! label_set {
    ($(#[$meta:meta])* $name:ident {
        $($(#[$variant_meta:meta])* $variant:ident = $value:literal,)+
    }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $name {
            $($(#[$variant_meta])* $variant,)+
        }

        impl LabelSet for $name {
            const ALL: &'static [Self] = &[$(Self::$variant,)+];

            fn value(self) -> &'static str {
                match self {
                    $(Self::$variant => $value,)+
                }
            }

            fn index(self) -> usize {
                self as usize
            }
        }
    };
}

label_set! {
    /// A scan pipeline stage.
    Stage {
        /// Drawing the samples.
        Sampling = "sampling",
        /// FDET detection on the samples.
        Detection = "detection",
        /// Merging votes and evidence.
        Aggregation = "aggregation",
    }
}

label_set! {
    /// The path a scan took.
    ScanMode {
        /// Every sample peeled from scratch (including fallbacks).
        Full = "full",
        /// Per-sample reuse of the previous epoch's results.
        Incremental = "incremental",
    }
}

label_set! {
    /// The body format of a `POST /v1/transactions` batch.
    IngestFormat {
        /// The `{"records": [[user, merchant], …]}` JSON array (the
        /// default).
        Json = "json",
        /// `application/x-ndjson`, one record per line.
        Ndjson = "ndjson",
        /// `text/csv` transaction logs.
        Csv = "csv",
    }
}

label_set! {
    /// A bipartite side of the transaction graph.
    Side {
        /// User accounts.
        User = "user",
        /// Merchants.
        Merchant = "merchant",
    }
}

label_set! {
    /// A component of the hybrid score.
    ScoringComponent {
        /// The vote-fraction conversion.
        Vote = "vote",
        /// Adjacency assembly plus randomized SVD.
        Spectral = "spectral",
        /// k-core depth.
        Kcore = "kcore",
    }
}

/// One metric per variant of the label enum `L`, exposed as the
/// `key="value"` series of a single family.
#[derive(Debug)]
pub struct Labelled<L, M> {
    key: &'static str,
    series: Vec<M>,
    labels: PhantomData<L>,
}

impl<L: LabelSet, M: Default> Labelled<L, M> {
    /// A default `M` for every variant of `L`, labelled `key`.
    fn new(key: &'static str) -> Self {
        Labelled {
            key,
            series: L::ALL.iter().map(|_| M::default()).collect(),
            labels: PhantomData,
        }
    }
}

impl<L: LabelSet, M> Index<L> for Labelled<L, M> {
    type Output = M;

    fn index(&self, label: L) -> &M {
        &self.series[label.index()]
    }
}

/// A metric the exposition can write: its Prometheus type and its sample
/// lines.
trait Metric {
    /// The family's `# TYPE`: `counter`, `gauge` or `histogram`.
    fn kind(&self) -> &'static str;

    /// Writes this metric's sample lines under `name`, each carrying
    /// `labels` (comma-separated `key="value"` pairs, possibly empty).
    fn write_samples(&self, out: &mut String, name: &str, labels: &str);
}

impl Metric for Counter {
    fn kind(&self) -> &'static str {
        "counter"
    }

    fn write_samples(&self, out: &mut String, name: &str, labels: &str) {
        write_sample(out, name, "", labels, self.get());
    }
}

impl Metric for Gauge {
    fn kind(&self) -> &'static str {
        "gauge"
    }

    fn write_samples(&self, out: &mut String, name: &str, labels: &str) {
        write_sample(out, name, "", labels, self.get());
    }
}

impl Metric for Histogram {
    fn kind(&self) -> &'static str {
        "histogram"
    }

    /// Every figure comes from one [`Histogram::snapshot`], so the emitted
    /// `+Inf` bucket and `_count` always agree even under concurrent
    /// observes.
    fn write_samples(&self, out: &mut String, name: &str, labels: &str) {
        let snapshot = self.snapshot();
        for (bound, count) in snapshot.cumulative() {
            let le = if bound.is_finite() {
                format!("le=\"{bound}\"")
            } else {
                "le=\"+Inf\"".to_string()
            };
            write_sample(out, name, "_bucket", &join_labels(labels, &le), count);
        }
        write_sample(out, name, "_sum", labels, self.sum_seconds());
        write_sample(out, name, "_count", labels, snapshot.count());
    }
}

impl Metric for StatusCounter {
    fn kind(&self) -> &'static str {
        "counter"
    }

    fn write_samples(&self, out: &mut String, name: &str, labels: &str) {
        for ((route, status), n) in self.snapshot() {
            let cell = format!("route=\"{route}\",status=\"{status}\"");
            write_sample(out, name, "", &join_labels(labels, &cell), n);
        }
    }
}

impl<L: LabelSet, M: Metric> Metric for Labelled<L, M> {
    fn kind(&self) -> &'static str {
        self.series[0].kind()
    }

    fn write_samples(&self, out: &mut String, name: &str, labels: &str) {
        for (label, metric) in L::ALL.iter().zip(&self.series) {
            let series = format!("{}=\"{}\"", self.key, label.value());
            metric.write_samples(out, name, &join_labels(labels, &series));
        }
    }
}

/// The one sample writer: `name{suffix}{labels} value`, with the braces
/// left out when there are no labels.
fn write_sample(out: &mut String, name: &str, suffix: &str, labels: &str, value: impl Display) {
    let _ = if labels.is_empty() {
        writeln!(out, "{name}{suffix} {value}")
    } else {
        writeln!(out, "{name}{suffix}{{{labels}}} {value}")
    };
}

/// `outer` followed by `inner`, comma-separated; `outer` may be empty.
fn join_labels(outer: &str, inner: &str) -> String {
    if outer.is_empty() {
        inner.to_string()
    } else {
        format!("{outer},{inner}")
    }
}

/// Declares [`ServiceMetrics`], one family per entry:
/// `field: Type [= init] => "name", "HELP text";`. The field's type fixes
/// the family's kind and label set, `init` (default: `Default::default()`)
/// its label key or buckets. Fields are public so call sites update them
/// directly; [`ServiceMetrics::render`] writes the families in declaration
/// order.
macro_rules! service_metrics {
    (@init) => { Default::default() };
    (@init $init:expr) => { $init };
    ($(
        $(#[doc = $doc:literal])*
        $field:ident: $ty:ty $(= $init:expr)? => $name:literal, $help:literal;
    )+) => {
        /// The full metric set of the detection service. Each field's
        /// documentation starts with its family name and HELP text.
        #[derive(Debug)]
        pub struct ServiceMetrics {
            $(
                #[doc = concat!("`", $name, "`: ", $help)]
                $(#[doc = $doc])*
                pub $field: $ty,
            )+
        }

        impl Default for ServiceMetrics {
            fn default() -> Self {
                ServiceMetrics {
                    $($field: service_metrics!(@init $($init)?),)+
                }
            }
        }

        impl ServiceMetrics {
            /// Every family in exposition order: `(name, help, metric)`.
            fn families(&self) -> Vec<(&'static str, &'static str, &dyn Metric)> {
                vec![$(($name, $help, &self.$field as &dyn Metric),)+]
            }
        }
    };
}

service_metrics! {
    requests: StatusCounter
        => "ensemfdet_http_requests_total", "HTTP requests served, by route and status.";
    rejected: Counter
        => "ensemfdet_http_rejected_total", "Connections shed because the accept queue was full.";
    queue_depth: Gauge
        => "ensemfdet_http_queue_depth", "Connections waiting in the accept queue.";
    workers_busy: Gauge
        => "ensemfdet_http_workers_busy", "Workers currently handling a connection.";
    /// Timed from read through handle to write.
    request_duration: Histogram
        => "ensemfdet_http_request_duration_seconds", "Wall-clock per HTTP request.";
    scan_duration: Histogram
        => "ensemfdet_scan_duration_seconds", "Wall-clock per ensemble detection scan.";
    sample_duration: Histogram
        => "ensemfdet_scan_sample_duration_seconds", "Wall-clock per ensemble sample (N per scan).";
    /// Sampling and detection are CPU time summed over the scan's
    /// samples; aggregation is wall-clock.
    stage_duration: Labelled<Stage, Histogram> = Labelled::new("stage")
        => "ensemfdet_scan_stage_duration_seconds",
        "Per-scan pipeline-stage time (sampling/detection summed over samples).";
    transactions_ingested: Counter
        => "ensemfdet_transactions_ingested_total", "Transactions ingested via POST /v1/transactions.";
    alerts: Counter
        => "ensemfdet_alerts_total", "New accounts alerted across all scans.";
    scan_queue_depth: Gauge
        => "ensemfdet_scan_queue_depth", "Scan jobs waiting in the executor queue.";
    /// 0 or 1 with a single executor.
    scans_in_flight: Gauge
        => "ensemfdet_scans_in_flight", "Scan jobs currently executing.";
    /// Each one answered `429`.
    scan_queue_rejected: Counter
        => "ensemfdet_scan_queue_rejected_total", "Scan jobs rejected because the queue was full.";
    /// A detector panic or an internal error.
    scans_failed: Counter
        => "ensemfdet_scans_failed_total", "Scan jobs that failed.";
    snapshot_epoch: Gauge
        => "ensemfdet_snapshot_epoch", "Epoch of the latest published graph snapshot.";
    /// The snapshot's age, measured in transactions; updated on every
    /// ingest and every snapshot refresh.
    snapshot_lag: Gauge
        => "ensemfdet_snapshot_lag_transactions",
        "Transactions ingested since the latest snapshot was compacted.";
    scan_job_duration: Histogram
        => "ensemfdet_scan_job_duration_seconds",
        "End-to-end scan-job latency (enqueue to published result).";
    scan_queue_wait: Histogram
        => "ensemfdet_scan_queue_wait_seconds", "Time scan jobs spend queued before execution.";
    /// Selection vectors on the mask path; full subgraph buffers and
    /// intern maps on the materializing reference path.
    sample_bytes_materialized: Counter
        => "ensemfdet_sample_bytes_materialized_total",
        "Bytes of per-sample state materialized across all scans.";
    /// Cold cache, config change, missing delta, or oversized delta.
    scan_fallbacks: Counter
        => "ensemfdet_scan_fallbacks_total",
        "Incremental scan requests that degraded to a full re-peel.";
    /// One observation per incremental scan; fallbacks observe 1.0. The
    /// buckets resolve the interesting range near 0 (most samples
    /// replayed).
    dirty_sample_fraction: Histogram
        = Histogram::new(&[0.0, 0.01, 0.025, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0])
        => "ensemfdet_dirty_sample_fraction", "Fraction of samples an incremental scan re-peeled.";
    delta_touched_nodes: Gauge
        => "ensemfdet_delta_touched_nodes",
        "Nodes touched by the delta behind the latest incremental scan.";
    scan_mode_duration: Labelled<ScanMode, Histogram> = Labelled::new("mode")
        => "ensemfdet_scan_mode_duration_seconds",
        "Wall-clock per scan, split by full vs incremental mode.";
    scan_workers: Gauge
        => "ensemfdet_scan_workers", "Worker threads the most recent scan's sample pool ran with.";
    /// One observation per worker per scan; the spread shows how evenly
    /// the sample pool balances.
    worker_busy_duration: Histogram
        => "ensemfdet_scan_worker_busy_seconds", "Busy time per ensemble worker per scan.";
    ingest_parse: Labelled<IngestFormat, Histogram> = Labelled::new("content_type")
        => "ensemfdet_ingest_parse_duration_seconds", "Ingest-body parse time, by content type.";
    ingest_load: Labelled<IngestFormat, Histogram> = Labelled::new("format")
        => "ensemfdet_ingest_load_duration_seconds",
        "End-to-end bulk-load time (parse + intern + append), by format.";
    interner_keys: Labelled<Side, Gauge> = Labelled::new("side")
        => "ensemfdet_interner_keys_total", "Distinct keys the transaction interner holds, by side.";
    /// All shards included.
    interner_arena_bytes: Gauge
        => "ensemfdet_interner_arena_bytes", "Bytes held by the interner's arenas (both sides): every key's bytes plus an 8-byte record header per key.";
    scans_hybrid: Counter
        => "ensemfdet_scans_hybrid_total", "Scans that ran the hybrid scoring fusion.";
    /// The vote component covers only the vote-fraction conversion; the
    /// ensemble pass itself is timed by `stage_duration`.
    scoring_duration: Labelled<ScoringComponent, Histogram> = Labelled::new("component")
        => "ensemfdet_scan_scoring_duration_seconds",
        "Hybrid-scoring component time per hybrid scan, by component.";
    /// A reused component is not observed in `scoring_duration`.
    scoring_components_reused: Counter
        => "ensemfdet_scoring_components_reused_total",
        "Hybrid scans that reused the spectral and k-core components of an unchanged graph.";
}

impl ServiceMetrics {
    /// A fresh metric set.
    pub fn new() -> Self {
        Self::default()
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
            self.dirty_sample_fraction.observe(dirty_fraction);
            self.delta_touched_nodes.set(delta_touched as i64);
            self.scan_mode_duration[ScanMode::Incremental].observe_duration(elapsed);
        } else {
            if fell_back {
                self.scan_fallbacks.inc();
                self.dirty_sample_fraction.observe(1.0);
            }
            self.scan_mode_duration[ScanMode::Full].observe_duration(elapsed);
        }
    }

    /// Renders every family in the Prometheus text exposition format.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);
        for (name, help, metric) in self.families() {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {}", metric.kind());
            metric.write_samples(&mut out, name, "");
        }
        out
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
        m.scan_duration.observe_duration(Duration::from_millis(30));
        m.sample_duration
            .observe_duration(Duration::from_millis(10));
        m.sample_duration
            .observe_duration(Duration::from_millis(20));
        m.stage_duration[Stage::Sampling].observe_duration(Duration::from_millis(5));
        m.stage_duration[Stage::Detection].observe_duration(Duration::from_millis(24));
        m.stage_duration[Stage::Aggregation].observe_duration(Duration::from_millis(1));
        m.sample_bytes_materialized.add(4096);
        let text = m.render();
        assert!(text.contains(
            "# HELP ensemfdet_http_rejected_total Connections shed because the accept queue was full.\n\
             # TYPE ensemfdet_http_rejected_total counter\n\
             ensemfdet_http_rejected_total 1\n"
        ));
        assert!(text.contains("ensemfdet_scan_stage_duration_seconds_count{stage=\"sampling\"} 1"));
        assert!(text.contains("ensemfdet_sample_bytes_materialized_total 4096"));
        assert!(text.contains("ensemfdet_http_requests_total{route=\"/health\",status=\"200\"} 1"));
        assert!(text.contains("ensemfdet_http_requests_total{route=\"/scan\",status=\"503\"} 1"));
        assert!(text.contains("ensemfdet_http_queue_depth 2"));
        assert!(text.contains(
            "# HELP ensemfdet_transactions_ingested_total \
             Transactions ingested via POST /v1/transactions."
        ));
        assert!(text.contains("ensemfdet_scan_duration_seconds_count 1"));
        assert!(text.contains("ensemfdet_scan_sample_duration_seconds_count 2"));
        assert!(text.contains("ensemfdet_scan_duration_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains(
            "ensemfdet_scan_stage_duration_seconds_bucket{stage=\"detection\",le=\"+Inf\"} 1"
        ));
        // Every family is one `# HELP` line, then one `# TYPE` line, then
        // its samples: each named after the family (histograms add
        // `_bucket`/`_sum`/`_count`) with a numeric value.
        let mut family: Option<(&str, &str)> = None;
        let mut seen = Vec::new();
        let mut lines = text.lines();
        while let Some(line) = lines.next() {
            if let Some(help) = line.strip_prefix("# HELP ") {
                let name = help.split(' ').next().unwrap();
                let kind = lines
                    .next()
                    .and_then(|l| l.strip_prefix(&format!("# TYPE {name} ")))
                    .unwrap_or_else(|| panic!("no TYPE line after `{line}`"));
                assert!(["counter", "gauge", "histogram"].contains(&kind), "{kind}");
                assert!(!seen.contains(&name), "{name} declared twice");
                seen.push(name);
                family = Some((name, kind));
                continue;
            }
            let (name, kind) = family.unwrap_or_else(|| panic!("sample before any TYPE: `{line}`"));
            let (series, value) = line.rsplit_once(' ').expect("name value");
            assert!(value.parse::<f64>().is_ok(), "bad value in `{line}`");
            let sample = series.split('{').next().unwrap();
            let suffix = sample
                .strip_prefix(name)
                .unwrap_or_else(|| panic!("`{line}` outside {name}"));
            let allowed: &[&str] = if kind == "histogram" {
                &["_bucket", "_sum", "_count"]
            } else {
                &[""]
            };
            assert!(allowed.contains(&suffix), "`{line}` in {kind} {name}");
        }
        assert_eq!(seen.len(), m.families().len());
    }

    #[test]
    fn every_family_is_named_once_and_documented() {
        const API_DOCS: &str = include_str!("../../../docs/API.md");
        let m = ServiceMetrics::new();
        let families = m.families();
        let mut names: Vec<&str> = families.iter().map(|f| f.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), families.len(), "duplicate family names");
        for (name, _, metric) in &families {
            let row = format!("| `{name}` | {} |", metric.kind());
            assert!(API_DOCS.contains(&row), "docs/API.md has no row `{row}`");
        }
        // ... and the docs name no family that is not declared.
        for row in API_DOCS
            .lines()
            .filter_map(|l| l.strip_prefix("| `ensemfdet_"))
        {
            let name = format!("ensemfdet_{}", row.split('`').next().unwrap());
            assert!(
                names.contains(&name.as_str()),
                "docs/API.md documents undeclared {name}"
            );
        }
    }

    #[test]
    fn scan_pipeline_metrics_render() {
        let m = ServiceMetrics::new();
        m.scan_queue_depth.set(3);
        m.scans_in_flight.set(1);
        m.scan_queue_rejected.inc();
        m.scans_failed.inc();
        m.snapshot_epoch.set(7);
        m.snapshot_lag.set(42);
        m.scan_queue_wait.observe_duration(Duration::from_millis(2));
        m.scan_job_duration
            .observe_duration(Duration::from_millis(90));
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
        m.scan_workers.set(2);
        m.worker_busy_duration
            .observe_duration(Duration::from_millis(40));
        m.worker_busy_duration
            .observe_duration(Duration::from_millis(35));
        for (format, micros) in [
            (IngestFormat::Json, 300),
            (IngestFormat::Ndjson, 120),
            (IngestFormat::Ndjson, 90),
            (IngestFormat::Csv, 75),
        ] {
            m.ingest_parse[format].observe_duration(Duration::from_micros(micros));
        }
        let text = m.render();
        assert!(text.contains("ensemfdet_scan_workers 2"));
        assert!(text.contains("ensemfdet_scan_worker_busy_seconds_count 2"));
        assert!(
            text.contains("ensemfdet_ingest_parse_duration_seconds_count{content_type=\"json\"} 1")
        );
        assert!(text
            .contains("ensemfdet_ingest_parse_duration_seconds_count{content_type=\"ndjson\"} 2"));
        assert!(
            text.contains("ensemfdet_ingest_parse_duration_seconds_count{content_type=\"csv\"} 1")
        );
    }

    #[test]
    fn ingest_load_and_interner_metrics_render() {
        let m = ServiceMetrics::new();
        m.ingest_load[IngestFormat::Csv].observe_duration(Duration::from_millis(4));
        m.ingest_load[IngestFormat::Csv].observe_duration(Duration::from_millis(6));
        m.ingest_load[IngestFormat::Ndjson].observe_duration(Duration::from_millis(2));
        m.interner_keys[Side::User].set(1200);
        m.interner_keys[Side::Merchant].set(340);
        m.interner_arena_bytes.set(65536);
        let text = m.render();
        assert!(text.contains("ensemfdet_ingest_load_duration_seconds_count{format=\"csv\"} 2"));
        assert!(text.contains("ensemfdet_ingest_load_duration_seconds_count{format=\"ndjson\"} 1"));
        assert!(text.contains("ensemfdet_ingest_load_duration_seconds_count{format=\"json\"} 0"));
        assert!(text.contains("ensemfdet_interner_keys_total{side=\"user\"} 1200"));
        assert!(text.contains("ensemfdet_interner_keys_total{side=\"merchant\"} 340"));
        assert!(text.contains("ensemfdet_interner_arena_bytes 65536"));
    }

    #[test]
    fn scoring_metrics_render_per_component() {
        let m = ServiceMetrics::new();
        for millis in [[1, 12, 3], [2, 11, 2]] {
            m.scans_hybrid.inc();
            for (&component, ms) in ScoringComponent::ALL.iter().zip(millis) {
                m.scoring_duration[component].observe_duration(Duration::from_millis(ms));
            }
        }
        m.scoring_components_reused.inc();
        let text = m.render();
        assert!(text.contains("ensemfdet_scans_hybrid_total 2"));
        assert!(text.contains("ensemfdet_scoring_components_reused_total 1"));
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
        assert!(text.contains("ensemfdet_scan_fallbacks_total 1"));
        assert!(text.contains("ensemfdet_delta_touched_nodes 14"));
        // 0.25 lands in the le=0.35 bucket; the fallback's 1.0 joins at 1.
        assert!(text.contains("ensemfdet_dirty_sample_fraction_bucket{le=\"0.35\"} 1"));
        assert!(text.contains("ensemfdet_dirty_sample_fraction_bucket{le=\"1\"} 2"));
        assert!(text.contains("ensemfdet_dirty_sample_fraction_count 2"));
        // Mode-labelled duration series: 1 incremental, 2 full.
        assert!(text.contains("ensemfdet_scan_mode_duration_seconds_count{mode=\"incremental\"} 1"));
        assert!(text.contains("ensemfdet_scan_mode_duration_seconds_count{mode=\"full\"} 2"));
    }
}
