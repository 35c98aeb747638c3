//! The application: routing and state for the versioned v1 API,
//! socket-free.
//!
//! The ingest path and the scan path never contend:
//!
//! * `POST /v1/transactions` parses its batch without any lock, maps the
//!   keys through the [`ConcurrentTransactionInterner`] under one lock
//!   taken once per batch, and appends to the [`IngestBuffer`] log — it
//!   never waits on a running scan, only on another batch's interning or
//!   a scan's brief flagged-key translation.
//! * `POST /v1/scans` pins the freshest epoch-versioned snapshot
//!   (compaction builds the graph outside every ingest lock), enqueues a
//!   job on the bounded [`JobStore`], and returns `202` immediately. One
//!   dedicated executor thread (the `executor` module) drains the queue.
//! * `GET /v1/scans/{id}` / `GET /v1/scans/latest` read published,
//!   epoch-tagged results.

use crate::http::{Request, Response};
use crate::jobs::{
    EnqueueError, JobLookup, JobState, JobStore, JobView, ScanRequest, ScanResultView, ScanSpec,
};
use ensemfdet::ensemble::effective_workers;
use ensemfdet::pipeline::{IngestBuffer, ScanRunner, SnapshotStore};
use ensemfdet::{
    EnsemFdet, EnsemFdetConfig, IncrementalPolicy, KnobValue, MonitorConfig, ScoringConfig,
    SCORING_KNOBS,
};
use ensemfdet_graph::loader::scan_records;
use ensemfdet_graph::{ConcurrentTransactionInterner, GraphError, GraphStats, Key};
use ensemfdet_telemetry::{IngestFormat, ServiceMetrics, Side, PROMETHEUS_CONTENT_TYPE};
use serde_json::{json, Map, Value};
use std::ops::Bound::{Excluded, Included};
use std::ops::RangeBounds;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Locks a mutex, recovering from poisoning. Every value the service
/// guards (alert ledger, job bookkeeping) stays structurally valid if a
/// panicking thread unwound through an update, so serving slightly stale
/// data beats wedging every subsequent request with a panic — which is
/// what expecting the lock result did here once. The interner's lock
/// recovers the same way ([`ConcurrentTransactionInterner::lock`]).
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Service configuration.
#[derive(Clone, Copy, Debug)]
pub struct ApiConfig {
    /// Monitor settings (detector, auto-scan cadence, alert threshold).
    pub monitor: MonitorConfig,
    /// Scan jobs allowed to wait in the queue; beyond this `POST
    /// /v1/scans` answers `429 queue_full`.
    pub scan_queue_capacity: usize,
    /// Finished scan jobs kept queryable via `GET /v1/scans/{id}`.
    pub result_ring: usize,
    /// Follow mode: scans default to the incremental dirty-sample-reuse
    /// path (identical results, less work per epoch under sustained
    /// ingest). Any scan can still pick its path with the `"mode"`
    /// override; `GET /v1/follow` reports the monitoring state. See
    /// `docs/MONITORING.md`.
    pub follow: bool,
    /// When incremental scans give up on reuse and re-peel everything
    /// (oversized deltas).
    pub incremental_policy: IncrementalPolicy,
    /// Worker threads for the ensemble's sample pool (`0` = auto-detect
    /// from the machine). Purely a wall-clock knob: scan results are
    /// identical for every worker count, so it lives outside the
    /// detector config and any scan may override it per request.
    pub workers: usize,
    /// Worker threads for chunked `text/csv` bulk-ingest parsing (`0` =
    /// auto-detect). Like `workers`, purely a wall-clock knob: chunks are
    /// validated in parallel but records are interned in file order, so
    /// assigned ids and every downstream result are identical for every
    /// value.
    pub ingest_workers: usize,
}

impl Default for ApiConfig {
    fn default() -> Self {
        ApiConfig {
            monitor: MonitorConfig {
                detector: EnsemFdetConfig {
                    num_samples: 20,
                    sample_ratio: 0.2,
                    ..Default::default()
                },
                scan_interval: 5_000,
                alert_threshold: 10,
                min_transactions: 2_000,
            },
            scan_queue_capacity: 8,
            result_ring: 16,
            follow: false,
            incremental_policy: IncrementalPolicy::default(),
            workers: 0,
            ingest_workers: 0,
        }
    }
}

impl ApiConfig {
    /// The settings of a scan no request overrides: every automatic scan,
    /// and the base a request's overrides overlay.
    fn scan_request(&self) -> ScanRequest {
        ScanRequest {
            config: self.monitor.detector,
            threshold: self.monitor.alert_threshold,
            incremental: self.follow,
            workers: self.workers,
        }
    }
}

/// Applies one body value to a scan request, or says why it is refused.
type Override = fn(&mut ScanRequest, &Value) -> Result<(), String>;

/// The per-scan overrides `POST /v1/scans` accepts, each with its setter.
/// `GET /v1/config` lists the names, as does an unknown key's refusal.
const SCAN_OVERRIDES: [(&str, Override); 6] = [
    ("num_samples", |r, v| {
        let n = bounded(v.as_u64(), 1..=10_000, "num_samples must be an integer in [1, 10000]")?;
        r.config.num_samples = n as usize;
        Ok(())
    }),
    ("sample_ratio", |r, v| {
        let range = (Excluded(0.0), Included(1.0));
        r.config.sample_ratio = bounded(v.as_f64(), range, "sample_ratio must be a number in (0, 1]")?;
        Ok(())
    }),
    ("threshold", |r, v| {
        let t = bounded(v.as_u64(), 1..=u64::from(u32::MAX), "threshold must be a positive integer")?;
        r.threshold = t as u32;
        Ok(())
    }),
    ("mode", |r, v| {
        let mode = v.as_str().filter(|m| ["full", "incremental"].contains(m));
        r.incremental = mode.ok_or("mode must be \"full\" or \"incremental\"")? == "incremental";
        Ok(())
    }),
    ("workers", |r, v| {
        let w = bounded(v.as_u64(), 0..=256, "workers must be an integer in [0, 256] (0 = auto)")?;
        r.workers = w as usize;
        Ok(())
    }),
    ("scoring", |r, v| {
        r.config.scoring = scoring_override(r.config.scoring, v)?;
        Ok(())
    }),
];

/// `value` when it is present and in `range`; otherwise the refusal `msg`.
fn bounded<T: PartialOrd>(
    value: Option<T>,
    range: impl RangeBounds<T>,
    msg: &str,
) -> Result<T, String> {
    value.filter(|x| range.contains(x)).ok_or_else(|| msg.into())
}

/// The service's one route table: the route a path names, which
/// [`Api::handle`] dispatches on and requests are counted under in
/// `ensemfdet_http_requests_total{route=…}`. The label set is fixed —
/// `/v1/scans/<anything>` collapses to `/v1/scans/{id}` and unknown paths
/// to `other` — so hostile paths cannot inflate label cardinality.
pub fn route_label(path: &str) -> &'static str {
    match path {
        "/v1/health" => "/v1/health",
        "/v1/stats" => "/v1/stats",
        "/v1/transactions" => "/v1/transactions",
        "/v1/scans" => "/v1/scans",
        "/v1/scans/latest" => "/v1/scans/latest",
        "/v1/follow" => "/v1/follow",
        "/v1/config" => "/v1/config",
        "/metrics" | "/v1/metrics" => "/metrics",
        p if p.starts_with("/v1/scans/") => "/v1/scans/{id}",
        _ => "other",
    }
}

/// Everything the request handlers and the scan executor share. No
/// single big lock: the buffer's lock is held once per ingest batch and
/// once per compaction's take, the snapshot store swaps `Arc`s, the
/// interner's lock is held once per ingest batch and once per scan's key
/// translation, and the alert ledger's mutex is held only by the
/// executor.
pub(crate) struct Engine {
    pub(crate) config: ApiConfig,
    pub(crate) buffer: IngestBuffer,
    pub(crate) snapshots: SnapshotStore,
    pub(crate) interner: ConcurrentTransactionInterner,
    pub(crate) runner: Mutex<ScanRunner>,
    pub(crate) jobs: JobStore,
    pub(crate) metrics: Arc<ServiceMetrics>,
    /// Transactions since the last (requested or automatic) scan.
    since_scan: AtomicUsize,
}

/// Shared, thread-safe API state plus the background scan executor.
pub struct Api {
    engine: Arc<Engine>,
    executor: Option<JoinHandle<()>>,
}

impl Api {
    /// Creates the service state and starts the scan executor thread.
    ///
    /// # Panics
    ///
    /// Panics if any cadence/capacity knob is zero or the detector
    /// configuration is invalid.
    pub fn new(config: ApiConfig) -> Self {
        assert!(config.monitor.scan_interval > 0, "scan_interval must be positive");
        assert!(
            config.monitor.alert_threshold > 0,
            "alert_threshold must be positive"
        );
        // Validate the detector config eagerly (EnsemFdet::new asserts).
        let _ = EnsemFdet::new(config.monitor.detector);
        let engine = Arc::new(Engine {
            buffer: IngestBuffer::new(),
            // Both snapshot reads (`stats`, `enqueue_scan`) force a
            // compaction, so the store's cadence is never consulted.
            snapshots: SnapshotStore::new(1),
            interner: ConcurrentTransactionInterner::new(),
            runner: Mutex::new(ScanRunner::new()),
            jobs: JobStore::new(config.scan_queue_capacity, config.result_ring),
            metrics: Arc::new(ServiceMetrics::new()),
            since_scan: AtomicUsize::new(0),
            config,
        });
        let executor = crate::executor::spawn(Arc::clone(&engine));
        Api {
            engine,
            executor: Some(executor),
        }
    }

    /// The metric set this API reports into (shared with the server's
    /// accept loop and workers).
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        &self.engine.metrics
    }

    /// Routes one request. Never panics on malformed input — bad requests
    /// get a 4xx with the standard `{"error":{"code","message"}}` body.
    pub fn handle(&self, request: &Request) -> Response {
        let path = request.path.as_str();
        match (request.method.as_str(), route_label(path)) {
            ("GET", "/v1/health") => self.health(),
            ("GET", "/v1/stats") => self.stats(),
            ("GET", "/metrics") => self.metrics_page(),
            ("GET", "/v1/config") => self.config_page(),
            ("GET", "/v1/follow") => self.follow_status(),
            ("POST", "/v1/transactions") => self.transactions(request),
            ("POST", "/v1/scans") => self.submit_scan(&request.body),
            ("GET", "/v1/scans/latest") => self.latest_scan(),
            ("GET", "/v1/scans/{id}") => self.scan_status(&path["/v1/scans/".len()..]),
            ("GET", _) | ("POST", _) => Response::error(404, "not_found", "no such route"),
            _ => Response::error(405, "method_not_allowed", "method not allowed"),
        }
    }

    fn health(&self) -> Response {
        let e = &self.engine;
        Response::json(
            200,
            &json!({
                "status": "ok",
                "transactions": e.buffer.len(),
                "alerted_accounts": lock_recover(&e.runner).alerted_count(),
                "snapshot_epoch": e.snapshots.latest().epoch,
                "scan_queue_depth": e.jobs.queue_depth(),
            }),
        )
    }

    fn metrics_page(&self) -> Response {
        Response::text(200, PROMETHEUS_CONTENT_TYPE, self.engine.metrics.render())
    }

    fn config_page(&self) -> Response {
        let c = &self.engine.config;
        let Value::Object(mut detector) = json!(c.monitor.detector) else {
            unreachable!("the detector config serializes as an object");
        };
        let scoring = scoring_json(&c.monitor.detector.scoring);
        detector.insert("scoring".into(), Value::Object(scoring));
        Response::json(
            200,
            &json!({
                "detector": Value::Object(detector),
                "alert_threshold": c.monitor.alert_threshold,
                "scan_interval": c.monitor.scan_interval,
                "min_transactions": c.monitor.min_transactions,
                "scan_queue_capacity": c.scan_queue_capacity,
                "result_ring": c.result_ring,
                "follow": c.follow,
                "max_touched_fraction": c.incremental_policy.max_touched_fraction,
                "workers": c.workers,
                "ingest_workers": c.ingest_workers,
                "scan_overrides": SCAN_OVERRIDES.map(|(name, _)| name).to_vec(),
            }),
        )
    }

    /// `GET /v1/follow`: the continuous-monitoring view — whether follow
    /// mode is on, which epoch the incremental cache is primed for, how
    /// far ingest has run ahead of it, and the reuse profile of the last
    /// published scan. This is the page an operator watches while
    /// `--follow` is live; `docs/MONITORING.md` explains the fields.
    fn follow_status(&self) -> Response {
        let e = &self.engine;
        let cached_epoch = lock_recover(&e.runner).cached_epoch();
        let latest = e.snapshots.latest();
        let last_scan = e.jobs.latest().map(|r| Value::Object(reuse_json(&r)));
        Response::json(
            200,
            &json!({
                "follow": e.config.follow,
                "snapshot_epoch": latest.epoch,
                "cached_epoch": cached_epoch,
                "ingest_lag": e.snapshots.lag(&e.buffer),
                "max_touched_fraction": e.config.incremental_policy.max_touched_fraction,
                "last_scan": last_scan,
            }),
        )
    }

    fn stats(&self) -> Response {
        let e = &self.engine;
        // Force a fresh snapshot so /stats reflects everything ingested;
        // compaction never holds ingest locks during the graph build.
        let snapshot = e.snapshots.refresh(&e.buffer, true);
        e.metrics.snapshot_epoch.set(snapshot.epoch as i64);
        e.metrics
            .snapshot_lag
            .set(e.snapshots.lag(&e.buffer) as i64);
        let (users, merchants) = (e.interner.num_users(), e.interner.num_merchants());
        let s = GraphStats::of(&snapshot.graph);
        Response::json(
            200,
            &json!({
                "users": users,
                "merchants": merchants,
                "edges": s.num_edges,
                "epoch": snapshot.epoch,
                "avg_user_degree": s.avg_user_degree,
                "avg_merchant_degree": s.avg_merchant_degree,
                "max_merchant_degree": s.max_merchant_degree,
            }),
        )
    }

    /// `POST /v1/transactions`: bulk ingest, negotiated on content type.
    ///
    /// * `application/x-ndjson` — one `["user", "merchant"]` record per
    ///   line, each line parsed directly into its pair (no JSON value
    ///   tree is ever built for the batch).
    /// * `text/csv` — a delimited transaction log, one
    ///   `user,merchant[,amount]` record per line (`#` comments and blank
    ///   lines skipped). Lines are *validated* in parallel chunks
    ///   (`ApiConfig::ingest_workers`) but interned in file order, so ids
    ///   are identical for every worker count. Amounts are validated
    ///   (finite and non-negative) but the monitoring pipeline
    ///   deduplicates edges binarily — for amount-summed weighted
    ///   detection, use the `ensemfdet ingest` CLI's direct-detect path.
    /// * anything else (including no `Content-Type` header) — the
    ///   original `{"records": [[user, merchant], …]}` JSON-array shape.
    ///
    /// All paths validate the whole batch before touching any state, so
    /// a bad batch is rejected whole and ingests nothing.
    fn transactions(&self, request: &Request) -> Response {
        let started = std::time::Instant::now();
        let body = &request.body;
        match request.content_type.as_str() {
            "text/csv" => {
                let workers = effective_workers(self.engine.config.ingest_workers);
                self.finish_ingest(parse_csv_pairs(body, workers), IngestFormat::Csv, started)
            }
            "application/x-ndjson" => {
                self.finish_ingest(parse_ndjson_records(body), IngestFormat::Ndjson, started)
            }
            _ => self.finish_ingest(parse_json_records(body), IngestFormat::Json, started),
        }
    }

    /// Shared tail of every ingest format: record the parse time, intern,
    /// append, count, publish the load-duration, interner and
    /// snapshot-lag gauges, maybe autoscan.
    fn finish_ingest<K: RecordKey>(
        &self,
        parsed: Result<Vec<(K, K)>, Response>,
        format: IngestFormat,
        started: std::time::Instant,
    ) -> Response {
        let e = &self.engine;
        let m = &e.metrics;
        m.ingest_parse[format].observe_duration(started.elapsed());
        let pairs = match parsed {
            Ok(pairs) => pairs,
            Err(resp) => return resp,
        };
        // The service's one interning site: one lock per batch, records in
        // file order, so ids never depend on how parsing was chunked (ids
        // feed sampling downstream).
        let ids: Vec<_> = {
            let mut interner = e.interner.lock();
            let ids = pairs
                .iter()
                .map(|(u, v)| (interner.user(u.key()), interner.merchant(v.key())))
                .collect();
            m.interner_keys[Side::User].set(interner.num_users() as i64);
            m.interner_keys[Side::Merchant].set(interner.num_merchants() as i64);
            m.interner_arena_bytes.set(interner.arena_bytes() as i64);
            ids
        };
        let ingested = ids.len();
        e.buffer.append_batch(ids);
        m.transactions_ingested.add(ingested as u64);
        m.ingest_load[format].observe_duration(started.elapsed());
        m.snapshot_lag.set(e.snapshots.lag(&e.buffer) as i64);
        e.since_scan.fetch_add(ingested, Ordering::Relaxed);
        let scan_job = self.maybe_autoscan();
        Response::json(
            200,
            &json!({
                "ingested": ingested,
                "transactions": e.buffer.len(),
                "scan_job": scan_job,
            }),
        )
    }

    /// Fires an automatic scan when a full interval has accumulated past
    /// the warm-up floor. Best-effort: a full queue just means the next
    /// interval tries again.
    fn maybe_autoscan(&self) -> Option<u64> {
        let e = &self.engine;
        if e.since_scan.load(Ordering::Relaxed) < e.config.monitor.scan_interval
            || e.buffer.len() < e.config.monitor.min_transactions
        {
            return None;
        }
        self.enqueue_scan(e.config.scan_request())
            .ok()
            .map(|(id, _epoch)| id)
    }

    /// The effective settings of one scan request: service defaults
    /// overlaid with any per-request overrides from the body
    /// (`{}`/`null`/empty body mean "defaults"). The default mode follows
    /// the service: incremental when follow mode is on, full otherwise;
    /// an explicit `"mode"` override wins either way.
    fn scan_overrides(&self, body: &[u8]) -> Result<ScanRequest, Response> {
        let invalid = |msg: String| Response::error(400, "invalid_config", msg);
        let mut request = self.engine.config.scan_request();
        if body.iter().all(u8::is_ascii_whitespace) {
            return Ok(request);
        }
        let parsed: Value = serde_json::from_slice(body)
            .map_err(|e| Response::error(400, "bad_request", format!("invalid JSON: {e}")))?;
        if parsed.is_null() {
            return Ok(request);
        }
        let obj = parsed
            .as_object()
            .ok_or_else(|| invalid("expected a JSON object of overrides".into()))?;
        for (key, value) in obj.iter() {
            let Some((_, set)) = SCAN_OVERRIDES.iter().find(|(name, _)| name == key) else {
                let expected = SCAN_OVERRIDES.map(|(name, _)| name).join(", ");
                return Err(invalid(format!("unknown override {key:?} (expected {expected})")));
            };
            set(&mut request, value).map_err(invalid)?;
        }
        Ok(request)
    }

    /// Pins the freshest snapshot and enqueues a scan job on it.
    fn enqueue_scan(&self, request: ScanRequest) -> Result<(u64, u64), Response> {
        let e = &self.engine;
        let snapshot = e.snapshots.refresh(&e.buffer, true);
        let epoch = snapshot.epoch;
        e.metrics.snapshot_epoch.set(epoch as i64);
        e.metrics
            .snapshot_lag
            .set(e.snapshots.lag(&e.buffer) as i64);
        e.since_scan.store(0, Ordering::Relaxed);
        match e.jobs.enqueue(ScanSpec { snapshot, request }) {
            Ok(id) => {
                e.metrics.scan_queue_depth.set(e.jobs.queue_depth() as i64);
                Ok((id, epoch))
            }
            Err(EnqueueError::QueueFull) => {
                e.metrics.scan_queue_rejected.inc();
                Err(Response::error(
                    429,
                    "queue_full",
                    "scan queue full, retry later",
                ))
            }
            Err(EnqueueError::Stopping) => {
                Err(Response::error(503, "internal", "service shutting down"))
            }
        }
    }

    fn submit_scan(&self, body: &[u8]) -> Response {
        let request = match self.scan_overrides(body) {
            Ok(request) => request,
            Err(resp) => return resp,
        };
        match self.enqueue_scan(request) {
            Ok((job_id, epoch)) => Response::json(
                202,
                &json!({
                    "job_id": job_id,
                    "epoch": epoch,
                    "status": JobState::Queued.name(),
                }),
            ),
            Err(resp) => resp,
        }
    }

    fn scan_status(&self, id: &str) -> Response {
        let Ok(id) = id.parse::<u64>() else {
            return Response::error(400, "bad_request", "scan job ids are decimal integers");
        };
        match self.engine.jobs.lookup(id) {
            JobLookup::Found(view) => Response::json(200, &job_json(&view)),
            JobLookup::Evicted => Response::error(
                410,
                "gone",
                format!("scan job {id} existed but its result aged out of the ring"),
            ),
            JobLookup::Unknown => {
                Response::error(404, "unknown_job", format!("no such scan job: {id}"))
            }
        }
    }

    fn latest_scan(&self) -> Response {
        match self.engine.jobs.latest() {
            Some(r) => Response::json(200, &result_json(&r)),
            None => Response::error(404, "no_completed_scan", "no scan has completed yet"),
        }
    }
}

impl Drop for Api {
    fn drop(&mut self) {
        self.engine.jobs.stop();
        if let Some(executor) = self.executor.take() {
            let _ = executor.join();
        }
    }
}

impl std::fmt::Debug for Api {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Api")
            .field("config", &self.engine.config)
            .field("transactions", &self.engine.buffer.len())
            .finish_non_exhaustive()
    }
}

/// Overlays a `"scoring"` override object onto the service's default
/// scoring configuration, one [`SCORING_KNOBS`] key at a time. Sending a
/// scoring object implies `enabled: true` unless the object itself
/// carries `"enabled": false`; the merged configuration is validated as a
/// whole (weights finite and not all zero, floors and threshold in
/// `[0, 1]`, at least one spectral component), so a request can never
/// enqueue a scan the scorer would reject.
fn scoring_override(base: ScoringConfig, value: &Value) -> Result<ScoringConfig, String> {
    fn object<'v>(v: &'v Value, name: &str) -> Result<&'v Map, String> {
        v.as_object()
            .ok_or_else(|| format!("{name} must be a JSON object"))
    }
    let mut scoring = base;
    scoring.enabled = true;
    for (key, v) in object(value, "scoring")?.iter() {
        let (nested, members): (bool, Vec<(String, &Value)>) = match key.as_str() {
            "weights" | "floors" => {
                let members = object(v, &format!("scoring.{key}"))?.iter();
                (true, members.map(|(m, v)| (format!("{key}.{m}"), v)).collect())
            }
            _ => (false, vec![(key.clone(), v)]),
        };
        for (key, v) in members {
            // Dotted keys name nested members: a top-level "weights.vote"
            // is unknown.
            let entry = SCORING_KNOBS.iter().find(|(.., k)| *k == key);
            let Some(&(field, ..)) = entry.filter(|(.., k)| k.contains('.') == nested) else {
                let expected = SCORING_KNOBS.map(|(.., k)| k).join(", ");
                return Err(format!("unknown scoring key {key:?} (expected {expected})"));
            };
            if field == "spectral_components" {
                bounded(v.as_u64(), 1..=10_000, "scoring.components must be an integer in [1, 10000]")?;
            }
            let value = KnobValue {
                number: v.as_f64(),
                count: v.as_u64(),
                text: v.as_str(),
                flag: v.as_bool(),
            };
            scoring
                .set(field, value)
                .map_err(|e| format!("scoring.{key} {e}"))?;
        }
    }
    scoring
        .validate()
        .map_err(|e| format!("invalid scoring: {e}"))?;
    Ok(scoring)
}

/// A scoring configuration in exactly the shape [`scoring_override`]
/// parses: every [`SCORING_KNOBS`] key, with `weights.*` and `floors.*`
/// as members of nested objects, so a client can send it back as is.
fn scoring_json(config: &ScoringConfig) -> Map {
    let fields = json!(config);
    let mut out = Map::new();
    for (field, _, key) in SCORING_KNOBS {
        let value = match field {
            "normalization" => json!(config.normalization.name()),
            _ => fields[field].clone(),
        };
        let Some((group, member)) = key.split_once('.') else {
            out.insert(key.into(), value);
            continue;
        };
        let mut members = out.get(group).and_then(Value::as_object).cloned().unwrap_or_default();
        members.insert(member.into(), value);
        out.insert(group.into(), Value::Object(members));
    }
    out
}

/// The wire shape of one job record.
fn job_json(view: &JobView) -> Value {
    let mut body = Map::new();
    body.insert("job_id".into(), json!(view.id));
    body.insert("status".into(), json!(view.state.name()));
    body.insert("epoch".into(), json!(view.epoch));
    body.insert(
        "queue_wait_millis".into(),
        json!(view.queue_wait.as_secs_f64() * 1e3),
    );
    if let Some(run) = view.run_time {
        body.insert("run_millis".into(), json!(run.as_secs_f64() * 1e3));
    }
    if let Some(result) = &view.result {
        body.insert("result".into(), result_json(result));
    }
    if let Some(error) = &view.error {
        body.insert(
            "error".into(),
            json!({ "code": "internal", "message": error }),
        );
    }
    Value::Object(body)
}

/// The wire shape of one published scan result.
fn result_json(r: &ScanResultView) -> Value {
    let mut body = reuse_json(r);
    body.insert("transactions".into(), json!(r.transactions));
    body.insert("flagged".into(), json!(r.flagged.clone()));
    body.insert("new_alerts".into(), json!(r.new_alerts.clone()));
    body.insert("num_samples".into(), json!(r.request.config.num_samples));
    body.insert("sample_ratio".into(), json!(r.request.config.sample_ratio));
    body.insert("workers".into(), json!(r.workers));
    body.insert("threshold".into(), json!(r.request.threshold));
    if let Some(s) = &r.scoring {
        let mut scoring = scoring_json(&r.request.config.scoring);
        scoring.insert("hybrid_flagged".into(), json!(s.hybrid_flagged.clone()));
        scoring.insert("component_millis".into(), json!(s.component_millis.to_vec()));
        scoring.insert("components_reused".into(), json!(s.components_reused));
        let accounts = s.account_scores.iter().map(|(key, [vote, spectral, kcore, hybrid])| {
            json!({
                "account": key,
                "vote": vote,
                "spectral": spectral,
                "kcore": kcore,
                "hybrid": hybrid,
            })
        });
        scoring.insert("account_scores".into(), Value::Array(accounts.collect()));
        body.insert("scoring".into(), Value::Object(scoring));
    }
    Value::Object(body)
}

/// The fields a published result and `GET /v1/follow`'s `last_scan`
/// share: which scan it was, how long it took, and how it reused the
/// incremental cache.
fn reuse_json(r: &ScanResultView) -> Map {
    let Value::Object(body) = json!({
        "job_id": r.job_id,
        "epoch": r.epoch,
        "scan_millis": r.scan_millis,
        "mode": r.reuse.mode(),
        "fallback": r.reuse.fallback.map(|f| f.name()),
        "samples_reused": r.reuse.samples_reused,
        "samples_repeeled": r.reuse.samples_repeeled,
        "dirty_fraction": r.reuse.dirty_fraction(),
        "delta_touched_nodes": r.reuse.delta_touched_nodes,
    }) else {
        unreachable!("json! object literal");
    };
    body
}

/// A parsed record key as the interner takes it: CSV keys arrive hashed
/// by the parse workers, JSON and NDJSON keys are hashed as they are
/// interned.
trait RecordKey {
    fn key(&self) -> Key<'_>;
}

impl RecordKey for Key<'_> {
    fn key(&self) -> Key<'_> {
        *self
    }
}

impl RecordKey for String {
    fn key(&self) -> Key<'_> {
        Key::new(self)
    }
}

/// Parses the legacy JSON-array ingest shape
/// `{"records": [[user, merchant], …]}` into owned key pairs,
/// validating every record up front.
fn parse_json_records(body: &[u8]) -> Result<Vec<(String, String)>, Response> {
    let parsed: Value = serde_json::from_slice(body)
        .map_err(|e| Response::error(400, "bad_request", format!("invalid JSON: {e}")))?;
    let Some(records) = parsed.get("records").and_then(Value::as_array) else {
        return Err(Response::error(
            400,
            "bad_request",
            "expected {\"records\": [[user, merchant], …]}",
        ));
    };
    let mut keys = Vec::with_capacity(records.len());
    for (i, record) in records.iter().enumerate() {
        let pair = record.as_array().filter(|a| a.len() >= 2);
        let (Some(user), Some(merchant)) = (
            pair.and_then(|a| a[0].as_str()),
            pair.and_then(|a| a[1].as_str()),
        ) else {
            return Err(Response::error(
                400,
                "invalid_record",
                format!("record {i}: expected [user, merchant]"),
            ));
        };
        keys.push((user.to_string(), merchant.to_string()));
    }
    Ok(keys)
}

/// Parses an `application/x-ndjson` ingest body: one
/// `["user", "merchant"]` record per line, blank lines ignored.
///
/// Each line deserializes straight into its string pair — the batch
/// never builds a `serde_json::Value` tree, which is what makes this the
/// bulk path. A bad line fails the whole batch with `400 invalid_record`
/// carrying the 1-based `"line"` number in the error object.
fn parse_ndjson_records(body: &[u8]) -> Result<Vec<(String, String)>, Response> {
    let mut keys = Vec::new();
    for (i, line) in body.split(|&b| b == b'\n').enumerate() {
        if line.iter().all(u8::is_ascii_whitespace) {
            continue;
        }
        match serde_json::from_slice::<(String, String)>(line) {
            Ok(pair) => keys.push(pair),
            Err(e) => {
                let message = format!("expected [\"user\", \"merchant\"]: {e}");
                return Err(invalid_line(i + 1, &message));
            }
        }
    }
    Ok(keys)
}

/// The `400 invalid_record` answer to a batch whose 1-based line `n` is
/// malformed, with the line number also in the error object.
fn invalid_line(n: usize, message: &str) -> Response {
    Response::json(
        400,
        &json!({
            "error": {
                "code": "invalid_record",
                "message": format!("line {n}: {message}"),
                "line": n,
            }
        }),
    )
}

/// Parses a `text/csv` ingest body: one `user,merchant[,amount]` record
/// per line, `#` comments and blank lines skipped. The graph crate's
/// [`scan_records`] validates `workers` line-aligned chunks in parallel
/// and hashes every key there, so the caller's serial interning section
/// only probes and inserts. The returned pairs are in exact file order,
/// so that interning assigns the same ids for every worker count.
/// Amounts are validated (finite and non-negative) but discarded: the
/// monitoring pipeline deduplicates edges binarily.
///
/// A bad line fails the whole batch with `400 invalid_record` carrying
/// the 1-based `"line"` number in the error object — the same contract
/// as the NDJSON path.
///
/// Public because the pinned benchmark's per-layer replay
/// (`crates/bench/src/bin/benchmark/replay.rs`) times this parser as its
/// `ingest` span, without socket noise.
pub fn parse_csv_pairs(body: &[u8], workers: usize) -> Result<Vec<(Key<'_>, Key<'_>)>, Response> {
    scan_records(body, ',', workers, |user, merchant, _amount| {
        (Key::new(user), Key::new(merchant))
    })
    .map(|(chunks, _lines)| chunks.concat())
    .map_err(|e| match e {
        GraphError::Parse { line, message } => invalid_line(line, &message),
        other => Response::error(400, "invalid_record", other.to_string()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemfdet::ScoreNormalization;
    use std::time::{Duration, Instant};

    fn post(api: &Api, path: &str, body: Value) -> (u16, Value) {
        let resp = api.handle(&Request {
            method: "POST".into(),
            path: path.into(),
            content_type: String::new(),
            body: body.to_string().into_bytes(),
        });
        let parsed = serde_json::from_slice(&resp.body).unwrap_or(Value::Null);
        (resp.status, parsed)
    }

    fn post_ndjson(api: &Api, path: &str, body: &str) -> (u16, Value) {
        let resp = api.handle(&Request {
            method: "POST".into(),
            path: path.into(),
            content_type: "application/x-ndjson".into(),
            body: body.as_bytes().to_vec(),
        });
        let parsed = serde_json::from_slice(&resp.body).unwrap_or(Value::Null);
        (resp.status, parsed)
    }

    fn post_csv(api: &Api, path: &str, body: &str) -> (u16, Value) {
        let resp = api.handle(&Request {
            method: "POST".into(),
            path: path.into(),
            content_type: "text/csv".into(),
            body: body.as_bytes().to_vec(),
        });
        let parsed = serde_json::from_slice(&resp.body).unwrap_or(Value::Null);
        (resp.status, parsed)
    }

    fn get(api: &Api, path: &str) -> (u16, Value) {
        let resp = api.handle(&Request {
            method: "GET".into(),
            path: path.into(),
            content_type: String::new(),
            body: vec![],
        });
        let parsed = serde_json::from_slice(&resp.body).unwrap_or(Value::Null);
        (resp.status, parsed)
    }

    /// Polls a job until it reaches a terminal state.
    fn wait_done(api: &Api, job_id: u64) -> Value {
        let start = Instant::now();
        loop {
            let (status, body) = get(api, &format!("/v1/scans/{job_id}"));
            assert_eq!(status, 200, "{body}");
            let state = body["status"].as_str().unwrap().to_string();
            if state == "done" || state == "failed" {
                return body;
            }
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "job {job_id} stuck in {state}"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn quick_api() -> Api {
        Api::new(quick_config())
    }

    fn quick_config() -> ApiConfig {
        ApiConfig {
            monitor: MonitorConfig {
                detector: EnsemFdetConfig {
                    num_samples: 20,
                    sample_ratio: 0.5,
                    seed: 3,
                    ..Default::default()
                },
                scan_interval: 1_000_000,
                alert_threshold: 15,
                min_transactions: 0,
            },
            ..Default::default()
        }
    }

    fn ring_records() -> Vec<Value> {
        // Ring: 8 bots × 6 stores; background: 60 shoppers × 1 purchase.
        let mut records = Vec::new();
        for b in 0..8 {
            for s in 0..6 {
                records.push(json!([format!("bot-{b}"), format!("ring-{s}")]));
            }
        }
        for p in 0..60 {
            records.push(json!([format!("pin-{p}"), format!("store-{}", p % 50)]));
        }
        records
    }

    #[test]
    fn health_reports_counts_on_both_paths() {
        let api = quick_api();
        let (status, body) = get(&api, "/v1/health");
        assert_eq!(status, 200);
        assert_eq!(body["status"], "ok");
        assert_eq!(body["transactions"], 0);
        assert_eq!(body["snapshot_epoch"], 0);
    }

    #[test]
    fn ingest_then_async_scan_flags_ring() {
        let api = quick_api();
        let (status, body) = post(&api, "/v1/transactions", json!({ "records": ring_records() }));
        assert_eq!(status, 200);
        assert_eq!(body["ingested"], 108);

        let (status, body) = post(&api, "/v1/scans", json!({}));
        assert_eq!(status, 202, "{body}");
        assert!(body["epoch"].as_u64().unwrap() >= 1);
        let job_id = body["job_id"].as_u64().unwrap();

        let done = wait_done(&api, job_id);
        assert_eq!(done["status"], "done");
        let flagged: Vec<String> = done["result"]["flagged"]
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap().to_string())
            .collect();
        // Detection quality is covered by the core/integration suites; at
        // the service level we check the ring dominates the flag set.
        let bots = flagged.iter().filter(|k| k.starts_with("bot-")).count();
        assert!(bots >= 6, "only {bots}/8 bots flagged: {flagged:?}");
        assert!(
            bots * 2 >= flagged.len(),
            "bots are a minority of the flags: {flagged:?}"
        );

        // The published result is also the latest.
        let (status, latest) = get(&api, "/v1/scans/latest");
        assert_eq!(status, 200);
        assert_eq!(latest["job_id"].as_u64().unwrap(), job_id);
        assert_eq!(latest["epoch"], done["epoch"]);
    }

    #[test]
    fn scan_overrides_are_applied_and_validated() {
        let api = quick_api();
        post(&api, "/v1/transactions", json!({ "records": ring_records() }));

        // An impossible threshold flags nobody.
        let (status, body) =
            post(&api, "/v1/scans", json!({ "threshold": 1000, "num_samples": 5 }));
        assert_eq!(status, 202, "{body}");
        let done = wait_done(&api, body["job_id"].as_u64().unwrap());
        assert_eq!(done["status"], "done");
        assert_eq!(done["result"]["threshold"], 1000);
        assert_eq!(done["result"]["num_samples"], 5);
        assert!(done["result"]["flagged"].as_array().unwrap().is_empty());

        // The result no longer echoes an engine: there is one.
        assert!(done["result"].get("engine").is_none(), "{done}");

        // Invalid overrides are 400 invalid_config. The peel engine and
        // the sample path are not overrides: any value is unknown.
        for bad in [
            json!({ "sample_ratio": 0.0 }),
            json!({ "sample_ratio": 1.5 }),
            json!({ "sample_ratio": "half" }),
            json!({ "num_samples": 0 }),
            json!({ "threshold": -3 }),
            json!({ "path": "mmap" }),
            json!({ "path": 7 }),
            json!({ "path": "mask" }),
            json!({ "engine": "quantum" }),
            json!({ "engine": 7 }),
            json!({ "engine": "csr" }),
            json!({ "mode": "turbo" }),
            json!({ "mode": 1 }),
            json!({ "workers": -1 }),
            json!({ "workers": 257 }),
            json!({ "workers": "many" }),
            json!({ "frobnicate": true }),
            json!([1, 2, 3]),
        ] {
            let (status, body) = post(&api, "/v1/scans", bad.clone());
            assert_eq!(status, 400, "override {bad} accepted: {body}");
            assert_eq!(body["error"]["code"], "invalid_config", "{body}");
        }
    }

    /// Sorted flagged keys of a finished job's result.
    fn flagged_of(done: &Value) -> Vec<String> {
        let mut flagged: Vec<String> = done["result"]["flagged"]
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap().to_string())
            .collect();
        flagged.sort();
        flagged
    }

    #[test]
    fn incremental_mode_reuses_and_matches_full() {
        let api = quick_api();
        post(&api, "/v1/transactions", json!({ "records": ring_records() }));

        // Reference full scan.
        let (_, body) = post(&api, "/v1/scans", json!({ "mode": "full" }));
        let full = wait_done(&api, body["job_id"].as_u64().unwrap());
        assert_eq!(full["result"]["mode"], "full");
        assert!(full["result"]["fallback"].is_null());
        assert_eq!(full["result"]["samples_repeeled"], 20);

        // First incremental request: cache is cold, so it degrades to a
        // full scan (reported honestly) and primes the cache.
        let (_, body) = post(&api, "/v1/scans", json!({ "mode": "incremental" }));
        let cold = wait_done(&api, body["job_id"].as_u64().unwrap());
        assert_eq!(cold["result"]["mode"], "full", "{cold}");
        assert_eq!(cold["result"]["fallback"], "cold_cache");
        assert_eq!(flagged_of(&cold), flagged_of(&full));

        // Same epoch again: everything replays from the cache.
        let (_, body) = post(&api, "/v1/scans", json!({ "mode": "incremental" }));
        let warm = wait_done(&api, body["job_id"].as_u64().unwrap());
        assert_eq!(warm["result"]["mode"], "incremental", "{warm}");
        assert_eq!(warm["result"]["samples_reused"], 20);
        assert_eq!(warm["result"]["samples_repeeled"], 0);
        assert_eq!(warm["result"]["dirty_fraction"], 0.0);
        assert_eq!(flagged_of(&warm), flagged_of(&full));

        // A small ingest delta: the incremental scan crosses the epoch
        // and still matches a from-scratch scan of the new epoch.
        post(
            &api,
            "/v1/transactions",
            json!({ "records": [["late-1", "late-shop"], ["late-2", "late-shop"]] }),
        );
        let (_, body) = post(&api, "/v1/scans", json!({ "mode": "incremental" }));
        let inc = wait_done(&api, body["job_id"].as_u64().unwrap());
        assert_eq!(inc["result"]["mode"], "incremental", "{inc}");
        assert!(inc["result"]["delta_touched_nodes"].as_u64().unwrap() >= 3);
        let (_, body) = post(&api, "/v1/scans", json!({ "mode": "full" }));
        let oracle = wait_done(&api, body["job_id"].as_u64().unwrap());
        assert_eq!(inc["epoch"], oracle["epoch"], "scans must pin the same epoch");
        assert_eq!(flagged_of(&inc), flagged_of(&oracle));
    }

    #[test]
    fn follow_mode_defaults_to_incremental_and_reports_state() {
        let api = Api::new(ApiConfig {
            monitor: MonitorConfig {
                detector: EnsemFdetConfig {
                    num_samples: 8,
                    sample_ratio: 0.5,
                    seed: 3,
                    ..Default::default()
                },
                scan_interval: 1_000_000,
                alert_threshold: 6,
                min_transactions: 0,
            },
            follow: true,
            ..Default::default()
        });
        // Before any activity the follow page reports a cold pipeline.
        let (status, body) = get(&api, "/v1/follow");
        assert_eq!(status, 200);
        assert_eq!(body["follow"], true);
        assert_eq!(body["snapshot_epoch"], 0);
        assert!(body["cached_epoch"].is_null());
        assert!(body["last_scan"].is_null());

        post(&api, "/v1/transactions", json!({ "records": ring_records() }));
        // Default mode in follow mode is incremental; the first scan
        // falls back (cold cache), the second reuses everything.
        let (_, body) = post(&api, "/v1/scans", json!({}));
        let first = wait_done(&api, body["job_id"].as_u64().unwrap());
        assert_eq!(first["result"]["fallback"], "cold_cache", "{first}");
        let (_, body) = post(&api, "/v1/scans", json!({}));
        let second = wait_done(&api, body["job_id"].as_u64().unwrap());
        assert_eq!(second["result"]["mode"], "incremental", "{second}");
        assert_eq!(second["result"]["samples_reused"], 8);

        let (status, body) = get(&api, "/v1/follow");
        assert_eq!(status, 200);
        assert_eq!(body["cached_epoch"], 1);
        assert_eq!(body["snapshot_epoch"], 1);
        assert_eq!(body["last_scan"]["mode"], "incremental", "{body}");
        assert_eq!(body["last_scan"]["samples_reused"], 8);
        assert!((body["max_touched_fraction"].as_f64().unwrap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn config_page_reports_effective_settings() {
        let api = quick_api();
        let (status, body) = get(&api, "/v1/config");
        assert_eq!(status, 200);
        assert_eq!(body["detector"]["num_samples"], 20);
        assert_eq!(body["alert_threshold"], 15);
        assert_eq!(body["scan_queue_capacity"], 8);
        let overrides = body["scan_overrides"].as_array().unwrap();
        assert_eq!(overrides.len(), 6);
        assert!(!overrides.iter().any(|v| v == "path"));
        assert!(!overrides.iter().any(|v| v == "engine"));
        assert!(overrides.iter().any(|v| v == "mode"));
        assert!(overrides.iter().any(|v| v == "workers"));
        assert!(overrides.iter().any(|v| v == "scoring"));
        // The scoring block is in the shape a scan override takes.
        assert_eq!(body["detector"]["scoring"]["enabled"], false);
        assert_eq!(body["workers"], 0, "default workers is auto (0)");
        assert_eq!(body["ingest_workers"], 0, "default ingest workers is auto (0)");
        assert_eq!(body["follow"], false);
        assert!((body["max_touched_fraction"].as_f64().unwrap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn config_page_scoring_block_posts_back_as_a_scan_override() {
        let non_default = ScoringConfig {
            enabled: true,
            vote_weight: 0.5,
            kcore_floor: 0.25,
            normalization: ScoreNormalization::Rank,
            hybrid_threshold: 0.4,
            spectral_components: 7,
            spectral_seed: 99,
            ..ScoringConfig::default()
        };
        for scoring in [ScoringConfig::default(), non_default] {
            let mut config = quick_config();
            config.monitor.detector.scoring = scoring;
            let api = Api::new(config);
            post(&api, "/v1/transactions", json!({ "records": [["u1", "m1"], ["u2", "m1"]] }));

            let (_, page) = get(&api, "/v1/config");
            let block = page["detector"]["scoring"].clone();
            let (status, body) = post(&api, "/v1/scans", json!({ "scoring": &block }));
            assert_eq!(status, 202, "{body}");
            let id = body["job_id"].as_u64().unwrap();
            let done = wait_done(&api, id);
            // A scored result echoes the same block beside its scores.
            if scoring.enabled {
                for (key, value) in block.as_object().unwrap().iter() {
                    assert_eq!(&done["result"]["scoring"][key.as_str()], value, "{key}");
                }
            }
            let JobLookup::Found(job) = api.engine.jobs.lookup(id) else {
                panic!("job {id} not found");
            };
            let request = job.result.expect("a done job has a result").request;
            assert_eq!(Value::Object(scoring_json(&request.config.scoring)), block);
            assert_eq!(format!("{:?}", request.config.scoring), format!("{scoring:?}"));
        }
    }

    #[test]
    fn unknown_job_is_404_bad_id_is_400() {
        let api = quick_api();
        let (status, body) = get(&api, "/v1/scans/999");
        assert_eq!(status, 404);
        assert_eq!(body["error"]["code"], "unknown_job");
        let (status, body) = get(&api, "/v1/scans/not-a-number");
        assert_eq!(status, 400);
        assert_eq!(body["error"]["code"], "bad_request");
    }

    #[test]
    fn evicted_job_is_410_gone() {
        // A one-slot result ring: finishing the second scan evicts the
        // first, whose id must then answer `410 gone`, not `404`.
        let api = Api::new(ApiConfig {
            monitor: MonitorConfig {
                detector: EnsemFdetConfig {
                    num_samples: 20,
                    sample_ratio: 0.5,
                    seed: 3,
                    ..Default::default()
                },
                scan_interval: 1_000_000,
                alert_threshold: 15,
                min_transactions: 0,
            },
            result_ring: 1,
            ..Default::default()
        });
        post(&api, "/v1/transactions", json!({ "records": ring_records() }));
        let (_, first) = post(&api, "/v1/scans", json!({ "num_samples": 4 }));
        let first_id = first["job_id"].as_u64().unwrap();
        wait_done(&api, first_id);
        let (_, second) = post(&api, "/v1/scans", json!({ "num_samples": 4 }));
        wait_done(&api, second["job_id"].as_u64().unwrap());

        let (status, body) = get(&api, &format!("/v1/scans/{first_id}"));
        assert_eq!(status, 410, "{body}");
        assert_eq!(body["error"]["code"], "gone");
        // Never-issued ids still 404.
        let (status, body) = get(&api, "/v1/scans/424242");
        assert_eq!(status, 404, "{body}");
        assert_eq!(body["error"]["code"], "unknown_job");
    }

    #[test]
    fn stats_reflect_ingested_graph() {
        let api = quick_api();
        post(
            &api,
            "/v1/transactions",
            json!({ "records": [["a", "x"], ["b", "x"], ["a", "y"]] }),
        );
        let (status, body) = get(&api, "/v1/stats");
        assert_eq!(status, 200);
        assert_eq!(body["users"], 2);
        assert_eq!(body["merchants"], 2);
        assert_eq!(body["edges"], 3);
        assert!(body["epoch"].as_u64().unwrap() >= 1);
    }

    #[test]
    fn metrics_page_reflects_activity() {
        let api = quick_api();
        let metrics = || {
            let resp = api.handle(&Request {
                method: "GET".into(),
                path: "/metrics".into(),
                content_type: String::new(),
                body: vec![],
            });
            assert_eq!(resp.status, 200);
            assert_eq!(resp.content_type, PROMETHEUS_CONTENT_TYPE);
            String::from_utf8(resp.body).unwrap()
        };
        post(
            &api,
            "/v1/transactions",
            json!({ "records": [["a", "x"], ["b", "x"]] }),
        );
        // Ingest alone moves the snapshot lag; no snapshot exists yet.
        let text = metrics();
        assert!(text.contains("ensemfdet_snapshot_lag_transactions 2"), "{text}");
        let (_, body) = post(&api, "/v1/scans", Value::Null);
        wait_done(&api, body["job_id"].as_u64().unwrap());
        let text = metrics();
        assert!(text.contains("ensemfdet_transactions_ingested_total 2"), "{text}");
        assert!(text.contains("ensemfdet_scan_duration_seconds_count 1"), "{text}");
        assert!(text.contains("ensemfdet_snapshot_lag_transactions 0"), "{text}");
        // The scan fed one per-sample timing observation per sample.
        assert!(text.contains("ensemfdet_scan_sample_duration_seconds_count 20"), "{text}");
        // The pipeline gauges are published.
        assert!(text.contains("ensemfdet_snapshot_epoch 1"), "{text}");
        assert!(text.contains("ensemfdet_scan_job_duration_seconds_count 1"), "{text}");
        // Worker-pool and ingest-parse telemetry. The effective worker
        // count is machine-dependent (0 = auto), so only presence and a
        // non-zero busy-time count are asserted.
        assert!(text.contains("\nensemfdet_scan_workers "), "{text}");
        assert!(!text.contains("ensemfdet_scan_worker_busy_seconds_count 0"), "{text}");
        assert!(
            text.contains("ensemfdet_ingest_parse_duration_seconds_count{content_type=\"json\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn malformed_json_is_400_with_envelope() {
        let api = quick_api();
        let resp = api.handle(&Request {
            method: "POST".into(),
            path: "/v1/transactions".into(),
            content_type: String::new(),
            body: b"not json".to_vec(),
        });
        assert_eq!(resp.status, 400);
        let body: Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(body["error"]["code"], "bad_request");
        assert!(body["error"]["message"].as_str().unwrap().contains("invalid JSON"));
    }

    #[test]
    fn bad_record_shape_is_400_and_ingests_nothing() {
        let api = quick_api();
        let (status, body) = post(
            &api,
            "/v1/transactions",
            json!({ "records": [["good", "pair"], ["only-user"]] }),
        );
        assert_eq!(status, 400);
        assert_eq!(body["error"]["code"], "invalid_record");
        assert!(body["error"]["message"].as_str().unwrap().contains("record 1"));
        // The batch was rejected whole.
        let (_, health) = get(&api, "/v1/health");
        assert_eq!(health["transactions"], 0);
    }

    #[test]
    fn ndjson_ingest_accepts_one_record_per_line() {
        let api = quick_api();
        let body = "[\"a\", \"x\"]\n[\"b\", \"x\"]\n\n[\"a\", \"y\"]\n";
        let (status, resp) = post_ndjson(&api, "/v1/transactions", body);
        assert_eq!(status, 200, "{resp}");
        assert_eq!(resp["ingested"], 3);
        assert_eq!(resp["transactions"], 3);
        let (_, stats) = get(&api, "/v1/stats");
        assert_eq!(stats["users"], 2);
        assert_eq!(stats["merchants"], 2);
        assert_eq!(stats["edges"], 3);
    }

    #[test]
    fn ndjson_and_json_array_ingest_build_the_same_graph() {
        let ndjson_api = quick_api();
        let json_api = quick_api();
        let records = ring_records();
        let lines: String = records.iter().map(|r| format!("{r}\n")).collect();
        let (status, _) = post_ndjson(&ndjson_api, "/v1/transactions", &lines);
        assert_eq!(status, 200);
        let (status, _) = post(&json_api, "/v1/transactions", json!({ "records": records }));
        assert_eq!(status, 200);
        let (_, a) = get(&ndjson_api, "/v1/stats");
        let (_, b) = get(&json_api, "/v1/stats");
        assert_eq!(a["users"], b["users"]);
        assert_eq!(a["merchants"], b["merchants"]);
        assert_eq!(a["edges"], b["edges"]);

        // Both parsers return exactly the source records, in order.
        let records = ring_records();
        let pairs: Vec<(String, String)> = records
            .iter()
            .map(|r| (r[0].as_str().unwrap().into(), r[1].as_str().unwrap().into()))
            .collect();
        let json_body = json!({ "records": records }).to_string();
        assert_eq!(parse_json_records(json_body.as_bytes()).ok(), Some(pairs.clone()));
        assert_eq!(parse_ndjson_records(lines.as_bytes()).ok(), Some(pairs));
    }

    #[test]
    fn ndjson_bad_line_is_400_with_line_number_and_ingests_nothing() {
        let api = quick_api();
        let body = "[\"good\", \"pair\"]\n{\"not\": \"a pair\"}\n[\"more\", \"good\"]\n";
        let (status, resp) = post_ndjson(&api, "/v1/transactions", body);
        assert_eq!(status, 400, "{resp}");
        assert_eq!(resp["error"]["code"], "invalid_record");
        assert_eq!(resp["error"]["line"], 2, "{resp}");
        // All-or-nothing: the good lines around the bad one are dropped.
        let (_, health) = get(&api, "/v1/health");
        assert_eq!(health["transactions"], 0);

        // Truncated trailing line (a cut-off upload) also names its line.
        let (status, resp) = post_ndjson(&api, "/v1/transactions", "[\"a\", \"x\"]\n[\"b\", ");
        assert_eq!(status, 400);
        assert_eq!(resp["error"]["line"], 2, "{resp}");
        let (_, health) = get(&api, "/v1/health");
        assert_eq!(health["transactions"], 0);
    }

    #[test]
    fn csv_ingest_accepts_transaction_logs() {
        let api = quick_api();
        // A repeat purchase is one more ingested record but no new edge.
        let body = "# ts omitted\nalice,storeA,12.50\nbob,storeA\n\nalice,storeB,3\n\
                    alice,storeA,1.75\n";
        let (status, resp) = post_csv(&api, "/v1/transactions", body);
        assert_eq!(status, 200, "{resp}");
        assert_eq!(resp["ingested"], 4);
        let (_, stats) = get(&api, "/v1/stats");
        assert_eq!(stats["users"], 2);
        assert_eq!(stats["merchants"], 2);
        assert_eq!(stats["edges"], 3);
        // The CSV load fed the format-labelled load histogram and the
        // interner gauges.
        let resp = api.handle(&Request {
            method: "GET".into(),
            path: "/metrics".into(),
            content_type: String::new(),
            body: vec![],
        });
        let text = String::from_utf8(resp.body).unwrap();
        assert!(
            text.contains("ensemfdet_ingest_load_duration_seconds_count{format=\"csv\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("ensemfdet_ingest_parse_duration_seconds_count{content_type=\"csv\"} 1"),
            "{text}"
        );
        assert!(text.contains("ensemfdet_interner_keys_total{side=\"user\"} 2"), "{text}");
        assert!(text.contains("ensemfdet_interner_keys_total{side=\"merchant\"} 2"), "{text}");
        assert!(!text.contains("ensemfdet_interner_arena_bytes 0\n"), "{text}");
    }

    #[test]
    fn csv_bad_line_is_400_with_line_number_and_ingests_nothing() {
        let api = quick_api();
        // Fewer than two fields.
        let (status, resp) = post_csv(&api, "/v1/transactions", "a,m\nonly-one-field\nb,m\n");
        assert_eq!(status, 400, "{resp}");
        assert_eq!(resp["error"]["code"], "invalid_record");
        assert_eq!(resp["error"]["line"], 2, "{resp}");
        // Malformed amount.
        let (status, resp) = post_csv(&api, "/v1/transactions", "a,m,1.5\nb,m,lots\n");
        assert_eq!(status, 400, "{resp}");
        assert_eq!(resp["error"]["line"], 2, "{resp}");
        assert!(
            resp["error"]["message"].as_str().unwrap().contains("bad amount"),
            "{resp}"
        );
        // Negative amount (a refund): weights must be non-negative.
        let (status, resp) = post_csv(&api, "/v1/transactions", "a,m,1.5\nb,m,-50.0\n");
        assert_eq!(status, 400, "{resp}");
        assert_eq!(resp["error"]["line"], 2, "{resp}");
        assert!(resp["error"]["message"].as_str().unwrap().contains("negative"), "{resp}");
        // All-or-nothing: nothing was ingested.
        let (_, health) = get(&api, "/v1/health");
        assert_eq!(health["transactions"], 0);
    }

    #[test]
    fn csv_and_json_ingest_build_the_same_graph() {
        let csv_api = quick_api();
        let json_api = quick_api();
        let records = ring_records();
        let csv: String = records
            .iter()
            .map(|r| {
                format!(
                    "{},{},1.0\n",
                    r[0].as_str().unwrap(),
                    r[1].as_str().unwrap()
                )
            })
            .collect();
        let (status, _) = post_csv(&csv_api, "/v1/transactions", &csv);
        assert_eq!(status, 200);
        let (status, _) = post(&json_api, "/v1/transactions", json!({ "records": records }));
        assert_eq!(status, 200);
        let (_, a) = get(&csv_api, "/v1/stats");
        let (_, b) = get(&json_api, "/v1/stats");
        assert_eq!(a["users"], b["users"]);
        assert_eq!(a["merchants"], b["merchants"]);
        assert_eq!(a["edges"], b["edges"]);
    }

    #[test]
    fn csv_ingest_is_worker_invariant() {
        // Same log through 1-worker and 4-worker parsing: identical graph
        // and identical flagged set (ids feed sampling, so this is the
        // service-level determinism gate).
        let csv: String = {
            let mut s = String::new();
            for r in ring_records() {
                s.push_str(&format!(
                    "{},{}\n",
                    r[0].as_str().unwrap(),
                    r[1].as_str().unwrap()
                ));
            }
            s
        };
        let mut flagged_sets = Vec::new();
        for ingest_workers in [1usize, 4] {
            let api = Api::new(ApiConfig {
                monitor: MonitorConfig {
                    detector: EnsemFdetConfig {
                        num_samples: 8,
                        sample_ratio: 0.5,
                        seed: 3,
                        ..Default::default()
                    },
                    scan_interval: 1_000_000,
                    alert_threshold: 6,
                    min_transactions: 0,
                },
                ingest_workers,
                ..Default::default()
            });
            let (status, resp) = post_csv(&api, "/v1/transactions", &csv);
            assert_eq!(status, 200, "{resp}");
            let (_, body) = post(&api, "/v1/scans", json!({}));
            let done = wait_done(&api, body["job_id"].as_u64().unwrap());
            assert_eq!(done["status"], "done", "{done}");
            flagged_sets.push(flagged_of(&done));
        }
        assert_eq!(
            flagged_sets[0], flagged_sets[1],
            "ingest worker count changed detection results"
        );
    }

    #[test]
    fn workers_override_is_echoed_and_result_invariant() {
        let api = quick_api();
        post(&api, "/v1/transactions", json!({ "records": ring_records() }));
        let mut per_workers = Vec::new();
        for workers in [1, 4] {
            let (status, body) =
                post(&api, "/v1/scans", json!({ "workers": workers, "num_samples": 6 }));
            assert_eq!(status, 202, "{body}");
            let done = wait_done(&api, body["job_id"].as_u64().unwrap());
            assert_eq!(done["status"], "done", "{done}");
            assert_eq!(done["result"]["workers"], workers, "{done}");
            per_workers.push(flagged_of(&done));
        }
        assert_eq!(per_workers[0], per_workers[1], "workers changed the flagged set");
        // The latest-result page echoes the worker count too.
        let (_, latest) = get(&api, "/v1/scans/latest");
        assert_eq!(latest["workers"], 4);
    }

    #[test]
    fn scoring_override_runs_hybrid_and_echoes_components() {
        let api = quick_api();
        post(&api, "/v1/transactions", json!({ "records": ring_records() }));
        let (status, body) = post(
            &api,
            "/v1/scans",
            json!({ "scoring": {
                "weights": { "vote": 0.6, "spectral": 0.25, "kcore": 0.15 },
                "normalization": "minmax",
                "hybrid_threshold": 0.65,
                "seed": 7,
            } }),
        );
        assert_eq!(status, 202, "{body}");
        let done = wait_done(&api, body["job_id"].as_u64().unwrap());
        assert_eq!(done["status"], "done", "{done}");
        let scoring = &done["result"]["scoring"];
        assert!((scoring["weights"]["vote"].as_f64().unwrap() - 0.6).abs() < 1e-12);
        assert!((scoring["weights"]["spectral"].as_f64().unwrap() - 0.25).abs() < 1e-12);
        assert_eq!(scoring["normalization"], "minmax");
        assert!((scoring["hybrid_threshold"].as_f64().unwrap() - 0.65).abs() < 1e-12);
        assert_eq!(scoring["component_millis"].as_array().unwrap().len(), 3);
        // The densely-connected bots dominate every component, so the
        // fused score flags them.
        let hybrid: Vec<&str> = scoring["hybrid_flagged"]
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap())
            .collect();
        assert!(!hybrid.is_empty(), "{done}");
        assert!(hybrid.iter().all(|k| k.starts_with("bot-")), "{done}");
        // Every echoed account breakdown is a full [0, 1] score vector.
        let accounts = scoring["account_scores"].as_array().unwrap();
        assert!(!accounts.is_empty());
        for entry in accounts {
            for field in ["vote", "spectral", "kcore", "hybrid"] {
                let s = entry[field].as_f64().unwrap();
                assert!((0.0..=1.0).contains(&s), "{entry}");
            }
        }
        // A scan without scoring has no scoring echo.
        let (_, body) = post(&api, "/v1/scans", json!({}));
        let plain = wait_done(&api, body["job_id"].as_u64().unwrap());
        assert!(plain["result"]["scoring"].is_null(), "{plain}");
        // The hybrid scan fed the per-component scoring telemetry.
        let (_, _) = get(&api, "/v1/health");
        let resp = api.handle(&Request {
            method: "GET".into(),
            path: "/metrics".into(),
            content_type: String::new(),
            body: vec![],
        });
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("ensemfdet_scans_hybrid_total 1"), "{text}");
        assert!(
            text.contains(
                "ensemfdet_scan_scoring_duration_seconds_count{component=\"spectral\"} 1"
            ),
            "{text}"
        );
    }

    #[test]
    fn scoring_override_is_validated() {
        let api = quick_api();
        for bad in [
            json!({ "scoring": "hybrid" }),
            json!({ "scoring": { "weights": { "vote": 0.0, "spectral": 0.0, "kcore": 0.0 } } }),
            json!({ "scoring": { "weights": { "vote": -1.0 } } }),
            json!({ "scoring": { "weights": { "velocity": 0.5 } } }),
            json!({ "scoring": { "weights": { "vote": "heavy" } } }),
            json!({ "scoring": { "normalization": "softmax" } }),
            json!({ "scoring": { "hybrid_threshold": 1.5 } }),
            json!({ "scoring": { "hybrid_threshold": -0.1 } }),
            json!({ "scoring": { "floors": { "vote": 2.0 } } }),
            json!({ "scoring": { "floors": { "depth": 0.1 } } }),
            json!({ "scoring": { "components": 0 } }),
            json!({ "scoring": { "seed": -1 } }),
            json!({ "scoring": { "enabled": "yes" } }),
            json!({ "scoring": { "frobnicate": true } }),
        ] {
            let (status, body) = post(&api, "/v1/scans", bad.clone());
            assert_eq!(status, 400, "scoring override {bad} accepted: {body}");
            assert_eq!(body["error"]["code"], "invalid_config", "{body}");
        }
    }

    /// The CLI's `--scoring` spec and the service's `scoring` object are
    /// two grammars over one knob setter: every knob gives bit-identical
    /// configs through both, and both refuse the same bad values.
    #[test]
    fn cli_spec_and_scoring_object_agree() {
        let object = |body: &Value| scoring_override(ScoringConfig::default(), body);
        let cases = [
            ("hybrid", json!({})),
            ("vote=0.1", json!({ "weights": { "vote": 0.1 } })),
            ("spectral=0.3", json!({ "weights": { "spectral": 0.3 } })),
            ("kcore=0", json!({ "weights": { "kcore": 0 } })),
            ("norm=rank", json!({ "normalization": "rank" })),
            ("threshold=0.7", json!({ "hybrid_threshold": 0.7 })),
            ("vote-floor=0.2", json!({ "floors": { "vote": 0.2 } })),
            ("spectral-floor=1", json!({ "floors": { "spectral": 1 } })),
            ("kcore-floor=0.05", json!({ "floors": { "kcore": 0.05 } })),
            ("components=3", json!({ "components": 3 })),
            ("seed=18446744073709551615", json!({ "seed": u64::MAX })),
            (
                "vote=0.25,spectral=0.5,kcore=0.25,norm=minmax,threshold=0.6",
                json!({ "weights": { "vote": 0.25, "spectral": 0.5, "kcore": 0.25 },
                        "normalization": "minmax", "hybrid_threshold": 0.6 }),
            ),
        ];
        let mut covered = std::collections::BTreeSet::<&str>::new();
        for (spec, body) in &cases {
            let cli: ScoringConfig = spec.parse().unwrap();
            let service = object(body).unwrap();
            assert_eq!(format!("{cli:?}"), format!("{service:?}"), "{spec} vs {body}");
            assert_eq!(cli, service);
            covered.extend(spec.split(',').filter_map(|item| Some(item.split_once('=')?.0)));
        }
        // Every spec key is exercised: each knob but `enabled`, which only
        // the object sets.
        let spec_keys = SCORING_KNOBS.iter().filter_map(|k| k.1).collect();
        assert_eq!(covered, spec_keys);
        assert_eq!(spec_keys.len(), SCORING_KNOBS.len() - 1);

        for (spec, body) in [
            ("vote=-1", json!({ "weights": { "vote": -1.0 } })),
            (
                "vote=0,spectral=0,kcore=0",
                json!({ "weights": { "vote": 0, "spectral": 0, "kcore": 0 } }),
            ),
            ("kcore-floor=1.5", json!({ "floors": { "kcore": 1.5 } })),
            ("threshold=1.01", json!({ "hybrid_threshold": 1.01 })),
            ("components=0", json!({ "components": 0 })),
            ("velocity=1", json!({ "velocity": 1 })),
        ] {
            assert!(spec.parse::<ScoringConfig>().is_err(), "{spec} accepted");
            assert!(object(&body).is_err(), "{body} accepted");
        }
    }

    #[test]
    fn scoring_scans_are_deterministic() {
        let api = quick_api();
        post(&api, "/v1/transactions", json!({ "records": ring_records() }));
        let overrides = json!({ "scoring": { "seed": 42 }, "num_samples": 6 });
        let mut runs = Vec::new();
        for _ in 0..2 {
            let (_, body) = post(&api, "/v1/scans", overrides.clone());
            let done = wait_done(&api, body["job_id"].as_u64().unwrap());
            assert_eq!(done["status"], "done", "{done}");
            runs.push((
                done["result"]["scoring"]["hybrid_flagged"].clone(),
                done["result"]["scoring"]["account_scores"].clone(),
            ));
        }
        assert_eq!(runs[0], runs[1], "same (epoch, seed, weights) must agree exactly");
    }

    #[test]
    fn rescoring_one_epoch_reuses_graph_components() {
        let api = quick_api();
        post(&api, "/v1/transactions", json!({ "records": ring_records() }));
        let scan = |overrides: Value| {
            let (status, body) = post(&api, "/v1/scans", overrides);
            assert_eq!(status, 202, "{body}");
            let done = wait_done(&api, body["job_id"].as_u64().unwrap());
            assert_eq!(done["status"], "done", "{done}");
            done["result"].clone()
        };
        let full = json!({ "mode": "full", "scoring": {} });
        let cold = scan(full.clone());
        let warm = scan(full);
        assert_eq!(cold["epoch"], warm["epoch"]);
        assert_eq!(cold["scoring"]["components_reused"], false, "{cold}");
        assert_eq!(warm["scoring"]["components_reused"], true, "{warm}");
        let millis = &warm["scoring"]["component_millis"];
        assert_eq!(millis[1].as_f64(), Some(0.0));
        assert_eq!(millis[2].as_f64(), Some(0.0));
        for field in ["hybrid_flagged", "account_scores"] {
            assert_eq!(warm["scoring"][field], cold["scoring"][field], "{field}");
        }
        // Another SVD rank recomputes the spectral component.
        let rank = scan(json!({ "mode": "full", "scoring": { "components": 3 } }));
        assert_eq!(rank["scoring"]["components_reused"], false, "{rank}");
        assert_ne!(rank["scoring"]["hybrid_flagged"], json!([]));

        let text = String::from_utf8(
            api.handle(&Request {
                method: "GET".into(),
                path: "/metrics".into(),
                content_type: String::new(),
                body: vec![],
            })
            .body,
        )
        .unwrap();
        assert!(text.contains("ensemfdet_scans_hybrid_total 3"), "{text}");
        let reused = "ensemfdet_scoring_components_reused_total 1";
        assert!(text.contains(reused), "{text}");
        // Spectral ran twice (cold, new rank), the k-core once.
        for (component, n) in [("vote", 3), ("spectral", 2), ("kcore", 1)] {
            let series = format!(
                "ensemfdet_scan_scoring_duration_seconds_count{{component=\"{component}\"}} {n}"
            );
            assert!(text.contains(&series), "{series}\n{text}");
        }
    }

    #[test]
    fn scoring_config_change_falls_back_to_full_scan() {
        let api = quick_api();
        post(&api, "/v1/transactions", json!({ "records": ring_records() }));
        let hybrid = json!({ "vote": 0.6, "spectral": 0.25, "kcore": 0.15 });
        // Prime the incremental cache under one scoring config.
        let (_, body) = post(
            &api,
            "/v1/scans",
            json!({ "mode": "incremental", "scoring": { "weights": hybrid.clone() } }),
        );
        let cold = wait_done(&api, body["job_id"].as_u64().unwrap());
        assert_eq!(cold["result"]["fallback"], "cold_cache", "{cold}");
        assert!(!cold["result"]["scoring"].is_null());
        // Same scoring config: the cache replays every sample, and the
        // scoring echo matches the priming scan's exactly.
        let (_, body) = post(
            &api,
            "/v1/scans",
            json!({ "mode": "incremental", "scoring": { "weights": hybrid.clone() } }),
        );
        let warm = wait_done(&api, body["job_id"].as_u64().unwrap());
        assert_eq!(warm["result"]["mode"], "incremental", "{warm}");
        assert_eq!(warm["result"]["samples_reused"], 20);
        // Identical scoring output (component_millis is wall-clock, so
        // compare the deterministic fields).
        for field in ["weights", "hybrid_flagged", "account_scores"] {
            assert_eq!(
                warm["result"]["scoring"][field], cold["result"]["scoring"][field],
                "cache replay changed scoring {field}"
            );
        }
        // Different scoring weights: the scoring config is part of the
        // incremental cache's key, so reuse is refused — a documented
        // full-scan fallback, not a silent stale-score result.
        let (_, body) = post(
            &api,
            "/v1/scans",
            json!({ "mode": "incremental",
                    "scoring": { "weights": { "vote": 1.0, "spectral": 0.0, "kcore": 0.0 } } }),
        );
        let retuned = wait_done(&api, body["job_id"].as_u64().unwrap());
        assert_eq!(retuned["result"]["mode"], "full", "{retuned}");
        assert_eq!(retuned["result"]["fallback"], "config_changed", "{retuned}");
        assert!((retuned["result"]["scoring"]["weights"]["vote"].as_f64().unwrap() - 1.0).abs() < 1e-12);
        // Dropping scoring entirely is a config change too.
        let (_, body) = post(&api, "/v1/scans", json!({ "mode": "incremental" }));
        let plain = wait_done(&api, body["job_id"].as_u64().unwrap());
        assert_eq!(plain["result"]["fallback"], "config_changed", "{plain}");
        assert!(plain["result"]["scoring"].is_null(), "{plain}");
    }

    #[test]
    fn unknown_route_is_404_unknown_method_405() {
        let api = quick_api();
        let (status, body) = get(&api, "/nope");
        assert_eq!(status, 404);
        assert_eq!(body["error"]["code"], "not_found");
        // The pre-v1 aliases are gone.
        for path in ["/health", "/stats"] {
            let (status, body) = get(&api, path);
            assert_eq!(status, 404, "{path}: {body}");
        }
        for path in ["/scan", "/transactions"] {
            let (status, body) = post(&api, path, json!({ "records": [["a", "x"]] }));
            assert_eq!(status, 404, "{path}: {body}");
        }
        let resp = api.handle(&Request {
            method: "DELETE".into(),
            path: "/v1/health".into(),
            content_type: String::new(),
            body: vec![],
        });
        assert_eq!(resp.status, 405);
        let body: Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(body["error"]["code"], "method_not_allowed");
    }

    #[test]
    fn latest_scan_before_any_scan_is_404() {
        let api = quick_api();
        let (status, body) = get(&api, "/v1/scans/latest");
        assert_eq!(status, 404);
        assert_eq!(body["error"]["code"], "no_completed_scan");
    }

    #[test]
    fn poisoned_locks_recover_instead_of_wedging() {
        let api = quick_api();
        post(&api, "/v1/transactions", json!({ "records": [["a", "x"]] }));
        // Poison the alert-ledger mutex and the interner's lock: panic
        // while holding each.
        let engine = Arc::clone(&api.engine);
        let _ = std::thread::spawn(move || {
            let _runner = lock_recover(&engine.runner);
            panic!("poison the ledger");
        })
        .join();
        assert!(api.engine.runner.is_poisoned());
        let engine = Arc::clone(&api.engine);
        let _ = std::thread::spawn(move || {
            let mut interner = engine.interner.lock();
            interner.user("mid-batch");
            panic!("poison the interner");
        })
        .join();
        // Every path that takes those locks still serves.
        let (status, body) = get(&api, "/v1/health");
        assert_eq!(status, 200, "{body}");
        let (status, body) = post(&api, "/v1/transactions", json!({ "records": [["b", "y"]] }));
        assert_eq!(status, 200, "{body}");
        assert_eq!(body["transactions"], 2);
        let (status, body) = post_csv(&api, "/v1/transactions", "c,z,1.5\n");
        assert_eq!(status, 200, "{body}");
        assert_eq!(body["transactions"], 3);
        let (status, body) = get(&api, "/v1/stats");
        assert_eq!(status, 200, "{body}");
        // The user interned by the panicking holder stays interned.
        assert_eq!(body["users"], 4, "{body}");
        assert_eq!(body["merchants"], 3, "{body}");
        let (status, body) = post(&api, "/v1/scans", Value::Null);
        assert_eq!(status, 202, "{body}");
        let done = wait_done(&api, body["job_id"].as_u64().unwrap());
        assert_eq!(done["status"], "done", "{done}");
    }

    #[test]
    fn concurrent_csv_ingest_interns_each_key_once() {
        let api = quick_api();
        // Overlapping bodies: every thread shares half its users and all
        // of its merchants with the others.
        let body = |t: usize| -> String {
            (0..200)
                .map(|i| format!("u{},m{},1\n", (i + 100 * t) % 500, i % 37))
                .collect()
        };
        let api = Arc::new(api);
        let start = Arc::new(std::sync::Barrier::new(4));
        let posters: Vec<_> = (0..4)
            .map(|t| {
                let (api, start, body) = (Arc::clone(&api), Arc::clone(&start), body(t));
                std::thread::spawn(move || {
                    start.wait();
                    post_csv(&api, "/v1/transactions", &body)
                })
            })
            .collect();
        for poster in posters {
            let (status, resp) = poster.join().unwrap();
            assert_eq!(status, 200, "{resp}");
        }
        let (_, stats) = get(&api, "/v1/stats");
        assert_eq!(stats["users"], 500, "{stats}");
        assert_eq!(stats["merchants"], 37, "{stats}");
        // Ids are dense 0..n and map back to distinct keys.
        let interner = &api.engine.interner;
        let keys: std::collections::HashSet<String> =
            (0..500).map(|u| interner.user_key(ensemfdet_graph::UserId(u))).collect();
        let expected: std::collections::HashSet<String> =
            (0..500).map(|u| format!("u{u}")).collect();
        assert_eq!(keys, expected);
    }

    #[test]
    fn autoscan_fires_on_interval_and_returns_job_id() {
        let api = Api::new(ApiConfig {
            monitor: MonitorConfig {
                detector: EnsemFdetConfig {
                    num_samples: 4,
                    sample_ratio: 0.5,
                    seed: 1,
                    ..Default::default()
                },
                scan_interval: 10,
                alert_threshold: 3,
                min_transactions: 0,
            },
            ..Default::default()
        });
        let records: Vec<Value> =
            (0..12).map(|i| json!([format!("u{i}"), format!("m{}", i % 3)])).collect();
        let (status, body) = post(&api, "/v1/transactions", json!({ "records": records }));
        assert_eq!(status, 200);
        let job = body["scan_job"].as_u64().expect("interval crossed, scan queued");
        let done = wait_done(&api, job);
        assert_eq!(done["status"], "done");
        // The counter reset: a tiny follow-up batch does not re-trigger.
        let (_, body) = post(&api, "/v1/transactions", json!({ "records": [["z", "z"]] }));
        assert!(body["scan_job"].is_null());
    }

    #[test]
    fn route_labels_have_fixed_cardinality() {
        assert_eq!(route_label("/metrics"), "/metrics");
        assert_eq!(route_label("/../../etc/passwd"), "other");
        assert_eq!(route_label("/scan"), "other");
        assert_eq!(route_label("/v1/scans"), "/v1/scans");
        assert_eq!(route_label("/v1/scans/17"), "/v1/scans/{id}");
        assert_eq!(route_label("/v1/scans/latest"), "/v1/scans/latest");
        assert_eq!(route_label("/v1/follow"), "/v1/follow");
        assert_eq!(route_label("/health"), "other");
    }

    /// The route table and the dispatcher agree: every path `handle`
    /// answers (with anything but its routing 404/405) is labelled, and
    /// every label but `other` is answered.
    #[test]
    fn every_answered_route_has_its_own_label() {
        let api = Api::new(ApiConfig::default());
        let paths = [
            "/v1/health", "/v1/stats", "/metrics", "/v1/metrics", "/v1/config", "/v1/follow",
            "/v1/transactions", "/v1/scans", "/v1/scans/latest", "/v1/scans/7", "/health", "/v1",
            "/v1/scans2", "/",
        ];
        let mut labels = std::collections::BTreeSet::new();
        for path in paths {
            let label = route_label(path);
            let answered = ["GET", "POST"].into_iter().any(|method| {
                let resp = api.handle(&Request {
                    method: method.into(),
                    path: path.into(),
                    content_type: String::new(),
                    body: vec![],
                });
                let body: Value = serde_json::from_slice(&resp.body).unwrap_or(Value::Null);
                resp.status != 405 && body["error"]["code"] != "not_found"
            });
            assert_eq!(answered, label != "other", "{path} is labelled {label}");
            labels.insert(label);
        }
        // Nine routes (`/metrics` and `/v1/metrics` are one) plus `other`.
        assert_eq!(labels.len(), 10, "{labels:?}");
    }
}
