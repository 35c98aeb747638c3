//! The application: routing and state for the versioned v1 API,
//! socket-free.
//!
//! The ingest path and the scan path never contend:
//!
//! * `POST /v1/transactions` maps keys through a sharded, internally
//!   synchronized [`ConcurrentTransactionInterner`] (no service-wide
//!   interner mutex) and appends to a sharded [`IngestBuffer`] — it never
//!   waits on a running scan, and concurrent ingest requests interning
//!   disjoint keys never wait on each other.
//! * `POST /v1/scans` pins the freshest epoch-versioned snapshot
//!   (compaction builds the graph outside every ingest lock), enqueues a
//!   job on the bounded [`JobStore`], and returns `202` immediately. One
//!   dedicated executor thread (the `executor` module) drains the queue.
//! * `GET /v1/scans/{id}` / `GET /v1/scans/latest` read published,
//!   epoch-tagged results.

use crate::http::{Request, Response};
use crate::jobs::{EnqueueError, JobLookup, JobState, JobStore, JobView, ScanResultView, ScanSpec};
use ensemfdet::pipeline::{IngestBuffer, ScanRunner, SnapshotStore};
use ensemfdet::{EnsemFdet, EnsemFdetConfig, IncrementalPolicy, MonitorConfig, ScoringConfig};
use ensemfdet_graph::loader::{parse_csv_record, split_line_chunks};
use ensemfdet_graph::{ConcurrentTransactionInterner, GraphStats};
use ensemfdet_telemetry::{ServiceMetrics, PROMETHEUS_CONTENT_TYPE};
use serde_json::{json, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Locks a mutex, recovering from poisoning. Every value the service
/// guards (interner, alert ledger, job bookkeeping) stays structurally
/// valid if a panicking thread unwound through an update, so serving
/// slightly stale data beats wedging every subsequent request with a
/// panic — which is what expecting the lock result did here once.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Service configuration.
#[derive(Clone, Copy, Debug)]
pub struct ApiConfig {
    /// Monitor settings (detector, auto-scan cadence, alert threshold).
    pub monitor: MonitorConfig,
    /// Snapshot compaction cadence in transactions: reads that tolerate
    /// staleness (auto-refresh) rebuild the graph at most this often.
    pub compaction_interval: usize,
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
            compaction_interval: 1_000,
            scan_queue_capacity: 8,
            result_ring: 16,
            follow: false,
            incremental_policy: IncrementalPolicy::default(),
            workers: 0,
            ingest_workers: 0,
        }
    }
}

/// The label a request is counted under in
/// `ensemfdet_http_requests_total{route=…}`. The label set is fixed —
/// `/v1/scans/<anything>` collapses to `/v1/scans/{id}` — so hostile paths
/// cannot inflate label cardinality.
pub fn route_label(_method: &str, path: &str) -> &'static str {
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
/// single big lock: the buffer is sharded, the snapshot store swaps
/// `Arc`s, the interner shards its own locks internally, and the one
/// remaining mutex (the alert ledger) is held only by the executor.
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
            snapshots: SnapshotStore::new(config.compaction_interval),
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
        match (request.method.as_str(), path) {
            ("GET", "/v1/health") => self.health(),
            ("GET", "/v1/stats") => self.stats(),
            ("GET", "/metrics" | "/v1/metrics") => self.metrics_page(),
            ("GET", "/v1/config") => self.config_page(),
            ("GET", "/v1/follow") => self.follow_status(),
            ("POST", "/v1/transactions") => self.transactions(request),
            ("POST", "/v1/scans") => self.submit_scan(&request.body),
            ("GET", "/v1/scans/latest") => self.latest_scan(),
            ("GET", p) if p.starts_with("/v1/scans/") => {
                self.scan_status(&p["/v1/scans/".len()..])
            }
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
        Response::json(
            200,
            &json!({
                "detector": c.monitor.detector,
                "alert_threshold": c.monitor.alert_threshold,
                "scan_interval": c.monitor.scan_interval,
                "min_transactions": c.monitor.min_transactions,
                "compaction_interval": c.compaction_interval,
                "scan_queue_capacity": c.scan_queue_capacity,
                "result_ring": c.result_ring,
                "follow": c.follow,
                "max_touched_fraction": c.incremental_policy.max_touched_fraction,
                "workers": c.workers,
                "ingest_workers": c.ingest_workers,
                "scan_overrides": [
                    "num_samples", "sample_ratio", "threshold", "mode", "workers", "scoring",
                ],
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
        let last_scan = e.jobs.latest().map(|r| {
            json!({
                "job_id": r.job_id,
                "epoch": r.epoch,
                "mode": r.reuse.mode(),
                "fallback": r.reuse.fallback.map(|f| f.name()),
                "samples_reused": r.reuse.samples_reused,
                "samples_repeeled": r.reuse.samples_repeeled,
                "dirty_fraction": r.reuse.dirty_fraction(),
                "delta_touched_nodes": r.reuse.delta_touched_nodes,
                "scan_millis": r.scan_millis,
            })
        });
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
        e.metrics.record_snapshot(snapshot.epoch, e.snapshots.lag(&e.buffer));
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
    ///   are identical for every worker count. Amounts are validated but
    ///   the monitoring pipeline deduplicates edges binarily — for
    ///   amount-summed weighted detection, use the `ensemfdet ingest`
    ///   CLI's direct-detect path.
    /// * anything else (including no `Content-Type` header) — the
    ///   original `{"records": [[user, merchant], …]}` JSON-array shape.
    ///
    /// All paths validate the whole batch before touching any state, so
    /// a bad batch is rejected whole and ingests nothing.
    fn transactions(&self, request: &Request) -> Response {
        let started = std::time::Instant::now();
        if request.content_type == "text/csv" {
            return self.transactions_csv(&request.body, started);
        }
        let ndjson = request.content_type == "application/x-ndjson";
        let format = if ndjson { "ndjson" } else { "json" };
        let keys = if ndjson {
            parse_ndjson_records(&request.body)
        } else {
            parse_json_records(&request.body)
        };
        self.engine.metrics.record_ingest_parse(format, started.elapsed());
        let keys = match keys {
            Ok(keys) => keys,
            Err(resp) => return resp,
        };

        let e = &self.engine;
        let ids: Vec<_> = keys
            .iter()
            .map(|(u, v)| (e.interner.user(u), e.interner.merchant(v)))
            .collect();
        self.finish_ingest(ids, format, started)
    }

    /// The `text/csv` arm of bulk ingest: chunk-parallel validation, then
    /// sequential file-order interning.
    fn transactions_csv(&self, body: &[u8], started: std::time::Instant) -> Response {
        let e = &self.engine;
        let workers = match e.config.ingest_workers {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let parse_started = std::time::Instant::now();
        let pairs = parse_csv_pairs(body, workers);
        e.metrics.record_ingest_parse("csv", parse_started.elapsed());
        let pairs = match pairs {
            Ok(pairs) => pairs,
            Err(resp) => return resp,
        };
        // Interning stays strictly in file order: parallel validation must
        // not perturb id assignment (ids feed sampling downstream).
        let ids: Vec<_> = pairs
            .iter()
            .map(|&(u, v)| (e.interner.user(u), e.interner.merchant(v)))
            .collect();
        self.finish_ingest(ids, "csv", started)
    }

    /// Shared tail of every ingest format: append, count, publish the
    /// load-duration and interner gauges, maybe autoscan.
    fn finish_ingest(
        &self,
        ids: Vec<(ensemfdet_graph::UserId, ensemfdet_graph::MerchantId)>,
        format: &str,
        started: std::time::Instant,
    ) -> Response {
        let e = &self.engine;
        let ingested = ids.len();
        e.buffer.append_batch(ids);
        e.metrics.transactions_ingested.add(ingested as u64);
        e.metrics.record_ingest_load(format, started.elapsed());
        e.metrics.record_interner(
            e.interner.num_users(),
            e.interner.num_merchants(),
            e.interner.arena_bytes(),
        );
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
        self.enqueue_scan(
            e.config.monitor.detector,
            e.config.monitor.alert_threshold,
            e.config.follow,
            e.config.workers,
        )
        .ok()
        .map(|(id, _epoch)| id)
    }

    /// Effective detector config + threshold + scan mode + worker count
    /// for one scan request: service defaults overlaid with any
    /// per-request overrides from the body (`{}`/`null`/empty body mean
    /// "defaults"). The default mode follows the service: incremental
    /// when follow mode is on, full otherwise; an explicit `"mode"`
    /// override wins either way.
    fn scan_overrides(
        &self,
        body: &[u8],
    ) -> Result<(EnsemFdetConfig, u32, bool, usize), Response> {
        let m = &self.engine.config.monitor;
        let mut config = m.detector;
        let mut threshold = m.alert_threshold;
        let mut incremental = self.engine.config.follow;
        let mut workers = self.engine.config.workers;
        if body.iter().all(u8::is_ascii_whitespace) {
            return Ok((config, threshold, incremental, workers));
        }
        let parsed: Value = serde_json::from_slice(body)
            .map_err(|e| Response::error(400, "bad_request", format!("invalid JSON: {e}")))?;
        if parsed.is_null() {
            return Ok((config, threshold, incremental, workers));
        }
        let obj = parsed.as_object().ok_or_else(|| {
            Response::error(400, "invalid_config", "expected a JSON object of overrides")
        })?;
        for (key, value) in obj.iter() {
            match key.as_str() {
                "num_samples" => {
                    let n = value.as_u64().filter(|&n| (1..=10_000).contains(&n)).ok_or_else(
                        || {
                            Response::error(
                                400,
                                "invalid_config",
                                "num_samples must be an integer in [1, 10000]",
                            )
                        },
                    )?;
                    config.num_samples = n as usize;
                }
                "sample_ratio" => {
                    let r = value
                        .as_f64()
                        .filter(|r| *r > 0.0 && *r <= 1.0)
                        .ok_or_else(|| {
                            Response::error(
                                400,
                                "invalid_config",
                                "sample_ratio must be a number in (0, 1]",
                            )
                        })?;
                    config.sample_ratio = r;
                }
                "threshold" => {
                    let t = value
                        .as_u64()
                        .filter(|&t| t >= 1 && t <= u64::from(u32::MAX))
                        .ok_or_else(|| {
                            Response::error(
                                400,
                                "invalid_config",
                                "threshold must be a positive integer",
                            )
                        })?;
                    threshold = t as u32;
                }
                "mode" => {
                    incremental = match value.as_str() {
                        Some("full") => false,
                        Some("incremental") => true,
                        _ => {
                            return Err(Response::error(
                                400,
                                "invalid_config",
                                "mode must be \"full\" or \"incremental\"",
                            ))
                        }
                    };
                }
                "scoring" => {
                    config.scoring = scoring_override(config.scoring, value)?;
                }
                "workers" => {
                    let w = value
                        .as_u64()
                        .filter(|&w| w <= 256)
                        .ok_or_else(|| {
                            Response::error(
                                400,
                                "invalid_config",
                                "workers must be an integer in [0, 256] (0 = auto)",
                            )
                        })?;
                    workers = w as usize;
                }
                other => {
                    return Err(Response::error(
                        400,
                        "invalid_config",
                        format!("unknown override {other:?} (expected num_samples, sample_ratio, threshold, mode, workers, scoring)"),
                    ));
                }
            }
        }
        Ok((config, threshold, incremental, workers))
    }

    /// Pins the freshest snapshot and enqueues a scan job on it.
    fn enqueue_scan(
        &self,
        config: EnsemFdetConfig,
        threshold: u32,
        incremental: bool,
        workers: usize,
    ) -> Result<(u64, u64), Response> {
        let e = &self.engine;
        let snapshot = e.snapshots.refresh(&e.buffer, true);
        let epoch = snapshot.epoch;
        e.metrics.record_snapshot(epoch, e.snapshots.lag(&e.buffer));
        e.since_scan.store(0, Ordering::Relaxed);
        match e.jobs.enqueue(ScanSpec {
            snapshot,
            config,
            threshold,
            incremental,
            workers,
        }) {
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
        let (config, threshold, incremental, workers) = match self.scan_overrides(body) {
            Ok(x) => x,
            Err(resp) => return resp,
        };
        match self.enqueue_scan(config, threshold, incremental, workers) {
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
/// scoring configuration. Sending a scoring object implies
/// `enabled: true` unless the object itself carries
/// `"enabled": false`; the merged configuration is validated as a whole
/// (weights finite and not all zero, floors and threshold in `[0, 1]`,
/// at least one spectral component), so a request can never enqueue a
/// scan the scorer would reject.
fn scoring_override(base: ScoringConfig, value: &Value) -> Result<ScoringConfig, Response> {
    let bad = |msg: String| Response::error(400, "invalid_config", msg);
    let obj = value
        .as_object()
        .ok_or_else(|| bad("scoring must be a JSON object of scoring settings".into()))?;
    let mut scoring = base;
    scoring.enabled = true;
    for (key, v) in obj.iter() {
        match key.as_str() {
            "enabled" => {
                scoring.enabled = v
                    .as_bool()
                    .ok_or_else(|| bad("scoring.enabled must be a boolean".into()))?;
            }
            "weights" => {
                let weights = v
                    .as_object()
                    .ok_or_else(|| bad("scoring.weights must be an object".into()))?;
                for (wk, wv) in weights.iter() {
                    let w = wv.as_f64().ok_or_else(|| {
                        bad(format!("scoring.weights.{wk} must be a number"))
                    })?;
                    match wk.as_str() {
                        "vote" => scoring.vote_weight = w,
                        "spectral" => scoring.spectral_weight = w,
                        "kcore" => scoring.kcore_weight = w,
                        other => {
                            return Err(bad(format!(
                                "unknown scoring weight {other:?} (expected vote, spectral, kcore)"
                            )))
                        }
                    }
                }
            }
            "floors" => {
                let floors = v
                    .as_object()
                    .ok_or_else(|| bad("scoring.floors must be an object".into()))?;
                for (fk, fv) in floors.iter() {
                    let f = fv
                        .as_f64()
                        .ok_or_else(|| bad(format!("scoring.floors.{fk} must be a number")))?;
                    match fk.as_str() {
                        "vote" => scoring.vote_floor = f,
                        "spectral" => scoring.spectral_floor = f,
                        "kcore" => scoring.kcore_floor = f,
                        other => {
                            return Err(bad(format!(
                                "unknown scoring floor {other:?} (expected vote, spectral, kcore)"
                            )))
                        }
                    }
                }
            }
            "normalization" => {
                scoring.normalization = v
                    .as_str()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| {
                        bad("scoring.normalization must be \"minmax\" or \"rank\"".into())
                    })?;
            }
            "hybrid_threshold" => {
                scoring.hybrid_threshold = v
                    .as_f64()
                    .ok_or_else(|| bad("scoring.hybrid_threshold must be a number".into()))?;
            }
            "components" => {
                let n = v
                    .as_u64()
                    .filter(|&n| (1..=10_000).contains(&n))
                    .ok_or_else(|| {
                        bad("scoring.components must be an integer in [1, 10000]".into())
                    })?;
                scoring.spectral_components = n as usize;
            }
            "seed" => {
                scoring.spectral_seed = v
                    .as_u64()
                    .ok_or_else(|| bad("scoring.seed must be a non-negative integer".into()))?;
            }
            other => {
                return Err(bad(format!(
                    "unknown scoring key {other:?} (expected enabled, weights, floors, \
                     normalization, hybrid_threshold, components, seed)"
                )));
            }
        }
    }
    scoring
        .validate()
        .map_err(|e| bad(format!("invalid scoring: {e}")))?;
    Ok(scoring)
}

/// The wire shape of one job record.
fn job_json(view: &JobView) -> Value {
    let mut body = serde_json::Map::new();
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
    let body = json!({
        "job_id": r.job_id,
        "epoch": r.epoch,
        "transactions": r.transactions,
        "flagged": r.flagged.clone(),
        "new_alerts": r.new_alerts.clone(),
        "scan_millis": r.scan_millis,
        "num_samples": r.config.num_samples,
        "sample_ratio": r.config.sample_ratio,
        "workers": r.workers,
        "threshold": r.threshold,
        "mode": r.reuse.mode(),
        "fallback": r.reuse.fallback.map(|f| f.name()),
        "samples_reused": r.reuse.samples_reused,
        "samples_repeeled": r.reuse.samples_repeeled,
        "dirty_fraction": r.reuse.dirty_fraction(),
        "delta_touched_nodes": r.reuse.delta_touched_nodes,
    });
    let Value::Object(mut body) = body else {
        unreachable!("json! object literal");
    };
    if let Some(s) = &r.scoring {
        let scoring = json!({
            "weights": {
                "vote": s.config.vote_weight,
                "spectral": s.config.spectral_weight,
                "kcore": s.config.kcore_weight,
            },
            "normalization": s.config.normalization.name(),
            "hybrid_threshold": s.config.hybrid_threshold,
            "hybrid_flagged": s.hybrid_flagged.clone(),
            "component_millis": s.component_millis.to_vec(),
            "account_scores": s.account_scores.iter().map(|(key, [vote, spectral, kcore, hybrid])| {
                json!({
                    "account": key,
                    "vote": vote,
                    "spectral": spectral,
                    "kcore": kcore,
                    "hybrid": hybrid,
                })
            }).collect::<Vec<Value>>(),
        });
        body.insert("scoring".into(), scoring);
    }
    Value::Object(body)
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
        let n = i + 1;
        match serde_json::from_slice::<(String, String)>(line) {
            Ok(pair) => keys.push(pair),
            Err(e) => {
                return Err(Response::json(
                    400,
                    &json!({
                        "error": {
                            "code": "invalid_record",
                            "message": format!(
                                "line {n}: expected [\"user\", \"merchant\"]: {e}"
                            ),
                            "line": n,
                        }
                    }),
                ));
            }
        }
    }
    Ok(keys)
}

/// One chunk's validation output for [`parse_csv_pairs`].
struct CsvChunk<'a> {
    pairs: Vec<(&'a str, &'a str)>,
    /// Lines scanned (exact when `error` is `None`).
    lines: usize,
    /// First malformed line: (line offset within the chunk, message).
    error: Option<(usize, String)>,
}

/// Validates one line-aligned chunk of a `text/csv` ingest body. Amounts
/// are validated (the format authority is the graph crate's
/// `parse_csv_record`) but discarded — the monitoring pipeline
/// deduplicates edges binarily.
fn scan_csv_chunk(chunk: &[u8]) -> CsvChunk<'_> {
    let mut pairs = Vec::new();
    let mut lines = 0usize;
    let mut error = None;
    for raw in chunk.split(|&b| b == b'\n') {
        lines += 1;
        let text = match std::str::from_utf8(raw) {
            Ok(t) => t,
            Err(_) => {
                error = Some((lines, "line is not valid UTF-8".to_string()));
                break;
            }
        };
        match parse_csv_record(text, ',') {
            Ok(None) => {}
            Ok(Some((user, merchant, _amount))) => pairs.push((user, merchant)),
            Err(message) => {
                error = Some((lines, message));
                break;
            }
        }
    }
    // The trailing empty piece after a `\n`-terminated chunk is not a line.
    if error.is_none() && chunk.last() == Some(&b'\n') {
        lines -= 1;
    }
    CsvChunk {
        pairs,
        lines,
        error,
    }
}

/// Parses a `text/csv` ingest body: one `user,merchant[,amount]` record
/// per line, `#` comments and blank lines skipped. Chunks are validated
/// in parallel (`workers` line-aligned chunks under `std::thread::scope`)
/// but the returned pairs are in exact file order, so the caller's
/// sequential interning assigns the same ids for every worker count.
///
/// A bad line fails the whole batch with `400 invalid_record` carrying
/// the 1-based `"line"` number in the error object — the same contract
/// as the NDJSON path.
///
/// Public because the pinned benchmark's per-layer replay
/// (`crates/bench/src/bin/benchmark/replay.rs`) times this parser as its
/// `ingest` span, without socket noise.
pub fn parse_csv_pairs(body: &[u8], workers: usize) -> Result<Vec<(&str, &str)>, Response> {
    let chunks = split_line_chunks(body, workers.max(1));
    let scanned: Vec<CsvChunk<'_>> = if chunks.len() <= 1 {
        chunks.into_iter().map(scan_csv_chunk).collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| scope.spawn(move || scan_csv_chunk(chunk)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("csv parse worker panicked"))
                .collect()
        })
    };
    // Chunks before the first erring one completed cleanly, so their line
    // counts prefix-sum to the global 1-based line number.
    let mut line_base = 0usize;
    for chunk in &scanned {
        if let Some((local_line, message)) = &chunk.error {
            let n = line_base + local_line;
            return Err(Response::json(
                400,
                &json!({
                    "error": {
                        "code": "invalid_record",
                        "message": format!("line {n}: {message}"),
                        "line": n,
                    }
                }),
            ));
        }
        line_base += chunk.lines;
    }
    Ok(scanned.into_iter().flat_map(|c| c.pairs).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
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
        Api::new(ApiConfig {
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
        })
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
        // The detector config (scoring included) is serialized verbatim.
        assert_eq!(body["detector"]["scoring"]["enabled"], false);
        assert_eq!(body["workers"], 0, "default workers is auto (0)");
        assert_eq!(body["ingest_workers"], 0, "default ingest workers is auto (0)");
        assert_eq!(body["follow"], false);
        assert!((body["max_touched_fraction"].as_f64().unwrap() - 0.1).abs() < 1e-12);
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
        post(
            &api,
            "/v1/transactions",
            json!({ "records": [["a", "x"], ["b", "x"]] }),
        );
        let (_, body) = post(&api, "/v1/scans", Value::Null);
        wait_done(&api, body["job_id"].as_u64().unwrap());
        let resp = api.handle(&Request {
            method: "GET".into(),
            path: "/metrics".into(),
            content_type: String::new(),
            body: vec![],
        });
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, PROMETHEUS_CONTENT_TYPE);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("ensemfdet_transactions_ingested_total 2"), "{text}");
        assert!(text.contains("ensemfdet_scans_total 1"), "{text}");
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
        // Poison the alert-ledger mutex: panic while holding it. (The
        // interner is no longer a service-level mutex — it recovers from
        // poisoned shard locks internally.)
        let engine = Arc::clone(&api.engine);
        let _ = std::thread::spawn(move || {
            let _runner = lock_recover(&engine.runner);
            panic!("poison the ledger");
        })
        .join();
        assert!(api.engine.runner.is_poisoned());
        // Every path that takes that lock still serves.
        let (status, body) = get(&api, "/v1/health");
        assert_eq!(status, 200, "{body}");
        let (status, body) = post(&api, "/v1/transactions", json!({ "records": [["b", "y"]] }));
        assert_eq!(status, 200, "{body}");
        assert_eq!(body["transactions"], 2);
        let (status, body) = post(&api, "/v1/scans", Value::Null);
        assert_eq!(status, 202, "{body}");
        let done = wait_done(&api, body["job_id"].as_u64().unwrap());
        assert_eq!(done["status"], "done", "{done}");
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
        assert_eq!(route_label("GET", "/metrics"), "/metrics");
        assert_eq!(route_label("GET", "/../../etc/passwd"), "other");
        assert_eq!(route_label("POST", "/scan"), "other");
        assert_eq!(route_label("POST", "/v1/scans"), "/v1/scans");
        assert_eq!(route_label("GET", "/v1/scans/17"), "/v1/scans/{id}");
        assert_eq!(route_label("GET", "/v1/scans/latest"), "/v1/scans/latest");
        assert_eq!(route_label("GET", "/v1/follow"), "/v1/follow");
        assert_eq!(route_label("GET", "/health"), "other");
    }
}
