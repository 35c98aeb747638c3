//! The four workloads: the inputs each generates from its seed, the
//! service configuration it runs against, and the untraced run that
//! drives the service over HTTP and checks its answers.

use crate::client::{chunk_lines, request, Reply};
use crate::stats::{median, Summary};
use crate::sut::Sut;
use ensemfdet::{EnsemFdetConfig, IncrementalPolicy, MonitorConfig, SamplingMethodConfig};
use ensemfdet_datagen::presets::{jd_preset, JdDataset};
use ensemfdet_datagen::translog::{merchant_key, user_key};
use ensemfdet_datagen::{
    generate, ramp_timeline, transaction_log_string, Dataset, TransactionLogConfig,
};
use ensemfdet_service::http::MAX_BODY;
use ensemfdet_service::ApiConfig;
use serde_json::Value;
use std::ops::Range;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Ensemble size `N` of every workload.
pub const NUM_SAMPLES: usize = 20;
/// Vote threshold `T` of the RES workloads.
const RES_THRESHOLD: u32 = 5;
/// Sample-pool and CSV-parse threads: the box has two cores.
pub const WORKERS: usize = 2;
/// Sample ratio `S` of the RES workloads.
const RES_RATIO: f64 = 0.1;
/// Sample ratio of the follow workload's one-side merchant sampling: a
/// sampled ring merchant brings its ring users along, while most samples
/// miss the few merchants a batch touches and replay from the cache.
const FOLLOW_RATIO: f64 = 0.05;
/// Vote threshold of the follow workload: one-side samples see each ring
/// through a few of its merchants, so votes are scarcer than under RES.
const FOLLOW_THRESHOLD: u32 = 2;
/// Ring batches `follow_ramp` cuts the in-ring edges into.
const RAMP_BATCHES: usize = 240;
/// Paced batches per second in `follow_ramp`'s open loop: each batch's
/// compaction and incremental scan keep the server about 40% busy.
const FOLLOW_RATE: f64 = 2.0;
/// Poll cadence for closed-loop scans.
const SCAN_POLL: Duration = Duration::from_millis(10);
/// Poll cadence for follow-mode freshness: it resolves freshness of about
/// 200 ms to a few percent, while 1 ms polls (a connection each) took
/// enough server CPU to slow the scans being waited for.
const FOLLOW_POLL: Duration = Duration::from_millis(5);
/// Give up on a scan job after this long.
const JOB_TIMEOUT: Duration = Duration::from_secs(150);
/// Times each run sets the service up; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// The body of a scan request for hybrid scoring with default knobs.
const HYBRID_SCAN: &[u8] = br#"{"scoring":{}}"#;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Table I in full through the live service, one cold pass.
    Table1E2e,
    /// Repeated full scans of a preloaded graph.
    ScanRepeat,
    /// Repeated hybrid-scored scans of a preloaded graph.
    HybridScan,
    /// Paced ingest in follow mode, every batch firing an auto-scan.
    FollowRamp,
}

impl Kind {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Kind; 4] = [
        Kind::Table1E2e,
        Kind::ScanRepeat,
        Kind::HybridScan,
        Kind::FollowRamp,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Table1E2e => "table1_e2e",
            Kind::ScanRepeat => "scan_repeat",
            Kind::HybridScan => "hybrid_scan",
            Kind::FollowRamp => "follow_ramp",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Which Table I preset at which scale divisor. `scan_repeat` is at
    /// jd3/8, not jd3/4: its three set-ups each preload the graph over
    /// HTTP, and at jd3/4 they alone took 22 s of a run, more than the
    /// time budget for a full set of runs of every workload leaves it.
    fn dataset(self, smoke: bool) -> (JdDataset, u32) {
        if smoke {
            return (JdDataset::Jd1, 400);
        }
        match self {
            Kind::Table1E2e => (JdDataset::Jd3, 1),
            Kind::FollowRamp => (JdDataset::Jd3, 4),
            Kind::ScanRepeat => (JdDataset::Jd3, 8),
            Kind::HybridScan => (JdDataset::Jd3, 16),
        }
    }

    /// The detector configuration every scan of this workload runs with
    /// (the hybrid workload adds scoring per request).
    pub fn detector(self) -> EnsemFdetConfig {
        let mut cfg = EnsemFdetConfig {
            num_samples: NUM_SAMPLES,
            sample_ratio: RES_RATIO,
            ..Default::default()
        };
        if self == Kind::FollowRamp {
            cfg.method = SamplingMethodConfig::OneSideMerchant;
            cfg.sample_ratio = FOLLOW_RATIO;
        }
        cfg
    }

    /// The vote threshold `T` of every scan of this workload.
    pub fn threshold(self) -> u32 {
        match self {
            Kind::FollowRamp => FOLLOW_THRESHOLD,
            _ => RES_THRESHOLD,
        }
    }

    /// The service configuration; `serve` carries the knobs that depend
    /// on the generated input.
    pub fn api_config(self, serve: ServeKnobs) -> ApiConfig {
        ApiConfig {
            monitor: MonitorConfig {
                detector: self.detector(),
                scan_interval: serve.scan_interval,
                alert_threshold: self.threshold(),
                min_transactions: serve.min_transactions,
            },
            follow: self == Kind::FollowRamp,
            incremental_policy: IncrementalPolicy::default(),
            workers: WORKERS,
            ingest_workers: WORKERS,
            ..Default::default()
        }
    }

    /// Body of one measured scan request.
    pub fn scan_body(self) -> &'static [u8] {
        match self {
            Kind::HybridScan => HYBRID_SCAN,
            _ => b"{}",
        }
    }

    /// Scans the traced replay repeats in the measured phase.
    pub fn replay_scans(self, smoke: bool) -> usize {
        match (self, smoke) {
            (Kind::ScanRepeat, false) => 5,
            (Kind::HybridScan, false) => 3,
            (Kind::ScanRepeat | Kind::HybridScan, true) => 2,
            _ => 1,
        }
    }
}

/// Service knobs that depend on the generated input, passed to the
/// server process on its command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeKnobs {
    /// Auto-scan cadence in records.
    pub scan_interval: usize,
    /// Records ingested before any auto-scan may fire.
    pub min_transactions: usize,
}

impl ServeKnobs {
    /// Auto-scan off.
    pub const OFF: ServeKnobs = ServeKnobs {
        scan_interval: usize::MAX,
        min_transactions: usize::MAX,
    };
}

/// What the generator knows about the right answer.
#[derive(Clone, Debug)]
pub struct Truth {
    /// Planted fraud users, ascending.
    pub fraud: Vec<u32>,
    /// Users with at least one purchase.
    pub users: usize,
    /// Merchants with at least one purchase.
    pub merchants: usize,
    /// Distinct `(user, merchant)` pairs.
    pub edges: usize,
    /// Records across every body.
    pub records: usize,
}

impl Truth {
    fn of(ds: &Dataset, records: usize) -> Truth {
        let active = |d: Vec<usize>| d.into_iter().filter(|&d| d > 0).count();
        let mut fraud = ds.true_fraud_users.clone();
        fraud.sort_unstable();
        Truth {
            fraud,
            users: active(ds.graph.user_degrees()),
            merchants: active(ds.graph.merchant_degrees()),
            edges: ds.graph.num_edges(),
            records,
        }
    }

    /// Share of `flagged` keys that are planted fraud users.
    pub fn precision(&self, flagged: &[String]) -> f64 {
        let hits = flagged
            .iter()
            .filter_map(|k| k.strip_prefix("pin-")?.parse::<u32>().ok())
            .filter(|u| self.fraud.binary_search(u).is_ok())
            .count();
        hits as f64 / flagged.len().max(1) as f64
    }
}

/// One workload's generated input: every CSV body in one buffer.
pub struct Inputs {
    /// The CSV bytes of every body, set-up bodies first.
    pub data: Vec<u8>,
    /// Bodies posted while setting up.
    pub preload: Vec<Range<usize>>,
    /// Bodies posted in the measured phase.
    pub phase: Vec<Range<usize>>,
    /// Ground truth for the checks.
    pub truth: Truth,
    /// Service knobs that depend on this input.
    pub serve: ServeKnobs,
}

impl Inputs {
    /// Generates the input of `kind` from `seed`.
    pub fn generate(kind: Kind, seed: u64, smoke: bool) -> Inputs {
        let (preset, scale) = kind.dataset(smoke);
        let config = jd_preset(preset, scale, seed);
        if kind == Kind::FollowRamp {
            return Self::ramp(&config, smoke);
        }
        let ds = generate(&config);
        let (log, summary) = transaction_log_string(
            &ds,
            &TransactionLogConfig {
                seed,
                ..Default::default()
            },
        );
        let truth = Truth::of(&ds, summary.records);
        drop(ds);
        let data = log.into_bytes();
        let bodies = ranges(&data, 0);
        let (preload, phase) = match kind {
            Kind::Table1E2e => (Vec::new(), bodies),
            _ => (bodies, Vec::new()),
        };
        Inputs {
            data,
            preload,
            phase,
            truth,
            serve: ServeKnobs::OFF,
        }
    }

    /// `follow_ramp`: the ramp's base batch as set-up bodies, then the
    /// in-ring edges, merchant by merchant (a ring lights up one store
    /// after another), cut into [`RAMP_BATCHES`] equal paced batches.
    fn ramp(config: &ensemfdet_datagen::GeneratorConfig, smoke: bool) -> Inputs {
        let tl = ramp_timeline(config, 1);
        let mut ring: Vec<(u32, u32)> = tl.epochs.concat();
        ring.sort_unstable_by_key(|&(u, v)| (v, u));
        let truth = Truth::of(&tl.dataset, tl.base.len() + ring.len());
        let mut data = Vec::new();
        csv_pairs(&mut data, &tl.base);
        let preload = ranges(&data, 0);
        let batches = if smoke {
            RAMP_BATCHES / 10
        } else {
            RAMP_BATCHES
        };
        let per = ring.len() / batches;
        assert!(per > 0, "ring of {} edges is too small to pace", ring.len());
        let extra = ring.len() % batches;
        let mut phase = Vec::with_capacity(batches);
        let mut offset = 0;
        for b in 0..batches {
            let take = per + usize::from(b < extra);
            let start = data.len();
            csv_pairs(&mut data, &ring[offset..offset + take]);
            phase.push(start..data.len());
            offset += take;
        }
        Inputs {
            data,
            preload,
            phase,
            truth,
            serve: ServeKnobs {
                scan_interval: per,
                // Above the base, so set-up ingest never fires a scan.
                min_transactions: tl.base.len() + 1,
            },
        }
    }

    /// Bytes and FNV-1a of every body, in posting order.
    pub fn fingerprint(&self) -> (usize, u64) {
        (self.data.len(), fnv1a(&self.data))
    }

    /// The body at `r`.
    pub fn body(&self, r: &Range<usize>) -> &[u8] {
        &self.data[r.clone()]
    }
}

fn csv_pairs(out: &mut Vec<u8>, pairs: &[(u32, u32)]) {
    for &(u, v) in pairs {
        out.extend_from_slice(user_key(u).as_bytes());
        out.push(b',');
        out.extend_from_slice(merchant_key(v).as_bytes());
        out.push(b'\n');
    }
}

/// Line-aligned bodies of at most `MAX_BODY` bytes covering `data[from..]`.
fn ranges(data: &[u8], from: usize) -> Vec<Range<usize>> {
    let base = data.as_ptr() as usize;
    chunk_lines(&data[from..], MAX_BODY)
        .expect("generated records are short lines")
        .into_iter()
        .map(|c| {
            let start = c.as_ptr() as usize - base;
            start..start + c.len()
        })
        .collect()
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a of sorted keys joined by newlines.
pub fn keys_fnv(keys: &[String]) -> u64 {
    let mut sorted = keys.to_vec();
    sorted.sort_unstable();
    fnv1a(sorted.join("\n").as_bytes())
}

/// Requests attempted and failed, with what went wrong.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted (requests and output checks).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// A line per failure.
    pub errors: Vec<String>,
}

impl Ops {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
        ok
    }

    /// Folds another thread's tally into this one.
    pub fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }
}

/// Client-side HTTP totals over the measured phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct HttpTotals {
    /// Summed connect-to-last-byte time.
    pub roundtrip_s: f64,
    /// Response bytes read, headers included.
    pub response_bytes: u64,
}

impl HttpTotals {
    fn add(&mut self, other: HttpTotals) {
        self.roundtrip_s += other.roundtrip_s;
        self.response_bytes += other.response_bytes;
    }
}

/// A client that counts what it does.
struct Client {
    addr: std::net::SocketAddr,
    ops: Ops,
    http: HttpTotals,
}

impl Client {
    fn new(addr: std::net::SocketAddr) -> Client {
        Client {
            addr,
            ops: Ops::default(),
            http: HttpTotals::default(),
        }
    }

    /// One request; anything but `expect` counts as a failed operation.
    fn call(
        &mut self,
        method: &str,
        path: &str,
        ct: Option<&str>,
        body: &[u8],
        expect: u16,
    ) -> Option<Reply> {
        self.ops.attempted += 1;
        match request(self.addr, method, path, ct, body) {
            Ok(reply) => {
                self.http.roundtrip_s += reply.roundtrip.as_secs_f64();
                self.http.response_bytes += reply.bytes as u64;
                if reply.status == expect {
                    return Some(reply);
                }
                self.ops.failed += 1;
                self.ops.errors.push(format!(
                    "{method} {path}: status {} (expected {expect}): {}",
                    reply.status,
                    String::from_utf8_lossy(&reply.body)
                        .chars()
                        .take(200)
                        .collect::<String>()
                ));
                None
            }
            Err(e) => {
                self.ops.failed += 1;
                self.ops.errors.push(format!("{method} {path}: {e}"));
                None
            }
        }
    }

    /// Posts one CSV body; returns the response JSON after checking the
    /// ingested count.
    fn ingest(&mut self, body: &[u8]) -> Option<Value> {
        let reply = self.call("POST", "/v1/transactions", Some("text/csv"), body, 200)?;
        let json = reply.json();
        let lines = body.iter().filter(|&&b| b == b'\n').count();
        let ingested = json["ingested"].as_u64().unwrap_or(u64::MAX) as usize;
        self.ops
            .check(ingested == lines, || {
                format!("ingested {ingested} of {lines} records")
            })
            .then_some(json)
    }

    /// Submits a scan; returns its job id.
    fn submit_scan(&mut self, body: &[u8]) -> Option<u64> {
        self.call("POST", "/v1/scans", Some("application/json"), body, 202)?
            .json()["job_id"]
            .as_u64()
    }

    /// Polls job `id` every `poll` until it is done; returns the job JSON
    /// and when completion was observed.
    fn await_job(&mut self, id: u64, poll: Duration) -> Option<(Value, Instant)> {
        let deadline = Instant::now() + JOB_TIMEOUT;
        loop {
            let reply = self.call("GET", &format!("/v1/scans/{id}"), None, b"", 200)?;
            let seen = Instant::now();
            let job = reply.json();
            match job["status"].as_str() {
                Some("done") => return Some((job, seen)),
                Some("queued" | "running") if seen < deadline => std::thread::sleep(poll),
                other => {
                    self.ops
                        .check(false, || format!("scan job {id} ended as {other:?}"));
                    return None;
                }
            }
        }
    }

    /// Submits and awaits one scan.
    fn scan(&mut self, body: &[u8], poll: Duration) -> Option<(Value, Instant)> {
        let id = self.submit_scan(body)?;
        self.await_job(id, poll)
    }

    /// `GET /v1/stats`.
    fn stats(&mut self) -> Option<Value> {
        Some(self.call("GET", "/v1/stats", None, b"", 200)?.json())
    }

    /// The server's summed request handling time, from `/metrics`.
    fn server_seconds(&mut self) -> Option<f64> {
        let reply = self.call("GET", "/metrics", None, b"", 200)?;
        String::from_utf8_lossy(&reply.body)
            .lines()
            .find_map(|l| l.strip_prefix("ensemfdet_http_request_duration_seconds_sum "))
            .and_then(|v| v.trim().parse().ok())
    }
}

/// The keys a finished job flagged: by vote, and by hybrid score when
/// the scan was scored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Flagged {
    /// Vote-threshold flags, sorted.
    pub vote: Vec<String>,
    /// Hybrid flags, sorted (empty without scoring).
    pub hybrid: Vec<String>,
}

impl Flagged {
    fn of(job: &Value) -> Flagged {
        let keys = |v: &Value| {
            let mut k: Vec<String> = v
                .as_array()
                .map(|a| {
                    a.iter()
                        .filter_map(|s| s.as_str().map(String::from))
                        .collect()
                })
                .unwrap_or_default();
            k.sort_unstable();
            k
        };
        Flagged {
            vote: keys(&job["result"]["flagged"]),
            hybrid: keys(&job["result"]["scoring"]["hybrid_flagged"]),
        }
    }

    /// The set the workload's output fingerprint is taken over.
    pub fn headline(&self, kind: Kind) -> &[String] {
        if kind == Kind::HybridScan {
            &self.hybrid
        } else {
            &self.vote
        }
    }
}

/// Job-record totals over the measured phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct JobTotals {
    /// Summed `queue_wait_millis`, in seconds.
    pub queue_wait_s: f64,
    /// Summed `run_millis` minus `scan_millis` and scoring, in seconds.
    pub overhead_s: f64,
}

impl JobTotals {
    fn add(&mut self, job: &Value) {
        let ms = |v: &Value| v.as_f64().unwrap_or(0.0) / 1e3;
        let result = &job["result"];
        // Hybrid component passes run after the ensemble and belong to
        // scoring, not to the job machinery.
        let scoring: f64 = result["scoring"]["component_millis"]
            .as_array()
            .map_or(0.0, |c| c.iter().map(ms).sum());
        self.queue_wait_s += ms(&job["queue_wait_millis"]);
        self.overhead_s += ms(&job["run_millis"]) - ms(&result["scan_millis"]) - scoring;
    }
}

/// The output a workload's fingerprint pins.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Output {
    /// Records the service reported ingesting.
    pub records: u64,
    /// `/v1/stats` users.
    pub users: u64,
    /// `/v1/stats` merchants.
    pub merchants: u64,
    /// `/v1/stats` edges.
    pub edges: u64,
    /// Size of the headline flagged set.
    pub flagged: u64,
    /// FNV-1a of the sorted headline flagged keys.
    pub flagged_fnv1a: u64,
}

impl Output {
    /// Takes the graph counts from a `/v1/stats` response.
    fn set_counts(&mut self, stats: &Value) {
        let count = |k: &str| stats[k].as_u64().unwrap_or(0);
        (self.users, self.merchants, self.edges) =
            (count("users"), count("merchants"), count("edges"));
    }
}

/// Everything the untraced run measured.
#[derive(Default)]
pub struct Untraced {
    /// Input generation time.
    pub generate_s: f64,
    /// Per-set-up wall times (server start, preload, stats, warm-up).
    pub setup_reps: Vec<f64>,
    /// The workload's results: pass, scan, or freshness latencies.
    pub results: Vec<f64>,
    /// Wall time of each measured unit the traced replay repeats (the
    /// pass, a scan, a paced batch), or `None` for a paced batch whose own
    /// post fired no scan: its freshness includes waiting for a later
    /// batch, which the replay has no counterpart for.
    pub units: Vec<Option<f64>>,
    /// Server CPU seconds over the measured phase.
    pub server_cpu_s: f64,
    /// Server peak RSS.
    pub server_rss_mib: f64,
    /// Flagged sets of the measured scans, in order.
    pub flagged: Vec<Flagged>,
    /// The final answer the output fingerprint covers.
    pub output: Output,
    /// Client HTTP totals over the phase.
    pub http: HttpTotals,
    /// Server request time over the phase.
    pub server_http_s: f64,
    /// Job totals over the phase.
    pub jobs: JobTotals,
    /// Paced batches sent (follow only).
    pub paced: usize,
    /// How late the paced sender ran, per batch (follow only).
    pub sender_lag_ms: Vec<f64>,
    /// Requests and checks.
    pub ops: Ops,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Runs `kind` once against the service: set up `setups` times (keeping
/// the last server), measure for `seconds`, check the answers.
pub fn run_untraced(
    kind: Kind,
    inputs: &Inputs,
    generate_s: f64,
    setups: usize,
    seconds: f64,
    smoke: bool,
) -> Untraced {
    let mut u = Untraced {
        generate_s,
        ..Default::default()
    };
    let mut sut = None;
    for _ in 0..setups {
        // Dropping the previous set-up's server stops it.
        drop(sut.take());
        let started = Instant::now();
        match Sut::start(kind, smoke, inputs.serve) {
            Ok(s) => {
                let mut c = Client::new(s.addr());
                set_up(inputs, &mut c, &mut u);
                u.ops.merge(c.ops);
                u.setup_reps.push(secs(started.elapsed()));
                sut = Some(s);
            }
            Err(e) => {
                u.ops.check(false, || e);
                return u;
            }
        }
    }
    let Some(mut sut) = sut else { return u };
    let mut c = Client::new(sut.addr());
    let server0 = c.server_seconds().unwrap_or(0.0);
    let cpu0 = sut.cpu_seconds().unwrap_or(0.0);
    c.http = HttpTotals::default();
    match kind {
        Kind::Table1E2e => table1_pass(inputs, &mut c, &mut u),
        Kind::ScanRepeat | Kind::HybridScan => scan_loop(kind, seconds, &mut c, &mut u),
        Kind::FollowRamp => follow_loop(inputs, seconds, smoke, &mut c, &mut u),
    }
    u.server_cpu_s = sut.cpu_seconds().unwrap_or(0.0) - cpu0;
    // The peak of set-up and measured phase; follow mode's unpaced rest
    // of the ring, which only feeds the checks, comes after.
    u.server_rss_mib = sut.peak_rss_mib().unwrap_or(0.0);
    u.http.add(c.http);
    u.server_http_s = c.server_seconds().unwrap_or(0.0) - server0;
    if kind == Kind::FollowRamp {
        follow_finish(inputs, &mut c, &mut u);
    }
    sut.stop();
    u.ops.merge(c.ops);
    check_answers(kind, inputs, smoke, &mut u);
    u
}

/// Posts bulk CSV bodies one after another; returns the records ingested.
fn bulk_ingest(inputs: &Inputs, bodies: &[Range<usize>], c: &mut Client) -> u64 {
    bodies
        .iter()
        .filter_map(|r| c.ingest(inputs.body(r)))
        .map(|json| json["ingested"].as_u64().unwrap_or(0))
        .sum()
}

/// `GET /v1/stats` (a forced compaction): takes the counts it reports.
fn stats(c: &mut Client, u: &mut Untraced) {
    if let Some(stats) = c.stats() {
        u.output.set_counts(&stats);
    }
}

/// One set-up: preload over HTTP, compact via `/v1/stats`, warm up.
fn set_up(inputs: &Inputs, c: &mut Client, u: &mut Untraced) {
    if inputs.preload.is_empty() {
        return;
    }
    u.output.records = bulk_ingest(inputs, &inputs.preload, c);
    stats(c, u);
    // One unmeasured scan: it warms the ensemble path, and in follow mode
    // primes the incremental cache.
    c.scan(b"{}", SCAN_POLL);
}

/// `table1_e2e`: CSV in, flagged accounts out, one cold pass.
fn table1_pass(inputs: &Inputs, c: &mut Client, u: &mut Untraced) {
    let started = Instant::now();
    u.output.records = bulk_ingest(inputs, &inputs.phase, c);
    stats(c, u);
    if let Some((job, done)) = c.scan(b"{}", SCAN_POLL) {
        u.results.push(secs(done - started));
        u.units.push(Some(secs(done - started)));
        u.jobs.add(&job);
        u.flagged.push(Flagged::of(&job));
    }
}

/// `scan_repeat` / `hybrid_scan`: closed-loop scans for `seconds`.
fn scan_loop(kind: Kind, seconds: f64, c: &mut Client, u: &mut Untraced) {
    let started = Instant::now();
    while u.results.is_empty() || secs(started.elapsed()) < seconds {
        let t = Instant::now();
        let Some((job, done)) = c.scan(kind.scan_body(), SCAN_POLL) else {
            return;
        };
        u.results.push(secs(done - t));
        u.units.push(Some(secs(done - t)));
        u.jobs.add(&job);
        u.flagged.push(Flagged::of(&job));
    }
}

/// `follow_ramp`: a sender posts each ring batch when it is due; a
/// poller follows each batch's auto-scan to completion. A batch whose
/// post fired no scan is covered by the next batch's.
fn follow_loop(inputs: &Inputs, seconds: f64, smoke: bool, c: &mut Client, u: &mut Untraced) {
    let rate = if smoke {
        5.0 * FOLLOW_RATE
    } else {
        FOLLOW_RATE
    };
    let n = ((seconds * rate) as usize).clamp(1, inputs.phase.len());
    u.paced = n;
    let addr = c.addr;
    let origin = Instant::now();
    let due = |i: usize| origin + Duration::from_secs_f64(i as f64 / rate);
    let (tx, rx) = mpsc::channel::<(usize, Option<u64>)>();
    let (sender, poller) = std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut c = Client::new(addr);
            let mut lag_ms = Vec::with_capacity(n);
            for (i, r) in inputs.phase[..n].iter().enumerate() {
                let due = due(i);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                lag_ms.push(secs(Instant::now() - due) * 1e3);
                let job = c
                    .ingest(inputs.body(r))
                    .and_then(|j| j["scan_job"].as_u64());
                if tx.send((i, job)).is_err() {
                    break;
                }
            }
            (c, lag_ms)
        });
        let poller = s.spawn(move || {
            let mut c = Client::new(addr);
            let mut fresh = Vec::with_capacity(n);
            let mut units = vec![None; n];
            let mut jobs = JobTotals::default();
            let mut covered = 0usize;
            for (i, job) in rx {
                let Some(id) = job else { continue };
                if let Some((job, done)) = c.await_job(id, FOLLOW_POLL) {
                    jobs.add(&job);
                    for j in covered..=i {
                        fresh.push(secs(done - due(j)));
                    }
                    units[i] = fresh.last().copied();
                    covered = i + 1;
                }
            }
            (c, fresh, units, jobs)
        });
        (
            sender.join().expect("sender thread panicked"),
            poller.join().expect("poller thread panicked"),
        )
    });
    let (sc, lag_ms) = sender;
    let (pc, fresh, units, jobs) = poller;
    u.sender_lag_ms = lag_ms;
    u.results = fresh;
    u.units = units;
    u.jobs = jobs;
    for part in [sc, pc] {
        c.http.add(part.http);
        c.ops.merge(part.ops);
    }
}

/// After the paced loop: post the rest of the ring unpaced, then an
/// incremental and a full scan of the final epoch must agree.
fn follow_finish(inputs: &Inputs, c: &mut Client, u: &mut Untraced) {
    let mut records = u.output.records;
    let paced_end = inputs
        .phase
        .get(u.paced.saturating_sub(1))
        .map_or(0, |r| r.end);
    for r in inputs.phase[..u.paced].iter() {
        records += inputs.body(r).iter().filter(|&&b| b == b'\n').count() as u64;
    }
    let rest = inputs.phase.last().map_or(paced_end, |r| r.end);
    for r in ranges(&inputs.data[..rest], paced_end) {
        if let Some(json) = c.ingest(inputs.body(&r)) {
            records += json["ingested"].as_u64().unwrap_or(0);
        }
    }
    u.output.records = records;
    let incremental = c.scan(b"{}", SCAN_POLL);
    let full = c.scan(br#"{"mode":"full"}"#, SCAN_POLL);
    if let (Some((inc, _)), Some((full, _))) = (incremental, full) {
        let (a, b) = (Flagged::of(&inc), Flagged::of(&full));
        c.ops.check(a == b, || {
            format!(
                "follow: incremental scan flagged {} accounts, full scan {}",
                a.vote.len(),
                b.vote.len()
            )
        });
        u.flagged.push(b);
    }
    if let Some(stats) = c.stats() {
        u.output.set_counts(&stats);
    }
}

/// Least share of flagged accounts that must be planted fraud.
const MIN_PRECISION: f64 = 0.95;

/// The checks every seed gets: counts match the generator, scans agree
/// with each other, and the flagged set is precise. Smoke graphs hold a
/// single ring of a few hundred edges, too small for a precision floor.
fn check_answers(kind: Kind, inputs: &Inputs, smoke: bool, u: &mut Untraced) {
    let t = &inputs.truth;
    let o = u.output.clone();
    let ops = &mut u.ops;
    ops.check(o.records == t.records as u64, || {
        format!("records {} != generated {}", o.records, t.records)
    });
    ops.check(
        (o.users, o.merchants, o.edges) == (t.users as u64, t.merchants as u64, t.edges as u64),
        || {
            format!(
                "stats users/merchants/edges {}/{}/{} != generated {}/{}/{}",
                o.users, o.merchants, o.edges, t.users, t.merchants, t.edges
            )
        },
    );
    let Some(last) = u.flagged.last().cloned() else {
        ops.check(false, || "no scan result".into());
        return;
    };
    ops.check(u.flagged.iter().all(|f| *f == last), || {
        "repeated scans disagree".into()
    });
    let headline = last.headline(kind);
    let precision = t.precision(headline);
    ops.check(
        !headline.is_empty() && (smoke || precision >= MIN_PRECISION),
        || {
            format!(
                "flagged {} accounts at precision {precision:.3} (< {MIN_PRECISION})",
                headline.len()
            )
        },
    );
    u.output.flagged = headline.len() as u64;
    u.output.flagged_fnv1a = keys_fnv(headline);
}

impl Untraced {
    /// The end-to-end metrics, `(name, value, unit, samples)`.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str, usize)> {
        let med = |v: &[f64]| if v.is_empty() { f64::NAN } else { median(v) };
        vec![
            (
                "setup_s",
                self.generate_s + med(&self.setup_reps),
                "s",
                self.setup_reps.len(),
            ),
            ("result_p50_s", med(&self.results), "s", self.results.len()),
            ("server_peak_rss_mib", self.server_rss_mib, "MiB", 1),
        ]
    }

    /// The result latencies' median and tail percentile, for the
    /// human-readable lines.
    pub fn notes(&self) -> Vec<String> {
        let mut out = Vec::new();
        if !self.results.is_empty() {
            let s = Summary::of(&self.results);
            let tail = s
                .tail
                .map(|(q, x)| format!(", p{} {x:.4} s", q * 100.0))
                .unwrap_or_default();
            out.push(format!("result: p50 {:.4} s{tail} (n={})", s.p50, s.n));
        }
        // An open loop's figures hold only if the sender kept its schedule.
        if let Some(lag) = self.sender_lag_ms.iter().copied().reduce(f64::max) {
            out.push(format!("paced sender: at most {lag:.3} ms late"));
        }
        out
    }
}
