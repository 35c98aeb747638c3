//! The scan job store: a bounded queue of asynchronous scan jobs plus a
//! ring of recent results.
//!
//! `POST /v1/scans` enqueues here and returns immediately; the scan
//! executor (one dedicated thread, see [`crate::api::Api`]) drains the
//! queue, runs the ensemble against the job's pinned snapshot, and
//! publishes the epoch-tagged result back into the store. The store is a
//! single small mutex + condvars — every operation is O(1)-ish
//! bookkeeping, never detection work, so holding the lock is always
//! brief.

use crate::api::lock_recover;
use ensemfdet::pipeline::Snapshot;
use ensemfdet::{EnsemFdetConfig, ReuseStats};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One scan's effective settings: the service defaults overlaid with a
/// request's overrides (`POST /v1/scans`), or the defaults alone (an
/// automatic scan).
#[derive(Clone, Copy, Debug)]
pub struct ScanRequest {
    /// Effective detector configuration.
    pub config: EnsemFdetConfig,
    /// Vote threshold for flagging.
    pub threshold: u32,
    /// Run via the executor's incremental path (dirty-sample reuse with
    /// fallback to a full scan) instead of an unconditional full scan.
    /// Either way the flagged set is the same — see
    /// [`ensemfdet::pipeline::ScanRunner::run_incremental`].
    pub incremental: bool,
    /// Worker threads for the ensemble pass (`0` = auto). A wall-clock
    /// knob only: results are identical for every worker count, so it
    /// lives outside [`EnsemFdetConfig`] and never perturbs the
    /// incremental cache's config-equality contract.
    pub workers: usize,
}

/// What a queued scan job should run: the pinned snapshot (so the epoch
/// reported at enqueue time is exactly the epoch scanned) and the
/// request's settings.
#[derive(Clone, Debug)]
pub struct ScanSpec {
    /// The snapshot the scan runs on.
    pub snapshot: Arc<Snapshot>,
    /// The scan's settings.
    pub request: ScanRequest,
}

/// Lifecycle of a scan job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the queue.
    Queued,
    /// Picked up by the executor, ensemble pass in progress.
    Running,
    /// Finished; the result is published.
    Done,
    /// The executor could not complete the job.
    Failed,
}

impl JobState {
    /// The lowercase wire name (`"queued"`, `"running"`, …).
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed)
    }
}

/// The hybrid-scoring slice of a published scan result: the accounts
/// the fused score flagged, and the per-account component breakdown
/// clients use to explain *why* an account was flagged. The scoring
/// configuration is the result's `request.config.scoring`.
#[derive(Clone, Debug)]
pub struct ScoringResultView {
    /// Account keys whose fused hybrid score crossed
    /// `hybrid_threshold`.
    pub hybrid_flagged: Vec<String>,
    /// Per-account `[vote, spectral, kcore, hybrid]` scores for every
    /// account flagged by either the vote threshold or the hybrid
    /// threshold (the union), sorted by key.
    pub account_scores: Vec<(String, [f64; 4])>,
    /// Wall-clock of the `[vote, spectral, kcore]` component passes, in
    /// milliseconds; a reused component reads 0.
    pub component_millis: [f64; 3],
    /// Whether the spectral and k-core components were reused from an
    /// earlier scored scan of the same graph.
    pub components_reused: bool,
}

/// A published scan result, with ids already translated back to the
/// string keys clients speak.
#[derive(Clone, Debug)]
pub struct ScanResultView {
    /// Id of the job that produced this result.
    pub job_id: u64,
    /// Epoch of the snapshot scanned.
    pub epoch: u64,
    /// Transactions in that snapshot.
    pub transactions: usize,
    /// Flagged account keys (every account at/above the threshold).
    pub flagged: Vec<String>,
    /// Accounts crossing the threshold for the first time ever.
    pub new_alerts: Vec<String>,
    /// The settings the scan ran with.
    pub request: ScanRequest,
    /// Ensemble wall-clock in milliseconds.
    pub scan_millis: f64,
    /// How the scan was produced: full vs incremental, fallback reason,
    /// samples reused vs re-peeled, and the delta's footprint.
    pub reuse: ReuseStats,
    /// Worker threads the ensemble pass actually ran with.
    pub workers: usize,
    /// Hybrid-scoring breakdown, present when the scan's config enabled
    /// the scoring fusion.
    pub scoring: Option<ScoringResultView>,
}

/// One job's externally visible record.
#[derive(Clone, Debug)]
pub struct JobView {
    /// Job id (monotonic).
    pub id: u64,
    /// Current lifecycle state.
    pub state: JobState,
    /// Epoch of the snapshot the job is pinned to.
    pub epoch: u64,
    /// Time spent queued (up to now, or until the executor started it).
    pub queue_wait: Duration,
    /// Time spent running, if started (up to now, or until it finished).
    pub run_time: Option<Duration>,
    /// The published result, when `Done`.
    pub result: Option<Arc<ScanResultView>>,
    /// The failure message, when `Failed`.
    pub error: Option<String>,
}

#[derive(Debug)]
struct Job {
    state: JobState,
    epoch: u64,
    /// Present while the job is queued; taken by the executor.
    spec: Option<ScanSpec>,
    enqueued_at: Instant,
    started_at: Option<Instant>,
    finished_at: Option<Instant>,
    result: Option<Arc<ScanResultView>>,
    error: Option<String>,
}

impl Job {
    fn view(&self, id: u64) -> JobView {
        JobView {
            id,
            state: self.state,
            epoch: self.epoch,
            queue_wait: self
                .started_at
                .unwrap_or_else(Instant::now)
                .duration_since(self.enqueued_at),
            run_time: self
                .started_at
                .map(|s| self.finished_at.unwrap_or_else(Instant::now).duration_since(s)),
            result: self.result.clone(),
            error: self.error.clone(),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    next_id: u64,
    pending: VecDeque<u64>,
    jobs: BTreeMap<u64, Job>,
    /// Finished job ids in completion order; older entries past the ring
    /// capacity are pruned from `jobs`.
    finished: VecDeque<u64>,
    latest: Option<Arc<ScanResultView>>,
    stopping: bool,
}

/// Outcome of a [`JobStore::lookup`]: the three externally
/// distinguishable fates of a job id.
#[derive(Clone, Debug)]
pub enum JobLookup {
    /// The job is still tracked (queued, running, or in the ring).
    Found(JobView),
    /// The id was issued, but its terminal record fell off the
    /// recent-results ring and was pruned (HTTP 410).
    Evicted,
    /// The id was never issued by this store (HTTP 404).
    Unknown,
}

/// Errors enqueueing a scan job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnqueueError {
    /// The pending queue is at capacity — retry later (HTTP 429).
    QueueFull,
    /// The store is shutting down (HTTP 503).
    Stopping,
}

/// The bounded scan job queue and result store.
#[derive(Debug)]
pub struct JobStore {
    inner: Mutex<Inner>,
    /// Signals the executor that work (or shutdown) is available.
    work_available: Condvar,
    capacity: usize,
    ring: usize,
}

impl JobStore {
    /// A store whose pending queue holds at most `capacity` jobs and
    /// which keeps the `ring` most recent finished jobs queryable.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `ring == 0`.
    pub fn new(capacity: usize, ring: usize) -> Self {
        assert!(capacity > 0, "need a queue of at least one");
        assert!(ring > 0, "need a result ring of at least one");
        JobStore {
            inner: Mutex::new(Inner::default()),
            work_available: Condvar::new(),
            capacity,
            ring,
        }
    }

    /// Enqueues a scan job, returning its id.
    ///
    /// # Errors
    ///
    /// [`EnqueueError::QueueFull`] when the pending queue is at
    /// capacity, [`EnqueueError::Stopping`] during shutdown.
    pub fn enqueue(&self, spec: ScanSpec) -> Result<u64, EnqueueError> {
        let mut inner = lock_recover(&self.inner);
        if inner.stopping {
            return Err(EnqueueError::Stopping);
        }
        if inner.pending.len() >= self.capacity {
            return Err(EnqueueError::QueueFull);
        }
        inner.next_id += 1;
        let id = inner.next_id;
        let epoch = spec.snapshot.epoch;
        inner.jobs.insert(
            id,
            Job {
                state: JobState::Queued,
                epoch,
                spec: Some(spec),
                enqueued_at: Instant::now(),
                started_at: None,
                finished_at: None,
                result: None,
                error: None,
            },
        );
        inner.pending.push_back(id);
        drop(inner);
        self.work_available.notify_one();
        Ok(id)
    }

    /// Blocks until a job is available (returning it marked `Running`)
    /// or the store is stopping (returning `None`). Executor-side.
    pub fn next_job(&self) -> Option<(u64, ScanSpec, Duration)> {
        let mut inner = lock_recover(&self.inner);
        loop {
            if let Some(id) = inner.pending.pop_front() {
                let job = inner.jobs.get_mut(&id).expect("pending job exists");
                job.state = JobState::Running;
                let now = Instant::now();
                job.started_at = Some(now);
                let wait = now.duration_since(job.enqueued_at);
                let spec = job.spec.take().expect("queued job carries its spec");
                return Some((id, spec, wait));
            }
            if inner.stopping {
                return None;
            }
            inner = self
                .work_available
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Publishes a finished job's result and makes it `latest`.
    pub fn complete(&self, id: u64, result: ScanResultView) {
        let result = Arc::new(result);
        let mut inner = lock_recover(&self.inner);
        if let Some(job) = inner.jobs.get_mut(&id) {
            job.state = JobState::Done;
            job.finished_at = Some(Instant::now());
            job.result = Some(result.clone());
        }
        inner.latest = Some(result);
        self.finish(&mut inner, id);
    }

    /// Marks a job failed.
    pub fn fail(&self, id: u64, error: impl Into<String>) {
        let mut inner = lock_recover(&self.inner);
        if let Some(job) = inner.jobs.get_mut(&id) {
            job.state = JobState::Failed;
            job.finished_at = Some(Instant::now());
            job.error = Some(error.into());
        }
        self.finish(&mut inner, id);
    }

    /// Ring bookkeeping: remember the finished id, prune ids that fell
    /// off the ring (only terminal jobs are ever pruned).
    fn finish(&self, inner: &mut Inner, id: u64) {
        inner.finished.push_back(id);
        while inner.finished.len() > self.ring {
            if let Some(old) = inner.finished.pop_front() {
                if inner.jobs.get(&old).is_some_and(|j| j.state.is_terminal()) {
                    inner.jobs.remove(&old);
                }
            }
        }
    }

    /// A point-in-time view of one job, if it is still known (queued,
    /// running, or within the recent-results ring). Collapses
    /// [`lookup`](Self::lookup)'s evicted/unknown distinction to `None`
    /// for callers that do not care why the job is gone.
    pub fn get(&self, id: u64) -> Option<JobView> {
        match self.lookup(id) {
            JobLookup::Found(view) => Some(view),
            JobLookup::Evicted | JobLookup::Unknown => None,
        }
    }

    /// A point-in-time lookup that distinguishes *evicted* ids from ids
    /// that never existed.
    ///
    /// Ids are handed out monotonically from 1 and terminal jobs are
    /// pruned once they fall off the recent-results ring, so an id that is
    /// within `1..=last issued` but absent from the map must have been
    /// issued and later evicted — its result is gone for capacity reasons,
    /// not because the caller made the id up. The API layer maps the two
    /// cases to HTTP 410 (`gone`) and 404 (`unknown_job`) respectively.
    pub fn lookup(&self, id: u64) -> JobLookup {
        let inner = lock_recover(&self.inner);
        match inner.jobs.get(&id) {
            Some(job) => JobLookup::Found(job.view(id)),
            None if id >= 1 && id <= inner.next_id => JobLookup::Evicted,
            None => JobLookup::Unknown,
        }
    }

    /// The most recently published scan result, if any scan has
    /// completed.
    pub fn latest(&self) -> Option<Arc<ScanResultView>> {
        lock_recover(&self.inner).latest.clone()
    }

    /// Jobs currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        lock_recover(&self.inner).pending.len()
    }

    /// Stops the store: wakes the executor, which then exits.
    pub fn stop(&self) {
        lock_recover(&self.inner).stopping = true;
        self.work_available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemfdet_graph::BipartiteGraph;

    fn spec(epoch: u64) -> ScanSpec {
        ScanSpec {
            snapshot: Arc::new(Snapshot {
                epoch,
                transactions: 0,
                graph: Arc::new(BipartiteGraph::from_edges(0, 0, vec![]).unwrap()),
            }),
            request: ScanRequest {
                config: EnsemFdetConfig::default(),
                threshold: 1,
                incremental: false,
                workers: 1,
            },
        }
    }

    fn result(job_id: u64, epoch: u64) -> ScanResultView {
        ScanResultView {
            job_id,
            epoch,
            transactions: 0,
            flagged: vec![],
            new_alerts: vec![],
            request: spec(epoch).request,
            scan_millis: 1.0,
            reuse: ReuseStats::full(0),
            workers: 1,
            scoring: None,
        }
    }

    #[test]
    fn enqueue_run_complete_lifecycle() {
        let store = JobStore::new(4, 4);
        let id = store.enqueue(spec(3)).unwrap();
        assert_eq!(store.get(id).unwrap().state, JobState::Queued);
        assert_eq!(store.get(id).unwrap().epoch, 3);
        assert_eq!(store.queue_depth(), 1);

        let (got, s, _wait) = store.next_job().unwrap();
        assert_eq!(got, id);
        assert_eq!(s.snapshot.epoch, 3);
        assert_eq!(store.get(id).unwrap().state, JobState::Running);
        assert_eq!(store.queue_depth(), 0);

        store.complete(id, result(id, 3));
        let view = store.get(id).unwrap();
        assert_eq!(view.state, JobState::Done);
        assert_eq!(view.result.as_ref().unwrap().epoch, 3);
        assert_eq!(store.latest().unwrap().job_id, id);
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let store = JobStore::new(2, 4);
        store.enqueue(spec(1)).unwrap();
        store.enqueue(spec(1)).unwrap();
        assert_eq!(store.enqueue(spec(1)), Err(EnqueueError::QueueFull));
        // Draining one frees a slot.
        let (id, _, _) = store.next_job().unwrap();
        store.fail(id, "boom");
        store.enqueue(spec(1)).unwrap();
    }

    #[test]
    fn unknown_job_is_none() {
        let store = JobStore::new(2, 2);
        assert!(store.get(42).is_none());
    }

    #[test]
    fn ring_prunes_old_finished_jobs_only() {
        let store = JobStore::new(8, 2);
        let ids: Vec<u64> = (0..4).map(|_| store.enqueue(spec(1)).unwrap()).collect();
        for _ in 0..3 {
            let (id, _, _) = store.next_job().unwrap();
            store.complete(id, result(id, 1));
        }
        // Ring of 2: the first finished job fell off; the last queued one
        // is still tracked.
        assert!(store.get(ids[0]).is_none(), "oldest finished job pruned");
        assert!(store.get(ids[1]).is_some());
        assert!(store.get(ids[2]).is_some());
        assert_eq!(store.get(ids[3]).unwrap().state, JobState::Queued);
        // The pruned id is *evicted*, not unknown: it was issued.
        assert!(
            matches!(store.lookup(ids[0]), JobLookup::Evicted),
            "issued-then-pruned id must read as evicted"
        );
        assert!(matches!(store.lookup(ids[3]), JobLookup::Found(_)));
    }

    #[test]
    fn lookup_distinguishes_evicted_from_unknown() {
        let store = JobStore::new(4, 1);
        let a = store.enqueue(spec(1)).unwrap();
        let b = store.enqueue(spec(1)).unwrap();
        for _ in 0..2 {
            let (id, _, _) = store.next_job().unwrap();
            store.complete(id, result(id, 1));
        }
        // Ring of 1 keeps only the second result.
        assert!(matches!(store.lookup(a), JobLookup::Evicted));
        assert!(matches!(store.lookup(b), JobLookup::Found(_)));
        // Ids outside [1, last issued] were never handed out.
        assert!(matches!(store.lookup(0), JobLookup::Unknown));
        assert!(matches!(store.lookup(b + 1), JobLookup::Unknown));
        assert!(matches!(store.lookup(9_999), JobLookup::Unknown));
        // get() collapses both non-found cases to None.
        assert!(store.get(a).is_none());
        assert!(store.get(9_999).is_none());
    }

    #[test]
    fn failed_jobs_report_their_error() {
        let store = JobStore::new(2, 2);
        let id = store.enqueue(spec(2)).unwrap();
        let _ = store.next_job().unwrap();
        store.fail(id, "detector panicked");
        let view = store.get(id).unwrap();
        assert_eq!(view.state, JobState::Failed);
        assert_eq!(view.error.as_deref(), Some("detector panicked"));
        assert!(store.latest().is_none(), "failures do not publish results");
    }

    #[test]
    fn stop_releases_executor_and_waiters() {
        let store = Arc::new(JobStore::new(2, 2));
        let exec = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || store.next_job().is_none())
        };
        store.stop();
        assert!(exec.join().unwrap(), "executor released with None");
        assert_eq!(store.enqueue(spec(1)), Err(EnqueueError::Stopping));
    }
}
