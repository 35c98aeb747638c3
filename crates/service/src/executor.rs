//! The background scan executor: one dedicated thread draining the
//! [`JobStore`](crate::jobs::JobStore) queue.
//!
//! Each job carries its pinned snapshot, so the ensemble runs on exactly
//! the epoch that `POST /v1/scans` reported — ingest continuing in the
//! meantime cannot change what a job scans. A panicking detector or
//! scoring run is caught and recorded as a `failed` job instead of
//! killing the thread.

use crate::api::{lock_recover, Engine};
use crate::jobs::{ScanResultView, ScoringResultView};
use ensemfdet_telemetry::{ScoringComponent, Stage};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Starts the executor thread. It exits when the job store stops.
pub(crate) fn spawn(engine: Arc<Engine>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("ensemfdet-scan-executor".into())
        .spawn(move || executor_loop(&engine))
        .expect("spawn scan executor")
}

fn executor_loop(engine: &Engine) {
    while let Some((id, spec, queue_wait)) = engine.jobs.next_job() {
        let metrics = &engine.metrics;
        metrics.scan_queue_depth.set(engine.jobs.queue_depth() as i64);
        metrics.scans_in_flight.inc();
        let started = Instant::now();
        // The runner mutex serializes the alert ledger; with a single
        // executor thread it is uncontended. AssertUnwindSafe is sound
        // because a panic can only escape the ensemble pass or the hybrid
        // scoring after it, both before the ledger is touched. Neither
        // leaves a half-written cache: the incremental cache is replaced
        // whole, and the scoring components are written back only once
        // both are complete.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut runner = lock_recover(&engine.runner);
            let request = &spec.request;
            runner.set_workers(request.workers);
            if request.incremental {
                runner.run_incremental(
                    &spec.snapshot,
                    &engine.snapshots,
                    &request.config,
                    request.threshold,
                    &engine.config.incremental_policy,
                )
            } else {
                runner.run(&spec.snapshot, &request.config, request.threshold)
            }
        }));
        match outcome {
            Ok(outcome) => {
                let (flagged, new_alerts, scoring) = {
                    // One interner lock for the whole translation: ingest
                    // waits at most for these few key copies.
                    let interner = engine.interner.lock();
                    let to_keys = |ids: &[ensemfdet_graph::UserId]| {
                        ids.iter()
                            .map(|&u| interner.user_key(u).to_string())
                            .collect::<Vec<String>>()
                    };
                    let scoring = outcome.scoring.as_ref().map(|s| {
                        // Echo the component breakdown for the union of
                        // vote-flagged and hybrid-flagged accounts.
                        let mut union: Vec<ensemfdet_graph::UserId> = outcome
                            .flagged
                            .iter()
                            .chain(&s.hybrid_flagged)
                            .copied()
                            .collect();
                        union.sort_unstable_by_key(|u| u.0);
                        union.dedup();
                        let mut account_scores: Vec<(String, [f64; 4])> = union
                            .into_iter()
                            .map(|u| {
                                let i = u.index();
                                (
                                    interner.user_key(u).to_string(),
                                    [s.vote[i], s.spectral[i], s.kcore[i], s.hybrid[i]],
                                )
                            })
                            .collect();
                        account_scores.sort_by(|a, b| a.0.cmp(&b.0));
                        ScoringResultView {
                            hybrid_flagged: to_keys(&s.hybrid_flagged),
                            account_scores,
                            component_millis: s.component_times.map(|t| t.as_secs_f64() * 1e3),
                            components_reused: s.components_reused,
                        }
                    });
                    (to_keys(&outcome.flagged), to_keys(&outcome.new_alerts), scoring)
                };
                let ensemble = &outcome.ensemble;
                metrics.scan_duration.observe_duration(ensemble.elapsed);
                for s in &ensemble.samples {
                    metrics.sample_duration.observe_duration(s.elapsed);
                }
                metrics.scan_workers.set(ensemble.workers as i64);
                for &t in &ensemble.worker_times {
                    metrics.worker_busy_duration.observe_duration(t);
                }
                let stages = &metrics.stage_duration;
                stages[Stage::Sampling].observe_duration(ensemble.stages.sampling);
                stages[Stage::Detection].observe_duration(ensemble.stages.detection);
                stages[Stage::Aggregation].observe_duration(ensemble.stages.aggregation);
                metrics
                    .sample_bytes_materialized
                    .add(ensemble.sample_bytes());
                metrics.record_scan_reuse(
                    outcome.reuse.incremental,
                    outcome.reuse.fallback.is_some(),
                    outcome.reuse.dirty_fraction(),
                    outcome.reuse.delta_touched_nodes,
                    ensemble.elapsed,
                );
                if let Some(s) = &outcome.scoring {
                    metrics.scans_hybrid.inc();
                    if s.components_reused {
                        metrics.scoring_components_reused.inc();
                    }
                    let [vote, spectral, kcore] = s.component_times;
                    // A reused component's time is zero: observe only the
                    // passes this scan ran.
                    for (component, t) in [
                        (ScoringComponent::Vote, vote),
                        (ScoringComponent::Spectral, spectral),
                        (ScoringComponent::Kcore, kcore),
                    ] {
                        if !t.is_zero() {
                            metrics.scoring_duration[component].observe_duration(t);
                        }
                    }
                }
                metrics.alerts.add(new_alerts.len() as u64);
                metrics.snapshot_epoch.set(outcome.epoch as i64);
                metrics
                    .snapshot_lag
                    .set(engine.snapshots.lag(&engine.buffer) as i64);
                metrics.scans_in_flight.dec();
                metrics.scan_queue_wait.observe_duration(queue_wait);
                metrics
                    .scan_job_duration
                    .observe_duration(started.elapsed());
                // Publish last, so every metric update above is visible
                // by the time a synchronous waiter wakes.
                engine.jobs.complete(
                    id,
                    ScanResultView {
                        job_id: id,
                        epoch: outcome.epoch,
                        transactions: outcome.transactions,
                        flagged,
                        new_alerts,
                        request: spec.request,
                        scan_millis: outcome.ensemble.elapsed.as_secs_f64() * 1e3,
                        reuse: outcome.reuse,
                        workers: outcome.ensemble.workers,
                        scoring,
                    },
                );
            }
            Err(panic) => {
                metrics.scans_failed.inc();
                metrics.scans_in_flight.dec();
                metrics.scan_queue_wait.observe_duration(queue_wait);
                metrics
                    .scan_job_duration
                    .observe_duration(started.elapsed());
                engine.jobs.fail(id, format!("scan panicked: {}", panic_message(&panic)));
            }
        }
    }
}

/// Best-effort human-readable payload of a caught panic.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("unknown panic")
}
