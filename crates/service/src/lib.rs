#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! A minimal HTTP façade over the live detection pipeline — the
//! deployment surface the paper alludes to ("ENSEMFDET has been deployed
//! in the risk control department of JD.com").
//!
//! The v1 API (see `docs/API.md` for the full contract):
//!
//! | Method & path            | Body                                   | Effect |
//! |--------------------------|----------------------------------------|--------|
//! | `GET /v1/health`         | —                                      | liveness, transaction count, snapshot epoch |
//! | `POST /v1/transactions`  | `{"records": [["user","merchant"],…]}` | ingest purchases (never blocks on scans) |
//! | `POST /v1/scans`         | optional overrides                     | enqueue an async scan → `202 {job_id, epoch}` |
//! | `GET /v1/scans/{id}`     | —                                      | job status: `queued`/`running`/`done`/`failed` |
//! | `GET /v1/scans/latest`   | —                                      | last published scan result |
//! | `GET /v1/follow`         | —                                      | continuous-monitoring state: cached epoch, ingest lag, last scan's reuse profile |
//! | `GET /v1/stats`          | —                                      | current graph statistics |
//! | `GET /v1/config`         | —                                      | effective service configuration |
//! | `GET /metrics`           | —                                      | Prometheus text metrics |
//!
//! **Ingest and scans never contend.** Ingestion appends to a pending
//! log ([`ensemfdet::pipeline::IngestBuffer`]); scans run on immutable
//! epoch-versioned snapshots compacted from that log
//! ([`ensemfdet::pipeline::SnapshotStore`]) by a single background
//! executor thread draining a bounded job queue ([`jobs::JobStore`]). A
//! scan of any size leaves `POST /v1/transactions` latency untouched,
//! and a job's result is bit-identical for a given (epoch, seed) — in
//! either scan mode: follow mode (`--follow`, [`ApiConfig::follow`])
//! makes scans default to the incremental dirty-sample-reuse path, which
//! replays cached per-sample results the epoch delta provably left
//! unchanged and re-peels only the rest.
//!
//! The HTTP layer is deliberately tiny (hand-rolled HTTP/1.1, no TLS): it
//! exists so the detector can be driven by `curl` and integration-tested
//! over a real socket, not to compete with a production web stack. It is
//! hardened the way a small service still must be:
//!
//! * a fixed pool of [`ServerConfig::workers`] threads drains a bounded
//!   accept queue; overflow is shed with `503` instead of spawning
//!   unbounded threads;
//! * every connection gets read/write deadlines, so stalled clients are
//!   cut off with `408` rather than pinning a worker;
//! * header section and body sizes are capped (`431`/`413`);
//! * every error body is the uniform envelope
//!   `{"error":{"code":…,"message":…}}` with a stable machine code;
//! * [`ServerHandle::shutdown`] stops the accept loop, drains queued
//!   connections, and joins every thread; dropping the [`Api`] stops and
//!   joins the scan executor.
//!
//! All routing logic is a pure function ([`Api::handle`]) from request to
//! response, so the interesting parts are testable without sockets; the
//! shared [`ensemfdet_telemetry::ServiceMetrics`] set behind
//! [`Api::metrics`] is what `GET /metrics` renders.

pub mod api;
mod executor;
pub mod http;
pub mod jobs;
pub mod server;

pub use api::{Api, ApiConfig};
pub use jobs::{JobState, JobStore, JobView, ScanResultView};
pub use server::{Server, ServerConfig, ServerHandle};
