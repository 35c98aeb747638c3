//! End-to-end tests of the v1 scan pipeline over a real socket:
//!
//! * ingest stays fast (bounded p95, no 5xx) while a heavy scan is
//!   running — the redesign's core claim;
//! * scans on the same epoch with the same seed produce bit-identical
//!   flagged sets, matching a direct `EnsemFdet::detect` on the same
//!   graph;
//! * the bounded job queue answers `429 queue_full` when saturated;
//! * unknown/invalid job ids and bad overrides use the standard
//!   `{"error":{"code","message"}}` envelope.

use ensemfdet::pipeline::{IngestBuffer, SnapshotStore};
use ensemfdet::{EnsemFdet, EnsemFdetConfig, MonitorConfig};
use ensemfdet_graph::ArenaTransactionInterner;
use ensemfdet_service::{Api, ApiConfig, Server, ServerConfig, ServerHandle};
use serde_json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const SEED: u64 = 77;

fn api(scan_queue_capacity: usize, result_ring: usize) -> Api {
    Api::new(ApiConfig {
        monitor: MonitorConfig {
            detector: EnsemFdetConfig {
                num_samples: 8,
                sample_ratio: 0.5,
                seed: SEED,
                ..Default::default()
            },
            scan_interval: 1_000_000,
            alert_threshold: 4,
            min_transactions: 0,
        },
        scan_queue_capacity,
        result_ring,
        ..Default::default()
    })
}

fn start(scan_queue_capacity: usize) -> ServerHandle {
    start_with_ring(scan_queue_capacity, 16)
}

fn start_with_ring(scan_queue_capacity: usize, result_ring: usize) -> ServerHandle {
    Server::bind_with(
        "127.0.0.1:0",
        api(scan_queue_capacity, result_ring),
        ServerConfig::default(),
    )
    .expect("bind")
    .start()
    .expect("start")
}

fn roundtrip(addr: SocketAddr, raw: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("client read timeout");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("recv");
    out
}

fn get(addr: SocketAddr, path: &str) -> (u16, Value) {
    parse(&roundtrip(addr, &format!("GET {path} HTTP/1.1\r\n\r\n")))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, Value) {
    parse(&roundtrip(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ),
    ))
}

fn parse(resp: &str) -> (u16, Value) {
    let status: u16 = resp
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {resp}"));
    let body = resp
        .find("\r\n\r\n")
        .map(|i| &resp[i + 4..])
        .unwrap_or_default();
    (status, serde_json::from_str(body).unwrap_or(Value::Null))
}

/// The ingest workload: a planted ring plus background shoppers, as
/// individual JSON records.
fn ring_records(bots: usize, stores: usize, shoppers: usize) -> Vec<String> {
    let mut records = Vec::new();
    for b in 0..bots {
        for s in 0..stores {
            records.push(format!("[\"bot-{b}\",\"ring-{s}\"]"));
        }
    }
    for p in 0..shoppers {
        records.push(format!("[\"pin-{p}\",\"store-{}\"]", p % 20));
    }
    records
}

fn ingest(addr: SocketAddr, records: &[String]) -> (u16, Value) {
    post(
        addr,
        "/v1/transactions",
        &format!("{{\"records\":[{}]}}", records.join(",")),
    )
}

fn wait_done(addr: SocketAddr, job_id: u64) -> Value {
    let start = Instant::now();
    loop {
        let (status, body) = get(addr, &format!("/v1/scans/{job_id}"));
        assert_eq!(status, 200, "{body}");
        let state = body["status"].as_str().expect("status field").to_string();
        if state == "done" || state == "failed" {
            return body;
        }
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "job {job_id} stuck in {state}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn flagged_of(job: &Value) -> Vec<String> {
    let mut f: Vec<String> = job["result"]["flagged"]
        .as_array()
        .expect("flagged array")
        .iter()
        .map(|v| v.as_str().unwrap().to_string())
        .collect();
    f.sort();
    f
}

#[test]
fn ingest_is_not_blocked_by_an_inflight_scan() {
    let server = start(8);
    let addr = server.addr();

    // Seed a graph worth scanning.
    let (status, _) = ingest(addr, &ring_records(10, 6, 400));
    assert_eq!(status, 200);

    // Kick off a deliberately heavy scan (many samples over most of the
    // graph) so it is still running while we ingest.
    let (status, body) = post(
        addr,
        "/v1/scans",
        "{\"num_samples\": 2000, \"sample_ratio\": 0.9}",
    );
    assert_eq!(status, 202, "{body}");
    let job_id = body["job_id"].as_u64().expect("job_id");

    // Hammer ingest while the scan runs; every request must succeed and
    // stay fast.
    let mut latencies = Vec::new();
    let mut saw_inflight = false;
    let batch: Vec<String> = (0..20)
        .map(|i| format!("[\"late-{i}\",\"m-{}\"]", i % 5))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let t = Instant::now();
        let (status, body) = ingest(addr, &batch);
        latencies.push(t.elapsed());
        assert_eq!(status, 200, "ingest failed mid-scan: {body}");

        let (status, job) = get(addr, &format!("/v1/scans/{job_id}"));
        assert_eq!(status, 200);
        match job["status"].as_str().unwrap() {
            "queued" | "running" => saw_inflight = true,
            "done" if saw_inflight => break,
            "done" => panic!("scan finished before any ingest overlapped; make it heavier"),
            other => panic!("job entered {other}: {job}"),
        }
        assert!(Instant::now() < deadline, "scan never finished");
    }
    assert!(latencies.len() >= 3, "too few overlapped ingests to judge");

    // p95 (or max for small samples) stays well under the sync-scan era,
    // where ingest waited for the whole ensemble pass.
    latencies.sort();
    let p95 = latencies[(latencies.len() * 95 / 100).min(latencies.len() - 1)];
    assert!(
        p95 < Duration::from_millis(500),
        "ingest p95 {p95:?} over {} requests during an in-flight scan",
        latencies.len()
    );

    // The scan saw only its pinned epoch: late-* accounts are absent from
    // its result even though they were ingested while it ran.
    let job = wait_done(addr, job_id);
    assert!(
        flagged_of(&job).iter().all(|k| !k.starts_with("late-")),
        "scan leaked post-epoch ingest: {job}"
    );
    server.shutdown();
}

#[test]
fn same_epoch_same_seed_is_bit_identical_and_matches_the_library() {
    let server = start(8);
    let addr = server.addr();
    let records = ring_records(8, 5, 120);
    let (status, _) = ingest(addr, &records);
    assert_eq!(status, 200);

    // Two scans with no ingest in between pin the same epoch.
    let (s1, b1) = post(addr, "/v1/scans", "{}");
    let (s2, b2) = post(addr, "/v1/scans", "{}");
    assert_eq!((s1, s2), (202, 202), "{b1} / {b2}");
    assert_eq!(b1["epoch"], b2["epoch"], "no ingest between scans");

    let j1 = wait_done(addr, b1["job_id"].as_u64().unwrap());
    let j2 = wait_done(addr, b2["job_id"].as_u64().unwrap());
    assert_eq!(j1["status"], "done", "{j1}");
    assert_eq!(j2["status"], "done", "{j2}");
    assert_eq!(flagged_of(&j1), flagged_of(&j2), "same epoch+seed must agree");

    // Replicate the pipeline out-of-process: same interner order, same
    // compaction policy, same seed — the library flags the same keys.
    let mut interner = ArenaTransactionInterner::new();
    let buffer = IngestBuffer::new();
    for r in &records {
        let pair: Vec<String> = serde_json::from_str(r).unwrap();
        let (u, v) = (interner.user(&pair[0]), interner.merchant(&pair[1]));
        buffer.append(u, v);
    }
    let snapshot = SnapshotStore::new(1).refresh(&buffer, true);
    let outcome = EnsemFdet::new(EnsemFdetConfig {
        num_samples: 8,
        sample_ratio: 0.5,
        seed: SEED,
        ..Default::default()
    })
    .detect(&snapshot.graph);
    let mut expected: Vec<String> = outcome
        .votes
        .detected_users(4)
        .iter()
        .map(|&u| interner.user_key(u).to_string())
        .collect();
    expected.sort();
    assert_eq!(flagged_of(&j1), expected, "service diverged from the library");
    server.shutdown();
}

#[test]
fn saturated_scan_queue_answers_429_queue_full() {
    let server = start(1);
    let addr = server.addr();
    let (status, _) = ingest(addr, &ring_records(10, 6, 300));
    assert_eq!(status, 200);

    // With a queue of one and heavy scans, rapid submissions must hit the
    // cap. The first few 202s occupy the executor and the queue slot.
    let mut accepted = 0;
    let mut rejected = None;
    for _ in 0..10 {
        let (status, body) = post(
            addr,
            "/v1/scans",
            "{\"num_samples\": 1000, \"sample_ratio\": 0.9}",
        );
        match status {
            202 => accepted += 1,
            429 => {
                rejected = Some(body);
                break;
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert!(accepted >= 1, "nothing was accepted");
    let body = rejected.expect("queue of one never filled across 10 rapid submissions");
    assert_eq!(body["error"]["code"], "queue_full", "{body}");
    assert!(body["error"]["message"].as_str().is_some(), "{body}");
    server.shutdown();
}

#[test]
fn job_lookups_and_overrides_use_the_error_envelope() {
    let server = start(8);
    let addr = server.addr();

    let (status, body) = get(addr, "/v1/scans/999999");
    assert_eq!(status, 404);
    assert_eq!(body["error"]["code"], "unknown_job", "{body}");

    let (status, body) = get(addr, "/v1/scans/not-a-number");
    assert_eq!(status, 400);
    assert_eq!(body["error"]["code"], "bad_request", "{body}");

    let (status, body) = post(addr, "/v1/scans", "{\"sample_ratio\": 0}");
    assert_eq!(status, 400);
    assert_eq!(body["error"]["code"], "invalid_config", "{body}");

    let (status, body) = post(addr, "/v1/scans", "{\"engine\": \"warp\"}");
    assert_eq!(status, 400);
    assert_eq!(body["error"]["code"], "invalid_config", "{body}");

    let (status, body) = get(addr, "/v1/scans/latest");
    assert_eq!(status, 404);
    assert_eq!(body["error"]["code"], "no_completed_scan", "{body}");

    let (status, body) = get(addr, "/no/such/route");
    assert_eq!(status, 404);
    assert_eq!(body["error"]["code"], "not_found", "{body}");
    server.shutdown();
}

/// An id that fell off the result ring answers `410 gone` — distinct from
/// the `404 unknown_job` a never-issued id gets — so clients can tell
/// "poll slower or raise `result_ring`" apart from "you have a bug".
#[test]
fn evicted_job_id_answers_410_gone() {
    let server = start_with_ring(8, 1);
    let addr = server.addr();
    ingest(addr, &ring_records(6, 4, 80));

    let (status, b1) = post(addr, "/v1/scans", "{}");
    assert_eq!(status, 202, "{b1}");
    let id1 = b1["job_id"].as_u64().unwrap();
    wait_done(addr, id1);

    // The second finished scan evicts the first from the one-slot ring.
    let (_, b2) = post(addr, "/v1/scans", "{}");
    let id2 = b2["job_id"].as_u64().unwrap();
    wait_done(addr, id2);

    let (status, body) = get(addr, &format!("/v1/scans/{id1}"));
    assert_eq!(status, 410, "{body}");
    assert_eq!(body["error"]["code"], "gone", "{body}");
    assert!(body["error"]["message"].as_str().is_some(), "{body}");

    // The survivor still serves, and never-issued ids still 404.
    let (status, body) = get(addr, &format!("/v1/scans/{id2}"));
    assert_eq!(status, 200, "{body}");
    let (status, body) = get(addr, "/v1/scans/999999");
    assert_eq!(status, 404, "{body}");
    assert_eq!(body["error"]["code"], "unknown_job", "{body}");
    server.shutdown();
}

#[test]
fn latest_serves_the_newest_published_result() {
    let server = start(8);
    let addr = server.addr();
    ingest(addr, &ring_records(6, 4, 80));

    let (_, b1) = post(addr, "/v1/scans", "{}");
    let id1 = b1["job_id"].as_u64().unwrap();
    wait_done(addr, id1);

    ingest(addr, &ring_records(2, 2, 10));
    let (_, b2) = post(addr, "/v1/scans", "{}");
    let id2 = b2["job_id"].as_u64().unwrap();
    assert!(b2["epoch"].as_u64() > b1["epoch"].as_u64(), "{b1} / {b2}");
    wait_done(addr, id2);

    let (status, latest) = get(addr, "/v1/scans/latest");
    assert_eq!(status, 200);
    assert_eq!(latest["job_id"].as_u64().unwrap(), id2);
    assert_eq!(latest["epoch"], b2["epoch"]);
    server.shutdown();
}
