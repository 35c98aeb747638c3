//! End-to-end hardening tests: a real server on a real socket, driven by
//! deliberately hostile or unlucky clients.
//!
//! Covered here (unit-level variants live in the service crate):
//! * pool saturation is shed with 503, promptly, without hanging anyone;
//! * a client that stalls mid-body is disconnected by the read deadline
//!   with 408 instead of pinning a worker;
//! * a Content-Length larger than the bytes actually sent is a 400;
//! * an endless header stream is cut off with 431;
//! * `GET /metrics` reports request counts by route and status and a
//!   non-empty ensemble-scan latency histogram once a scan has run.

use ensemfdet::{EnsemFdetConfig, MonitorConfig};
use ensemfdet_service::{Api, ApiConfig, Server, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn api() -> Api {
    Api::new(ApiConfig {
        monitor: MonitorConfig {
            detector: EnsemFdetConfig {
                num_samples: 6,
                sample_ratio: 0.5,
                seed: 11,
                ..Default::default()
            },
            scan_interval: 1_000_000,
            alert_threshold: 3,
            min_transactions: 0,
        },
        ..Default::default()
    })
}

fn start(config: ServerConfig) -> ServerHandle {
    Server::bind_with("127.0.0.1:0", api(), config)
        .expect("bind")
        .start()
        .expect("start")
}

fn roundtrip(addr: SocketAddr, raw: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("client read timeout");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("recv");
    out
}

/// The JSON body of a raw HTTP response.
fn json_body(resp: &str) -> serde_json::Value {
    let body = &resp[resp.find("\r\n\r\n").expect("header end") + 4..];
    serde_json::from_str(body).unwrap_or_else(|e| panic!("{e}: {resp}"))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> String {
    roundtrip(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

#[test]
fn metrics_expose_request_counts_and_scan_latencies() {
    let server = start(ServerConfig::default());
    let addr = server.addr();

    // Some traffic: two health checks, one ingest, one scan job.
    for _ in 0..2 {
        assert!(roundtrip(addr, "GET /v1/health HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 200"));
    }
    let mut records = Vec::new();
    for b in 0..6 {
        for s in 0..4 {
            records.push(format!("[\"bot-{b}\",\"ring-{s}\"]"));
        }
    }
    for p in 0..30 {
        records.push(format!("[\"pin-{p}\",\"store-{}\"]", p % 12));
    }
    let body = format!("{{\"records\":[{}]}}", records.join(","));
    assert!(post(addr, "/v1/transactions", &body).starts_with("HTTP/1.1 200"));
    let job = json_body(&post(addr, "/v1/scans", ""))["job_id"]
        .as_u64()
        .expect("job id");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = json_body(&roundtrip(
            addr,
            &format!("GET /v1/scans/{job} HTTP/1.1\r\n\r\n"),
        ));
        if status["status"] == "done" {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "scan job never finished: {status}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let resp = roundtrip(addr, "GET /metrics HTTP/1.1\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
    assert!(resp.contains("content-type: text/plain; version=0.0.4"), "{resp}");
    let text = &resp[resp.find("\r\n\r\n").unwrap()..];
    assert!(
        text.contains("ensemfdet_http_requests_total{route=\"/v1/health\",status=\"200\"} 2"),
        "{text}"
    );
    assert!(
        text.contains("ensemfdet_http_requests_total{route=\"/v1/scans\",status=\"202\"} 1"),
        "{text}"
    );
    assert!(text.contains("ensemfdet_transactions_ingested_total 54"), "{text}");
    // The scan produced one latency observation per ensemble sample.
    assert!(text.contains("ensemfdet_scan_sample_duration_seconds_count 6"), "{text}");
    assert!(text.contains("ensemfdet_scan_duration_seconds_count 1"), "{text}");
    server.shutdown();
}

#[test]
fn saturation_sheds_503_without_hanging() {
    let server = start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        read_timeout: Duration::from_secs(3),
        ..Default::default()
    });
    let addr = server.addr();
    let metrics = std::sync::Arc::clone(server.metrics());

    // Occupy the single worker with a half-sent request, then fill the
    // one queue slot with an idle connection.
    let mut occupier = TcpStream::connect(addr).expect("occupier");
    occupier.write_all(b"GET /v1/health").expect("partial send");
    let t0 = Instant::now();
    while metrics.workers_busy.get() < 1 {
        assert!(t0.elapsed() < Duration::from_secs(5), "worker never busy");
        std::thread::yield_now();
    }
    let _waiter = TcpStream::connect(addr).expect("waiter");
    while metrics.queue_depth.get() < 1 {
        assert!(t0.elapsed() < Duration::from_secs(5), "queue never filled");
        std::thread::yield_now();
    }

    // Every further connection is shed promptly with 503.
    for _ in 0..3 {
        let t = Instant::now();
        let resp = roundtrip(addr, "GET /v1/health HTTP/1.1\r\n\r\n");
        assert!(
            resp.starts_with("HTTP/1.1 503 Service Unavailable"),
            "{resp}"
        );
        assert!(t.elapsed() < Duration::from_secs(2), "shed was not prompt");
    }
    assert!(metrics.rejected.get() >= 3, "rejections uncounted");

    // The occupier still completes once it finishes its request.
    occupier.write_all(b" HTTP/1.1\r\n\r\n").expect("finish");
    let mut out = String::new();
    occupier.read_to_string(&mut out).expect("occupier recv");
    assert!(out.starts_with("HTTP/1.1 200"), "{out}");
    server.shutdown();
}

#[test]
fn stalled_body_is_cut_off_by_read_deadline() {
    let server = start(ServerConfig {
        read_timeout: Duration::from_millis(150),
        ..Default::default()
    });
    // Claim a 500-byte body, send 9 bytes, stall forever.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .write_all(b"POST /v1/transactions HTTP/1.1\r\ncontent-length: 500\r\n\r\n{\"records")
        .expect("send");
    let t0 = Instant::now();
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("recv");
    assert!(out.starts_with("HTTP/1.1 408 Request Timeout"), "{out}");
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "disconnect was not deadline-driven"
    );
    // The worker is free: the next request succeeds.
    let resp = roundtrip(server.addr(), "GET /v1/health HTTP/1.1\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    server.shutdown();
}

#[test]
fn content_length_longer_than_body_is_400() {
    let server = start(ServerConfig::default());
    // The client closes after sending too few bytes — the server must not
    // wait for the missing ones.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .write_all(b"POST /v1/scans HTTP/1.1\r\ncontent-length: 50\r\n\r\nshort")
        .expect("send");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("recv");
    assert!(out.starts_with("HTTP/1.1 400 Bad Request"), "{out}");
    server.shutdown();
}

#[test]
fn endless_headers_are_cut_off_with_431() {
    let server = start(ServerConfig::default());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(b"GET /v1/health HTTP/1.1\r\n").expect("send");
    stream
        .set_read_timeout(Some(Duration::from_millis(10)))
        .expect("probe timeout");
    let mut out = String::new();
    let t0 = Instant::now();
    loop {
        assert!(t0.elapsed() < Duration::from_secs(10), "server never cut us off");
        if stream
            .write_all(b"x-filler: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n")
            .is_err()
        {
            break; // server closed on us — read whatever it sent first
        }
        let mut probe = [0u8; 4096];
        match stream.read(&mut probe) {
            Ok(0) => break,
            Ok(n) => out.push_str(&String::from_utf8_lossy(&probe[..n])),
            Err(_) => continue,
        }
        if out.contains("\r\n\r\n") {
            break;
        }
    }
    assert!(out.starts_with("HTTP/1.1 431"), "{out}");
    server.shutdown();
}

#[test]
fn oversized_content_length_is_413_and_graceful_shutdown_serves_queued_work() {
    let server = start(ServerConfig::default());
    let addr = server.addr();
    let resp = roundtrip(
        addr,
        "POST /v1/transactions HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 413 Payload Too Large"), "{resp}");

    // The NDJSON bulk path sits behind the same body cap: declaring an
    // oversized streaming batch is refused before any line is parsed.
    let resp = roundtrip(
        addr,
        "POST /v1/transactions HTTP/1.1\r\ncontent-type: application/x-ndjson\r\n\
         content-length: 999999999\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 413 Payload Too Large"), "{resp}");

    // In-flight work completes across shutdown: send a request, wait just
    // until the server has it (queued, in a worker, or already counted),
    // then shut down — the response must still arrive.
    let metrics = std::sync::Arc::clone(server.metrics());
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /v1/health HTTP/1.1\r\n\r\n")
        .expect("send");
    let t0 = Instant::now();
    while metrics.queue_depth.get() == 0
        && metrics.workers_busy.get() == 0
        && metrics.requests.total_for_route("/v1/health") == 0
    {
        assert!(t0.elapsed() < Duration::from_secs(5), "request never picked up");
        std::thread::yield_now();
    }
    server.shutdown();
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("recv across shutdown");
    assert!(out.starts_with("HTTP/1.1 200"), "{out}");
}
