//! `ensemfdet-serve` — run the live-monitoring HTTP service.
//!
//! ```text
//! ensemfdet-serve [--follow] [ADDR] [N] [S] [T] [SCAN_INTERVAL] [MIN_TRANSACTIONS] [WORKERS] [QUEUE] [INGEST_WORKERS]
//! # defaults:                 127.0.0.1:7878  20  0.2  10  5000  2000  8  8  0
//! ```
//!
//! `QUEUE` is the scan-job queue capacity (`429 queue_full` beyond it).
//! `INGEST_WORKERS` is the thread count for chunked `text/csv` bulk-ingest
//! parsing (`0` = auto); purely a wall-clock knob — assigned ids and all
//! downstream results are identical for every value.
//! `--follow` turns on follow mode: scans default to the incremental
//! dirty-sample-reuse path and `GET /v1/follow` reports the monitoring
//! state (see `docs/MONITORING.md`). The full HTTP contract lives in
//! `docs/API.md`.

use ensemfdet::{EnsemFdetConfig, MonitorConfig};
use ensemfdet_service::{Api, ApiConfig, Server, ServerConfig};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let follow = args.iter().any(|a| a == "--follow");
    args.retain(|a| a != "--follow");
    let addr = args.first().cloned().unwrap_or_else(|| "127.0.0.1:7878".into());
    let parse = |i: usize, default: f64| -> f64 {
        args.get(i).and_then(|s| s.parse().ok()).unwrap_or(default)
    };
    let config = ApiConfig {
        monitor: MonitorConfig {
            detector: EnsemFdetConfig {
                num_samples: parse(1, 20.0) as usize,
                sample_ratio: parse(2, 0.2),
                ..Default::default()
            },
            alert_threshold: parse(3, 10.0) as u32,
            scan_interval: parse(4, 5_000.0) as usize,
            min_transactions: parse(5, 2_000.0) as usize,
        },
        scan_queue_capacity: (parse(7, 8.0) as usize).max(1),
        ingest_workers: parse(8, 0.0) as usize,
        follow,
        ..Default::default()
    };
    let server_config = ServerConfig {
        workers: (parse(6, 8.0) as usize).max(1),
        ..Default::default()
    };

    let server = Server::bind_with(&addr, Api::new(config), server_config).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(2);
    });
    println!(
        "ensemfdet-serve listening on http://{} ({} workers)",
        server.local_addr().expect("bound address"),
        server_config.workers
    );
    println!("endpoints (v1): GET /v1/health, GET /v1/stats, GET /v1/config, GET /metrics,");
    println!("  POST /v1/transactions, POST /v1/scans, GET /v1/scans/{{id}}, GET /v1/scans/latest,");
    println!("  GET /v1/follow");
    if follow {
        println!("follow mode: scans default to incremental dirty-sample reuse");
    }
    if let Err(e) = server.run() {
        eprintln!("server error: {e}");
        std::process::exit(1);
    }
}
