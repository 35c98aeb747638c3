//! `ensemfdet-serve` — run the live-monitoring HTTP service. `--help`
//! prints [`USAGE`]; a value that does not parse, or that the service
//! cannot run with, exits with status 2 before binding. The full HTTP
//! contract lives in `docs/API.md`.

use ensemfdet::{EnsemFdetConfig, MonitorConfig};
use ensemfdet_service::{Api, ApiConfig, Server, ServerConfig};
use std::ops::Bound::{Excluded, Included};
use std::ops::RangeBounds;
use std::str::FromStr;

/// The command line, as `--help` prints it.
const USAGE: &str = "\
usage: ensemfdet-serve [--follow] [ADDR] [N] [S] [T] [SCAN_INTERVAL] [MIN_TRANSACTIONS] \
[WORKERS] [QUEUE] [INGEST_WORKERS]
defaults:  127.0.0.1:7878  20  0.2  10  5000  2000  8  8  0

Scans draw N >= 1 samples of ratio S in (0, 1] and flag accounts with T >= 1 votes; one runs
every SCAN_INTERVAL >= 1 transactions once MIN_TRANSACTIONS have arrived. WORKERS threads
serve HTTP, QUEUE scan jobs may wait (429 queue_full beyond); 0 counts as 1 for both.
INGEST_WORKERS threads parse text/csv ingest (0 = auto). --follow makes scans default to
incremental dirty-sample reuse (docs/MONITORING.md).
";

/// Positional argument `i`, called `name`, as a `T` in `range`, or
/// `default` when it is absent.
fn position<T: FromStr + PartialOrd>(
    args: &[String],
    i: usize,
    name: &str,
    default: T,
    range: impl RangeBounds<T>,
) -> Result<T, String> {
    let Some(arg) = args.get(i) else {
        return Ok(default);
    };
    let value = arg.parse().ok().filter(|v| range.contains(v));
    value.ok_or_else(|| format!("invalid {name} `{arg}`"))
}

/// The bind address and the service and server settings the command line
/// asks for.
fn parse_args(mut args: Vec<String>) -> Result<(String, ApiConfig, ServerConfig), String> {
    let follow = args.iter().any(|a| a == "--follow");
    args.retain(|a| a != "--follow");
    // ADDR and eight numbers at most.
    if let Some(extra) = args.get(9) {
        return Err(format!("unexpected argument `{extra}`"));
    }
    let addr = args.first().map_or("127.0.0.1:7878", |a| a).to_string();
    let config = ApiConfig {
        monitor: MonitorConfig {
            detector: EnsemFdetConfig {
                num_samples: position(&args, 1, "N", 20, 1..)?,
                sample_ratio: position(&args, 2, "S", 0.2, (Excluded(0.0), Included(1.0)))?,
                ..Default::default()
            },
            alert_threshold: position(&args, 3, "T", 10, 1..)?,
            scan_interval: position(&args, 4, "SCAN_INTERVAL", 5_000, 1..)?,
            min_transactions: position(&args, 5, "MIN_TRANSACTIONS", 2_000, ..)?,
        },
        scan_queue_capacity: position(&args, 7, "QUEUE", 8, ..)?.max(1),
        ingest_workers: position(&args, 8, "INGEST_WORKERS", 0, ..)?,
        follow,
        ..Default::default()
    };
    let server_config = ServerConfig {
        workers: position(&args, 6, "WORKERS", 8, ..)?.max(1),
        ..Default::default()
    };
    Ok((addr, config, server_config))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }
    let (addr, config, server_config) = parse_args(args).unwrap_or_else(|e| {
        eprintln!("ensemfdet-serve: {e}\n\n{USAGE}");
        std::process::exit(2);
    });
    let follow = config.follow;

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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(String, ApiConfig, ServerConfig), String> {
        parse_args(args.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn no_arguments_take_the_documented_defaults() {
        let (addr, config, server) = parse(&[]).unwrap();
        assert_eq!(addr, "127.0.0.1:7878");
        let m = &config.monitor;
        assert_eq!(m.detector.num_samples, 20);
        assert_eq!(m.detector.sample_ratio, 0.2);
        assert_eq!(m.alert_threshold, 10);
        assert_eq!(m.scan_interval, 5_000);
        assert_eq!(m.min_transactions, 2_000);
        assert_eq!(server.workers, 8);
        assert_eq!(config.scan_queue_capacity, 8);
        assert_eq!(config.ingest_workers, 0);
        assert!(!config.follow);
    }

    #[test]
    fn every_position_is_read_and_follow_goes_anywhere() {
        let args = ["0.0.0.0:9", "6", "0.3", "2", "100", "4", "3", "5", "2", "--follow"];
        let (addr, config, server) = parse(&args).unwrap();
        assert_eq!(addr, "0.0.0.0:9");
        let m = &config.monitor;
        assert_eq!(m.detector.num_samples, 6);
        assert_eq!(m.detector.sample_ratio, 0.3);
        assert_eq!(m.alert_threshold, 2);
        assert_eq!(m.scan_interval, 100);
        assert_eq!(m.min_transactions, 4);
        assert_eq!(server.workers, 3);
        assert_eq!(config.scan_queue_capacity, 5);
        assert_eq!(config.ingest_workers, 2);
        assert!(config.follow);
        assert!(parse(&["--follow", "127.0.0.1:0", "6"]).unwrap().1.follow);
    }

    #[test]
    fn zero_workers_and_queue_run_one() {
        let (_, config, server) = parse(&["127.0.0.1:0", "20", "0.2", "10", "5000", "0", "0", "0"])
            .unwrap();
        assert_eq!(server.workers, 1);
        assert_eq!(config.scan_queue_capacity, 1);
        assert_eq!(config.monitor.min_transactions, 0);
    }

    #[test]
    fn bad_values_are_refused_naming_the_argument() {
        for (args, name) in [
            (&["a", "abc"][..], "N"),
            (&["a", "0"], "N"),
            (&["a", "2.5"], "N"),
            (&["a", "-3"], "N"),
            (&["a", "20", "1.5"], "S"),
            (&["a", "20", "0"], "S"),
            (&["a", "20", "nan"], "S"),
            (&["a", "20", "0.2", "0"], "T"),
            (&["a", "20", "0.2", "10", "0"], "SCAN_INTERVAL"),
            (&["a", "20", "0.2", "10", "5000", "many"], "MIN_TRANSACTIONS"),
            (&["a", "20", "0.2", "10", "5000", "2000", "-1"], "WORKERS"),
            (&["a", "20", "0.2", "10", "5000", "2000", "8", "x"], "QUEUE"),
            (&["a", "20", "0.2", "10", "5000", "2000", "8", "8", "1e3"], "INGEST_WORKERS"),
        ] {
            let err = parse(args).unwrap_err();
            assert_eq!(err, format!("invalid {name} `{}`", args.last().unwrap()), "{args:?}");
        }
        let err = parse(&["a", "20", "0.2", "10", "5000", "2000", "8", "8", "0", "9"]).unwrap_err();
        assert!(err.contains("unexpected argument `9`"), "{err}");
    }
}
