//! `ensemfdet ingest` — bulk-load a delimited transaction log.
//!
//! The log format is one `user,merchant[,amount]` record per line (blank
//! lines and `#` comments skipped). Three sinks:
//!
//! * default: load the file into a weighted bipartite graph and report
//!   its shape — a dry run that validates the log;
//! * `--url`: validate the whole log, then post it to a running service's
//!   `POST /v1/transactions` as `text/csv`, in line-aligned bodies within
//!   the service's request-body limit;
//! * `--detect`: run the ensemble directly on the amount-weighted graph
//!   and print (or `--out`-write) the flagged account keys.
//!
//! Parsing is chunk-parallel (`--workers`, `0` = one per core), but
//! assigned ids, edge weights, and every detection result are
//! bit-identical for every worker count — the knob is wall-clock only.

use crate::args::Args;
use crate::cmd_detect::{ensemfdet_config, timing_summary};
use ensemfdet::ensemble::effective_workers;
use ensemfdet::EnsemFdet;
use ensemfdet_graph::loader::{load_transactions_path, scan_records, LoadOptions};
use ensemfdet_service::http::MAX_BODY;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const HELP: &str = "\
ensemfdet ingest — bulk-load a `user,merchant[,amount]` transaction log

OPTIONS:
    --file FILE           the delimited transaction log (required)
    --delimiter C         field delimiter, a single character or `tab`
                          [default: ,]
    --workers N           worker threads for chunked parsing (and the
                          detection pool under --detect); ids, weights and
                          results are identical for every N
                          [default: 0 = auto]
    --timing              print load duration, records/sec, the resolved
                          worker count, arena bytes
  sinks (default: load only, report the graph shape):
    --url URL             POST the log as text/csv to a running service,
                          e.g. http://127.0.0.1:7878, in bodies of at most
                          1 MiB; a malformed log posts nothing
    --detect              run the ensemble on the amount-weighted graph
  with --detect:
    --out FILE            write flagged account keys, one per line
    --samples N           ensemble size [default: 80]
    --ratio S             sample ratio [default: 0.1]
    --threshold T         vote threshold [default: N/2]
    --seed N              RNG seed [default: 42]
";

/// Minimal raw-socket HTTP POST; returns `(status, body)`.
///
/// The service speaks plain HTTP/1.1 with `connection: close` semantics,
/// so a blocking read-to-end after the request is the whole protocol —
/// the same roundtrip the bench suite's service smoke test uses.
fn http_post_csv(url: &str, body: &[u8]) -> Result<(u16, String), String> {
    let rest = url.strip_prefix("http://").unwrap_or(url);
    let (host, mut path) = match rest.find('/') {
        Some(i) => rest.split_at(i),
        None => (rest, "/v1/transactions"),
    };
    if path.is_empty() || path == "/" {
        path = "/v1/transactions";
    }
    let mut stream =
        TcpStream::connect(host).map_err(|e| format!("cannot connect to {host}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("socket timeout: {e}"))?;
    let head = format!(
        "POST {path} HTTP/1.1\r\nhost: {host}\r\ncontent-type: text/csv\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| format!("cannot send to {host}: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("cannot read response from {host}: {e}"))?;
    let status: u16 = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|s| s.get(..3))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed response from {host}: {raw}"))?;
    let payload = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.trim().to_string())
        .unwrap_or_default();
    Ok((status, payload))
}

/// Splits `data` into line-aligned bodies of at most `limit` bytes (one
/// empty body for empty data). Errs with the 1-based number of a line
/// that does not fit in one body.
fn line_aligned_bodies(data: &[u8], limit: usize) -> Result<Vec<&[u8]>, usize> {
    let mut bodies = Vec::new();
    let mut rest = data;
    let mut line = 1;
    loop {
        let cut = if rest.len() <= limit {
            rest.len()
        } else {
            rest[..limit]
                .iter()
                .rposition(|&b| b == b'\n')
                .map(|i| i + 1)
                .ok_or(line)?
        };
        let (body, tail) = rest.split_at(cut);
        bodies.push(body);
        line += body.iter().filter(|&&b| b == b'\n').count();
        rest = tail;
        if rest.is_empty() {
            return Ok(bodies);
        }
    }
}

fn parse_delimiter(raw: Option<String>) -> Result<char, String> {
    match raw.as_deref() {
        None => Ok(','),
        Some("tab") | Some("\\t") => Ok('\t'),
        Some(s) => {
            let mut chars = s.chars();
            match (chars.next(), chars.next()) {
                (Some(c), None) => Ok(c),
                _ => Err(format!("option --delimiter: `{s}` is not a single character")),
            }
        }
    }
}

/// Runs the command.
pub fn run(args: &Args) -> Result<String, String> {
    if args.flag("help") {
        return Ok(HELP.to_string());
    }
    let file = args.require("file")?;
    let delimiter = parse_delimiter(args.get("delimiter"))?;
    let workers = effective_workers(args.get_or("workers", 0)?);
    let timing = args.flag("timing");
    let url = args.get("url");
    let detect = args.flag("detect");
    if url.is_some() && detect {
        return Err("--url and --detect are mutually exclusive sinks".to_string());
    }

    if let Some(url) = url {
        // The service's text/csv parser is comma-delimited.
        if delimiter != ',' {
            return Err("--url ingestion only supports the default `,` delimiter".to_string());
        }
        args.finish()?;
        let data = std::fs::read(&file).map_err(|e| format!("cannot read {file}: {e}"))?;
        // Validate the whole log before the first post, so a malformed
        // line ingests nothing.
        scan_records(&data, ',', workers, |_, _, _| ())
            .map_err(|e| format!("cannot load {file}: {e}"))?;
        let bodies = line_aligned_bodies(&data, MAX_BODY).map_err(|line| {
            format!("{file}: line {line} is longer than the service's {MAX_BODY}-byte body limit")
        })?;
        let started = Instant::now();
        let (mut ingested, mut transactions) = (0, 0);
        for body in &bodies {
            let (status, payload) = http_post_csv(&url, body)?;
            if status != 200 {
                return Err(format!("service rejected the log ({status}): {payload}"));
            }
            let reply: serde_json::Value = serde_json::from_str(&payload).unwrap_or_default();
            let count = |key: &str| {
                reply[key]
                    .as_u64()
                    .ok_or_else(|| format!("malformed reply from the service: {payload}"))
            };
            ingested += count("ingested")?;
            transactions = count("transactions")?;
        }
        let summary = serde_json::json!({ "ingested": ingested, "transactions": transactions });
        let mut report = format!("service accepted {file}: {summary}");
        if timing {
            report.push_str(&format!(
                "\ningest: {:.1} ms round-trip, {} bytes posted in {} bodies",
                started.elapsed().as_secs_f64() * 1e3,
                data.len(),
                bodies.len()
            ));
        }
        return Ok(report);
    }

    let options = LoadOptions { delimiter, workers };
    let started = Instant::now();
    let loaded =
        load_transactions_path(&file, &options).map_err(|e| format!("cannot load {file}: {e}"))?;
    let load_elapsed = started.elapsed();

    let mut report = format!(
        "loaded {}: {} records on {} lines → {} users × {} merchants, {} weighted edges",
        file,
        loaded.records,
        loaded.lines,
        loaded.graph.num_users(),
        loaded.graph.num_merchants(),
        loaded.graph.num_edges(),
    );
    if timing {
        let secs = load_elapsed.as_secs_f64();
        report.push_str(&format!(
            "\nload: {:.1} ms ({:.0} records/sec, {} workers, {} arena bytes)",
            secs * 1e3,
            loaded.records as f64 / secs.max(1e-9),
            workers,
            loaded.interner.arena_bytes(),
        ));
    }

    if detect {
        let cfg = ensemfdet_config(args)?;
        let threshold: u32 = args.get_or("threshold", (cfg.num_samples as u32).div_ceil(2))?;
        let out_path = args.get("out");
        args.finish()?;
        let outcome = EnsemFdet::with_workers(cfg, workers).detect(&loaded.graph);
        let detected = outcome.votes.detected_users(threshold.max(1));
        let keys = loaded.interner.user_keys_of(&detected);
        report.push_str(&format!(
            "\nensemfdet: detected {} of {} accounts",
            keys.len(),
            loaded.graph.num_users()
        ));
        if timing {
            report.push('\n');
            report.push_str(&timing_summary(&outcome));
        }
        if let Some(p) = &out_path {
            let text: String = keys.iter().map(|k| format!("{k}\n")).collect();
            std::fs::write(p, text).map_err(|e| format!("cannot write {p}: {e}"))?;
            report.push_str(&format!("\nflagged accounts written to {p}"));
        } else if !keys.is_empty() {
            report.push_str(&format!("\nflagged: {}", keys.join(", ")));
        }
    } else {
        args.finish()?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Args {
        Args::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    fn log_file(test: &str, name: &str, content: &str) -> String {
        let dir = crate::test_dir(test);
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        path.to_str().unwrap().to_string()
    }

    /// A dense 8×8 ring on top of sparse background traffic.
    fn ring_log(test: &str) -> String {
        let mut s = String::from("# synthetic ring\n");
        for b in 0..8 {
            for m in 0..8 {
                s.push_str(&format!("bot-{b},ring-{m},9.99\n"));
            }
        }
        for p in 0..80 {
            s.push_str(&format!("pin-{p},store-{},3.50\n", p % 40));
        }
        log_file(test, "ring.csv", &s)
    }

    #[test]
    fn dry_run_reports_graph_shape() {
        let f = log_file(
            "ingest_dry_run_reports_graph_shape",
            "shape.csv",
            "a,x,2\na,x,3\nb,y\n",
        );
        let out = run(&args(&["--file", &f, "--timing", "--workers", "0"])).unwrap();
        assert!(out.contains("3 records"), "{out}");
        assert!(out.contains("2 users × 2 merchants, 2 weighted edges"), "{out}");
        assert!(out.contains("records/sec"), "{out}");
        assert!(out.contains("arena bytes"), "{out}");
        // `0` means one worker per core, and the report names the count.
        let resolved = format!("records/sec, {} workers,", effective_workers(0));
        assert!(out.contains(&resolved), "{out}");
    }

    #[test]
    fn tab_delimiter_is_supported() {
        let f = log_file(
            "ingest_tab_delimiter_is_supported",
            "tabs.tsv",
            "a\tx\t2\nb\ty\n",
        );
        let out = run(&args(&["--file", &f, "--delimiter", "tab"])).unwrap();
        assert!(out.contains("2 records"), "{out}");
        let err = run(&args(&["--file", &f, "--delimiter", "ab"])).unwrap_err();
        assert!(err.contains("single character"), "{err}");
    }

    #[test]
    fn malformed_log_reports_its_line() {
        let f = log_file(
            "ingest_malformed_log_reports_its_line",
            "bad.csv",
            "a,x\nnot-a-record\n",
        );
        let err = run(&args(&["--file", &f])).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn detect_flags_the_ring_and_is_worker_invariant() {
        let f = ring_log("ingest_detect_flags_the_ring_and_is_worker_invariant");
        let base = &[
            "--file", f.as_str(), "--detect", "--samples", "12", "--ratio", "0.6",
            "--threshold", "10", "--seed", "7",
        ];
        let one = run(&args(&[base as &[_], &["--workers", "1"]].concat())).unwrap();
        let four = run(&args(&[base as &[_], &["--workers", "4"]].concat())).unwrap();
        assert!(one.contains("bot-"), "{one}");
        assert!(!one.contains("pin-"), "{one}");
        assert_eq!(one, four, "worker count changed the flagged accounts");
    }

    #[test]
    fn refund_line_is_refused_not_peeled() {
        // A negative amount would collide with the peel's removed-node
        // sentinel and flag honest accounts; the loader refuses it.
        let f = ring_log("ingest_refund_line_is_refused_not_peeled");
        let mut log = std::fs::read_to_string(&f).unwrap();
        log.push_str("pin-0,store-0,-50.0\n");
        std::fs::write(&f, log).unwrap();
        let err = run(&args(&[
            "--file", &f, "--detect", "--samples", "12", "--ratio", "0.6",
            "--threshold", "10", "--seed", "7",
        ]))
        .unwrap_err();
        assert!(err.contains("line 146"), "{err}");
        assert!(err.contains("negative"), "{err}");
    }

    #[test]
    fn detect_out_writes_account_keys() {
        let f = ring_log("ingest_detect_out_writes_account_keys");
        let dir = crate::test_dir("ingest_detect_out_writes_account_keys");
        let out_file = dir.join("flagged.txt");
        run(&args(&[
            "--file", &f, "--detect", "--samples", "12", "--ratio", "0.6",
            "--threshold", "10", "--seed", "7", "--out", out_file.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&out_file).unwrap();
        assert!(text.lines().all(|l| l.starts_with("bot-")), "{text}");
        assert_eq!(text.lines().count(), 8, "{text}");
    }

    #[test]
    fn url_and_detect_are_exclusive() {
        let f = ring_log("ingest_url_and_detect_are_exclusive");
        let err = run(&args(&["--file", &f, "--detect", "--url", "http://x"])).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn bodies_are_line_aligned_and_within_the_limit() {
        let data = b"a,x\nbb,y\ncc,z";
        assert_eq!(
            line_aligned_bodies(data, 8).unwrap(),
            [&b"a,x\n"[..], b"bb,y\n", b"cc,z"]
        );
        assert_eq!(line_aligned_bodies(data, 100).unwrap(), [&data[..]]);
        assert_eq!(line_aligned_bodies(b"", 8).unwrap(), [&b""[..]]);
        // Line 2 needs five bytes.
        assert_eq!(line_aligned_bodies(data, 4), Err(2));
    }

    #[test]
    fn url_sink_posts_csv_to_a_live_service() {
        use ensemfdet::{EnsemFdetConfig, MonitorConfig};
        use ensemfdet_service::{Api, ApiConfig, Server};

        let api = Api::new(ApiConfig {
            monitor: MonitorConfig {
                detector: EnsemFdetConfig::default(),
                scan_interval: 1_000_000,
                alert_threshold: 10,
                min_transactions: 0,
            },
            ..Default::default()
        });
        let server = Server::bind("127.0.0.1:0", api).unwrap().start().unwrap();
        let addr = server.addr();
        let url = format!("http://{addr}");
        let health_transactions = || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all(b"GET /v1/health HTTP/1.1\r\nconnection: close\r\n\r\n")
                .unwrap();
            let mut raw = String::new();
            stream.read_to_string(&mut raw).unwrap();
            let body: serde_json::Value =
                serde_json::from_str(raw.split_once("\r\n\r\n").unwrap().1).unwrap();
            body["transactions"].as_u64().unwrap()
        };

        // A log over the service's body limit goes in line-aligned bodies.
        let records = 60_000;
        let log: String = (0..records)
            .map(|i| format!("user-{i},shop-{},2.50\n", i % 500))
            .collect();
        assert!(log.len() > MAX_BODY);
        let f = log_file("ingest_url_sink_posts_csv_to_a_live_service", "big.csv", &log);
        let out = run(&args(&["--file", &f, "--url", &url, "--timing"])).unwrap();
        assert!(out.contains("service accepted"), "{out}");
        assert!(out.contains(&format!("\"ingested\":{records}")), "{out}");
        assert!(out.contains("round-trip"), "{out}");
        assert_eq!(health_transactions(), records);

        // A malformed log is refused with its line number and ingests
        // nothing.
        let bad = log_file(
            "ingest_url_sink_posts_csv_to_a_live_service",
            "bad_url.csv",
            "a,x\noops\n",
        );
        let err = run(&args(&["--file", &bad, "--url", &url])).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert_eq!(health_transactions(), records);
        server.shutdown();
    }
}
