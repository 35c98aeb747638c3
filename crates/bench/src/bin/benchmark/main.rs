//! The repository benchmark: four workloads through the live HTTP
//! service, with a traced in-process replay for per-layer figures.
//!
//! ```text
//! benchmark --workload NAME|all --seed N [--seconds S] [--trace 0|1] [--out FILE] [--trace-dir DIR]
//! benchmark --compare BASE.jsonl NEW.jsonl
//! benchmark --smoke [--trace-dir DIR]
//! benchmark --pin FILE
//! benchmark --serve NAME --scan-interval N --min-transactions N   (the server process)
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics untraced,
//! the per-layer metrics with `--trace 1`. See `README.md`.

mod client;
mod compare;
mod replay;
mod stats;
mod sut;
mod trace;
mod workloads;

use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Inputs, Kind, ServeKnobs};

/// The seed whose input and output fingerprints are pinned.
const DEFAULT_SEED: u64 = 1;
/// Measured seconds when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 10.0;
/// The replay's layers plus the unattributed remainder must account for
/// the untraced phase wall within this share.
const ACCOUNTING_TOLERANCE: f64 = 0.02;
/// Pinned fingerprints for [`DEFAULT_SEED`] (re-pin with `--pin`).
const PINS: &str = include_str!("fingerprints.json");

/// One workload run's report.
struct Report {
    kind: Kind,
    seed: u64,
    trace: bool,
    metrics: Vec<(&'static str, f64, &'static str, usize)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    notes: Vec<String>,
    /// `(input bytes, input FNV-1a, output)` for pinning.
    fingerprint: (usize, u64, workloads::Output),
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result object, `extra` fields first; `metrics` maps each name
    /// to its value and unit, nothing else (the sample counts are in the
    /// human-readable lines).
    fn json(&self, extra: &[(&str, Value)]) -> Value {
        let mut metrics = serde_json::Map::new();
        for &(name, value, unit, _) in &self.metrics {
            metrics.insert(name.to_string(), json!({"value": value, "unit": unit}));
        }
        let mut out = serde_json::Map::new();
        for (k, v) in extra {
            out.insert(k.to_string(), v.clone());
        }
        out.insert("correct".into(), json!(self.correct()));
        out.insert("attempted".into(), json!(self.attempted));
        out.insert("failed".into(), json!(self.failed));
        out.insert("metrics".into(), Value::Object(metrics));
        Value::Object(out)
    }

    fn print(&self) {
        println!(
            "== {} seed {} ({}): {}",
            self.kind.name(),
            self.seed,
            if self.trace {
                "traced replay"
            } else {
                "untraced"
            },
            if self.correct() {
                "correct"
            } else {
                "INCORRECT"
            }
        );
        for &(name, value, unit, n) in &self.metrics {
            println!("  {name:<26} {value:>16.6} {unit:<10} n={n}");
        }
        for note in &self.notes {
            println!("  {note}");
        }
        for e in &self.errors {
            eprintln!("  FAILED: {e}");
        }
    }
}

fn hex(x: u64) -> String {
    format!("{x:016x}")
}

/// Checks the run against the pinned fingerprints of its workload.
fn check_pins(kind: Kind, fp: &(usize, u64, workloads::Output), ops: &mut workloads::Ops) {
    let pins: Value = serde_json::from_str(PINS).expect("fingerprints.json is JSON");
    let Some(pin) = pins["workloads"].get(kind.name()) else {
        ops.check(false, || {
            format!("no pinned fingerprint for {}", kind.name())
        });
        return;
    };
    let (bytes, fnv, out) = fp;
    let got = json!({
        "input_bytes": bytes,
        "input_fnv1a": hex(*fnv),
        "records": out.records,
        "users": out.users,
        "merchants": out.merchants,
        "edges": out.edges,
        "flagged": out.flagged,
        "flagged_fnv1a": hex(out.flagged_fnv1a),
    });
    for (key, want) in pin.as_object().into_iter().flat_map(|m| m.iter()) {
        let got = &got[key.as_str()];
        ops.check(got == want, || {
            format!("fingerprint {key}: got {got:?}, pinned {want:?}")
        });
    }
}

/// Compares the replay's flagged sets with the service's.
fn check_replay(
    kind: Kind,
    rec: &replay::Recording,
    service: &[workloads::Flagged],
    ops: &mut workloads::Ops,
) {
    let Some(want) = service.last() else { return };
    for (i, got) in rec.flagged.iter().enumerate() {
        ops.check(got == want, || {
            format!(
                "{}: replay scan {i} flagged {}/{} accounts, the service {}/{}",
                kind.name(),
                got.vote.len(),
                got.hybrid.len(),
                want.vote.len(),
                want.hybrid.len()
            )
        });
    }
}

/// How to run a workload.
#[derive(Clone, Copy, Debug)]
struct Plan {
    seed: u64,
    seconds: f64,
    /// Replay with tracing after the untraced run.
    trace: bool,
    /// Tiny inputs and an in-process server.
    smoke: bool,
    /// Compare against the pinned fingerprints.
    check_pins: bool,
}

/// Runs one workload: untraced, and with `trace` the replay after it.
fn run(kind: Kind, plan: Plan, trace_dir: &Path) -> Report {
    let Plan {
        seed,
        seconds,
        trace,
        smoke,
        check_pins: pinned,
    } = plan;
    let started = Instant::now();
    let inputs = Inputs::generate(kind, seed, smoke);
    let generate_s = started.elapsed().as_secs_f64();
    // A traced run reports no set-up time, so it sets up once.
    let setups = if trace { 1 } else { workloads::SETUP_REPS };
    let mut u = workloads::run_untraced(kind, &inputs, generate_s, setups, seconds, smoke);
    let (bytes, fnv) = inputs.fingerprint();
    let fingerprint = (bytes, fnv, u.output.clone());
    if pinned {
        check_pins(kind, &fingerprint, &mut u.ops);
    }
    let mut notes = u.notes();
    let metrics = if trace {
        match replay::replay(kind, &inputs, &u, smoke) {
            Ok(rec) => {
                check_replay(kind, &rec, &u.flagged, &mut u.ops);
                let phase = replay::account(&rec, &u.units);
                // At smoke sizes fixed per-call costs swamp the layers.
                if !smoke {
                    u.ops.check(phase.miss() <= ACCOUNTING_TOLERANCE, || {
                        format!(
                            "layers account for the phase wall within {:.2}%, not 2%",
                            phase.miss() * 100.0
                        )
                    });
                }
                let path = trace_dir.join(format!("trace-{}-seed{seed}.json", kind.name()));
                let written = std::fs::create_dir_all(trace_dir).and_then(|()| {
                    std::fs::write(&path, replay::trace_json(&rec, &phase).to_string())
                });
                u.ops.check(written.is_ok(), || {
                    format!("writing {}: {written:?}", path.display())
                });
                notes.push(format!(
                    "trace {} ({} phase units replayed, {} accounted)",
                    path.display(),
                    rec.windows.len(),
                    phase.units
                ));
                replay::layer_metrics(&rec, &u, &phase)
                    .into_iter()
                    .map(|(n, v, unit)| (n, v, unit, rec.windows.len()))
                    .collect()
            }
            Err(e) => {
                u.ops.check(false, || e);
                Vec::new()
            }
        }
    } else {
        u.metrics()
    };
    Report {
        kind,
        seed,
        trace,
        metrics,
        attempted: u.ops.attempted,
        failed: u.ops.failed,
        errors: std::mem::take(&mut u.ops.errors),
        notes,
        fingerprint,
    }
}

/// All four workloads at tiny sizes, untraced then replayed.
fn smoke(trace_dir: &Path) -> Result<Vec<Report>, String> {
    let mut failures = Vec::new();
    let mut reports = Vec::new();
    for kind in Kind::ALL {
        let plan = Plan {
            seed: DEFAULT_SEED,
            seconds: 0.5,
            trace: true,
            smoke: true,
            check_pins: false,
        };
        let r = run(kind, plan, trace_dir);
        r.print();
        if !r.correct() {
            failures.push(format!("{}: {}", kind.name(), r.errors.join("; ")));
        }
        reports.push(r);
    }
    if failures.is_empty() {
        Ok(reports)
    } else {
        Err(failures.join("\n"))
    }
}

/// Command-line options.
#[derive(Debug)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    trace_dir: PathBuf,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        trace_dir: PathBuf::from("target/benchmark"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--trace-dir" => o.trace_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(o)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload NAME|all --seed N [--seconds S] [--trace 0|1] [--out FILE] [--trace-dir DIR]\n\
         \x20      benchmark --compare BASE NEW | --smoke [--trace-dir DIR] | --pin FILE\n\
         workloads: {}",
        Kind::ALL.map(Kind::name).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--serve") => serve_main(&args[1..]),
        Some("--compare") => compare_main(&args[1..]),
        Some("--smoke") => {
            let dir = match parse_options(&args[1..]) {
                Ok(o) => o.trace_dir,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            };
            match smoke(&dir) {
                Ok(_) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("smoke failed:\n{e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("--pin") => match args.get(1) {
            Some(path) => pin_main(Path::new(path)),
            None => usage(),
        },
        _ => bench_main(&args),
    }
}

fn serve_main(args: &[String]) -> ExitCode {
    let (Some(kind), Some(knobs)) = (
        args.first().and_then(|n| Kind::from_name(n)),
        serve_knobs(&args[1..]),
    ) else {
        return usage();
    };
    match sut::serve_child(kind, knobs) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn serve_knobs(args: &[String]) -> Option<ServeKnobs> {
    match args {
        [a, interval, b, min] if a == "--scan-interval" && b == "--min-transactions" => {
            Some(ServeKnobs {
                scan_interval: interval.parse().ok()?,
                min_transactions: min.parse().ok()?,
            })
        }
        _ => None,
    }
}

fn compare_main(args: &[String]) -> ExitCode {
    let [base, new] = args else { return usage() };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let result = (|| -> Result<bool, String> {
        let benchmark: Value = serde_json::from_str(&read(&"BENCHMARK.json".to_string())?)
            .map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let base = compare::parse_runs(&read(base)?)?;
        let new = compare::parse_runs(&read(new)?)?;
        let (rows, notes, failed) = compare::compare(&base, &new, &compare::bounds(&benchmark));
        print!("{}", compare::render(&rows));
        for n in notes {
            println!("{n}");
        }
        Ok(failed)
    })();
    match result {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn pin_main(path: &Path) -> ExitCode {
    let mut pins = serde_json::Map::new();
    for kind in Kind::ALL {
        let plan = Plan {
            seed: DEFAULT_SEED,
            seconds: 1.0,
            trace: false,
            smoke: false,
            check_pins: false,
        };
        let r = run(kind, plan, Path::new("target/benchmark"));
        r.print();
        let (bytes, fnv, out) = &r.fingerprint;
        if !r.errors.is_empty() {
            eprintln!("not pinning: {} failed", kind.name());
            return ExitCode::FAILURE;
        }
        pins.insert(
            kind.name().into(),
            json!({
                "input_bytes": bytes,
                "input_fnv1a": hex(*fnv),
                "records": out.records,
                "users": out.users,
                "merchants": out.merchants,
                "edges": out.edges,
                "flagged": out.flagged,
                "flagged_fnv1a": hex(out.flagged_fnv1a),
            }),
        );
    }
    let doc = json!({"seed": DEFAULT_SEED, "workloads": Value::Object(pins)});
    match std::fs::write(
        path,
        format!("{}\n", serde_json::to_string_pretty(&doc).expect("JSON")),
    ) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

fn bench_main(args: &[String]) -> ExitCode {
    let o = match parse_options(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    let kinds: Vec<Kind> = match o.workload.as_deref() {
        Some("all") => Kind::ALL.to_vec(),
        Some(name) => match Kind::from_name(name) {
            Some(k) => vec![k],
            None => return usage(),
        },
        None => return usage(),
    };
    let mut reports = Vec::new();
    for kind in kinds {
        let plan = Plan {
            seed: o.seed,
            seconds: o.seconds,
            trace: o.trace,
            smoke: false,
            check_pins: o.seed == DEFAULT_SEED,
        };
        let r = run(kind, plan, &o.trace_dir);
        r.print();
        if let Some(out) = &o.out {
            let line = r.json(&[
                ("workload", json!(kind.name())),
                ("seed", json!(o.seed)),
                ("trace", json!(o.trace)),
            ]);
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(out)
                .and_then(|mut f| {
                    std::io::Write::write_all(&mut f, format!("{line}\n").as_bytes())
                });
            if let Err(e) = appended {
                eprintln!("{}: {e}", out.display());
                return ExitCode::FAILURE;
            }
        }
        reports.push(r);
    }
    let last = if let [only] = reports.as_slice() {
        only.json(&[])
    } else {
        // `all`: one object, metric names prefixed by their workload.
        let mut metrics = serde_json::Map::new();
        for r in &reports {
            for &(name, value, unit, _) in &r.metrics {
                metrics.insert(
                    format!("{}/{name}", r.kind.name()),
                    json!({"value": value, "unit": unit}),
                );
            }
        }
        json!({
            "correct": reports.iter().all(Report::correct),
            "attempted": reports.iter().map(|r| r.attempted).sum::<u64>(),
            "failed": reports.iter().map(|r| r.failed).sum::<u64>(),
            "metrics": Value::Object(metrics),
        })
    };
    let correct = last["correct"] == true;
    println!("{last}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A directory no other test (or run) shares.
    fn test_dir(name: &str) -> PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        std::env::temp_dir().join(format!(
            "ensemfdet-benchmark-{name}-{}-{nanos}",
            std::process::id()
        ))
    }

    #[test]
    fn smoke_runs_every_workload_and_the_trace() {
        let dir = test_dir("smoke");
        let started = Instant::now();
        let result = smoke(&dir);
        let traces = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
        let _ = std::fs::remove_dir_all(&dir);
        let reports = result.unwrap();
        assert_eq!(traces, Kind::ALL.len(), "one trace file per workload");
        assert!(
            started.elapsed().as_secs() < 20,
            "smoke took {:?}",
            started.elapsed()
        );

        // Every run prints exactly the metrics BENCHMARK.json declares.
        let declared = |section: &str| -> Vec<String> {
            let doc: Value =
                serde_json::from_str(include_str!("../../../../../BENCHMARK.json")).unwrap();
            doc[section]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| m["name"].as_str().unwrap().to_string())
                .collect()
        };
        let names =
            |r: &Report| -> Vec<String> { r.metrics.iter().map(|m| m.0.to_string()).collect() };
        for r in &reports {
            assert_eq!(names(r), declared("per_layer"), "{}", r.kind.name());
        }
        let plan = Plan {
            seed: DEFAULT_SEED,
            seconds: 0.2,
            trace: false,
            smoke: true,
            check_pins: false,
        };
        let untraced = run(Kind::Table1E2e, plan, &dir);
        assert!(untraced.correct(), "{:?}", untraced.errors);
        assert_eq!(names(&untraced), declared("end_to_end"));

        // The result line: exactly these keys, and each metric exactly its
        // value and unit.
        for r in reports.iter().chain([&untraced]) {
            let line = r.json(&[]);
            let keys = |v: &Value| -> Vec<String> {
                let mut k: Vec<String> =
                    v.as_object().unwrap().iter().map(|e| e.0.clone()).collect();
                k.sort();
                k
            };
            assert_eq!(keys(&line), ["attempted", "correct", "failed", "metrics"]);
            for (_, m) in line["metrics"].as_object().unwrap().iter() {
                assert_eq!(keys(m), ["unit", "value"], "{}", r.kind.name());
            }
        }
    }

    #[test]
    fn options_parse_the_benchmark_json_form() {
        let args: Vec<String> = "--workload scan_repeat --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let o = parse_options(&args).unwrap();
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.trace),
            (Some("scan_repeat"), 7, 10.0, true)
        );
        assert!(parse_options(&["--trace".into(), "yes".into()]).is_err());
        assert!(parse_options(&["--bogus".into()]).is_err());
    }
}
