//! `--compare BASE NEW`: medians of two sets of runs side by side, judged
//! against the bounds in `BENCHMARK.json`.
//!
//! Each file holds one JSON object per line, as `--out` appends them.
//! Runs are grouped by workload; a metric's figure is the median over a
//! file's runs, and its spread is the interquartile distance over the
//! median, as for the benchmark's own acceptance.

use crate::stats::{median, relative_spread};
use serde_json::Value;
use std::collections::BTreeMap;

/// A metric's bound and direction from `BENCHMARK.json`.
#[derive(Clone, Copy, Debug)]
pub struct Bound {
    /// Share of the base median the metric may worsen by; `None` for a
    /// per-layer metric.
    pub bound: Option<f64>,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
}

/// Reads the metric bounds from a `BENCHMARK.json` document.
pub fn bounds(benchmark: &Value) -> BTreeMap<String, Bound> {
    let mut out = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in benchmark[section].as_array().into_iter().flatten() {
            if let Some(name) = m["name"].as_str() {
                out.insert(
                    name.to_string(),
                    Bound {
                        bound: m["bound"].as_f64(),
                        higher_is_better: m["better"] == "higher",
                    },
                );
            }
        }
    }
    out
}

/// Per workload, per metric, the values of every run; plus each
/// workload's failed and attempted totals.
type Runs = BTreeMap<String, (BTreeMap<String, Vec<f64>>, u64, u64)>;

/// Parses a file of run lines.
///
/// # Errors
///
/// A line that is not a run object.
pub fn parse_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run: Value = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let workload = run["workload"]
            .as_str()
            .ok_or_else(|| format!("line {}: no workload", i + 1))?;
        let entry = runs.entry(workload.to_string()).or_default();
        entry.1 += run["failed"].as_u64().unwrap_or(0);
        entry.2 += run["attempted"].as_u64().unwrap_or(0);
        for (name, m) in run["metrics"]
            .as_object()
            .into_iter()
            .flat_map(|m| m.iter())
        {
            if let Some(v) = m["value"].as_f64() {
                entry.0.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

/// One row of the comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Base median.
    pub base: f64,
    /// New median.
    pub new: f64,
    /// `(new - base) / base`.
    pub delta: f64,
    /// Whether the change is a worsening beyond the metric's bound.
    pub regressed: bool,
    /// Whether either side's spread is wider than the bound.
    pub unresolved: bool,
}

/// Compares `base` with `new`; the second value is true when some
/// end-to-end metric regressed or the failure ratio rose.
pub fn compare(
    base: &Runs,
    new: &Runs,
    bounds: &BTreeMap<String, Bound>,
) -> (Vec<Row>, Vec<String>, bool) {
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    let mut failed = false;
    for (workload, (base_metrics, b_failed, b_attempted)) in base {
        let Some((new_metrics, n_failed, n_attempted)) = new.get(workload) else {
            notes.push(format!("{workload}: no runs in the new file"));
            continue;
        };
        let ratio = |f: u64, a: u64| f as f64 / a.max(1) as f64;
        if ratio(*n_failed, *n_attempted) > ratio(*b_failed, *b_attempted) {
            failed = true;
            notes.push(format!(
                "{workload}: failure ratio rose from {b_failed}/{b_attempted} to {n_failed}/{n_attempted}"
            ));
        }
        for (metric, base_values) in base_metrics {
            let Some(new_values) = new_metrics.get(metric) else {
                continue;
            };
            let bound = bounds.get(metric);
            let (b, n) = (median(base_values), median(new_values));
            let delta = if b != 0.0 { (n - b) / b.abs() } else { 0.0 };
            let worse = match bound {
                Some(k) if k.higher_is_better => -delta,
                _ => delta,
            };
            let limit = bound.and_then(|k| k.bound);
            let regressed = limit.is_some_and(|l| worse > l);
            let spread = [base_values, new_values]
                .iter()
                .filter_map(|v| relative_spread(v))
                .fold(0.0f64, f64::max);
            let unresolved = limit.is_some_and(|l| spread > l);
            failed |= regressed;
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                base: b,
                new: n,
                delta,
                regressed,
                unresolved,
            });
        }
    }
    (rows, notes, failed)
}

/// The table `--compare` prints.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<12} {:<26} {:>14} {:>14} {:>8}  verdict\n",
        "workload", "metric", "base", "new", "delta"
    );
    for r in rows {
        let verdict = match (r.regressed, r.unresolved) {
            (true, true) => "worse (unresolved)",
            (true, false) => "WORSE",
            (false, true) => "unresolved",
            (false, false) => "ok",
        };
        out.push_str(&format!(
            "{:<12} {:<26} {:>14.6} {:>14.6} {:>7.2}%  {verdict}\n",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.delta * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(workload: &str, failed: u64, latency: f64, rate: f64) -> String {
        serde_json::json!({
            "workload": workload,
            "correct": failed == 0,
            "attempted": 100,
            "failed": failed,
            "metrics": {
                "result_p50_s": {"value": latency, "unit": "s"},
                "throughput_per_s": {"value": rate, "unit": "1/s"},
            },
        })
        .to_string()
    }

    fn benchmark() -> BTreeMap<String, Bound> {
        bounds(&serde_json::json!({
            "end_to_end": [
                {"name": "result_p50_s", "unit": "s", "better": "lower", "bound": 0.1},
                {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
            ],
            "per_layer": [],
        }))
    }

    fn runs(lines: &[String]) -> Runs {
        parse_runs(&lines.join("\n")).unwrap()
    }

    #[test]
    fn worsening_beyond_the_bound_fails_in_either_direction() {
        let base = runs(&[
            line("w", 0, 1.0, 100.0),
            line("w", 0, 1.02, 101.0),
            line("w", 0, 0.98, 99.0),
        ]);
        let slower = runs(&[line("w", 0, 1.2, 100.0)]);
        let (rows, _, failed) = compare(&base, &slower, &benchmark());
        assert!(failed);
        assert!(rows
            .iter()
            .any(|r| r.metric == "result_p50_s" && r.regressed));
        let lower_rate = runs(&[line("w", 0, 1.0, 85.0)]);
        let (rows, _, failed) = compare(&base, &lower_rate, &benchmark());
        assert!(failed);
        assert!(rows
            .iter()
            .any(|r| r.metric == "throughput_per_s" && r.regressed));
        let faster = runs(&[line("w", 0, 0.5, 150.0)]);
        assert!(!compare(&base, &faster, &benchmark()).2);
    }

    #[test]
    fn rising_failures_fail_and_wide_spread_is_unresolved() {
        let base = runs(&[line("w", 0, 1.0, 100.0)]);
        let failing = runs(&[line("w", 3, 1.0, 100.0)]);
        let (_, notes, failed) = compare(&base, &failing, &benchmark());
        assert!(failed && notes[0].contains("failure ratio"));
        let noisy = runs(&[
            line("w", 0, 0.5, 100.0),
            line("w", 0, 1.0, 100.0),
            line("w", 0, 1.5, 100.0),
        ]);
        let (rows, _, _) = compare(&base, &noisy, &benchmark());
        let row = rows.iter().find(|r| r.metric == "result_p50_s").unwrap();
        assert!(row.unresolved && !row.regressed);
        assert!(render(&rows).contains("unresolved"));
    }
}
