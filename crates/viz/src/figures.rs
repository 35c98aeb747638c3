//! Turning the experiment harness's JSON artifacts into figure SVGs.
//!
//! Each function takes the parsed `results/<experiment>.json` value and
//! returns `(file_stem, svg)` pairs. The [`render_all`] entry point maps a
//! whole results directory; unknown or malformed files are skipped with a
//! notice rather than failing the run, so partial experiment sets still
//! produce their figures.

use crate::chart::{Chart, Series};
use serde_json::Value;
use std::path::Path;

/// Extracts a PR polyline from an array of `PrPoint` objects.
fn pr_points(points: &Value) -> Vec<(f64, f64)> {
    points
        .as_array()
        .map(|arr| {
            arr.iter()
                .filter_map(|p| Some((p.get("recall")?.as_f64()?, p.get("precision")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

/// Figure 3: one PR chart per dataset, four methods each.
pub fn fig3(json: &Value) -> Vec<(String, String)> {
    let Some(datasets) = json.as_array() else {
        return Vec::new();
    };
    datasets
        .iter()
        .enumerate()
        .filter_map(|(i, ds)| {
            let name = ds.get("dataset")?.as_str()?.to_string();
            let mut chart = Chart::new(&format!("Figure 3: {name}"), "Recall", "Precision");
            for m in ds.get("methods")?.as_array()? {
                let label = m.get("method")?.as_str()?.to_string();
                let marker = label == "FRAUDAR";
                chart = chart.with_series(Series {
                    label,
                    points: pr_points(m.get("points")?),
                    marker,
                });
            }
            Some((format!("fig3_{}", letter(i)), chart.render()))
        })
        .collect()
}

/// Figure 1: block-score curves, one series per sampled graph.
pub fn fig1(json: &Value) -> Vec<(String, String)> {
    let Some(curves) = json.as_array() else {
        return Vec::new();
    };
    let mut chart = Chart::new("Figure 1: scores of detected blocks", "Detected block", "Score");
    for c in curves {
        let Some(scores) = c.get("scores").and_then(Value::as_array) else {
            continue;
        };
        let points: Vec<(f64, f64)> = scores
            .iter()
            .enumerate()
            .filter_map(|(b, s)| Some(((b + 1) as f64, s.as_f64()?)))
            .collect();
        let label = c
            .get("sample")
            .and_then(Value::as_u64)
            .map(|i| format!("sample {i}"))
            .unwrap_or_else(|| "sample".into());
        chart = chart.with_series(Series {
            label,
            points,
            marker: false,
        });
    }
    vec![("fig1".into(), chart.render())]
}

/// Figure 9: precision/recall/F1 against the threshold `T`, per dataset.
pub fn fig9(json: &Value) -> Vec<(String, String)> {
    let Some(datasets) = json.as_array() else {
        return Vec::new();
    };
    datasets
        .iter()
        .enumerate()
        .filter_map(|(i, ds)| {
            let name = ds.get("dataset")?.as_str()?.to_string();
            let points = ds.get("points")?.as_array()?;
            let series = |key: &str| -> Vec<(f64, f64)> {
                points
                    .iter()
                    .filter_map(|p| Some((p.get("t")?.as_f64()?, p.get(key)?.as_f64()?)))
                    .collect()
            };
            let chart = Chart::new(&format!("Figure 9: {name}"), "T", "metric")
                .with_series(Series {
                    label: "precision".into(),
                    points: series("precision"),
                    marker: false,
                })
                .with_series(Series {
                    label: "recall".into(),
                    points: series("recall"),
                    marker: false,
                })
                .with_series(Series {
                    label: "F1".into(),
                    points: series("f1"),
                    marker: false,
                });
            Some((format!("fig9_{}", letter(i)), chart.render()))
        })
        .collect()
}

/// Figure 5: PR per sampling method (same schema as one fig3 dataset).
pub fn fig5(json: &Value) -> Vec<(String, String)> {
    let Some(methods) = json.as_array() else {
        return Vec::new();
    };
    let mut chart = Chart::new("Figure 5: sampling strategies", "Recall", "Precision");
    for m in methods {
        let Some(label) = m.get("method").and_then(Value::as_str) else {
            continue;
        };
        let Some(points) = m.get("points") else {
            continue;
        };
        chart = chart.with_series(Series {
            label: label.to_string(),
            points: pr_points(points),
            marker: false,
        });
    }
    vec![("fig5".into(), chart.render())]
}

/// Figure 4: F1 against the number of detected PINs, EnsemFDet vs Fraudar,
/// per dataset.
pub fn fig4(json: &Value) -> Vec<(String, String)> {
    let Some(datasets) = json.as_array() else {
        return Vec::new();
    };
    datasets
        .iter()
        .enumerate()
        .filter_map(|(i, ds)| {
            let name = ds.get("dataset")?.as_str()?.to_string();
            let series = |key: &str| -> Vec<(f64, f64)> {
                ds.get(key)
                    .and_then(Value::as_array)
                    .map(|arr| {
                        arr.iter()
                            .filter_map(|p| {
                                Some((p.get("detected")?.as_f64()?, p.get("f1")?.as_f64()?))
                            })
                            .collect()
                    })
                    .unwrap_or_default()
            };
            let chart = Chart::new(&format!("Figure 4: {name}"), "# of detected PIN", "F1")
                .with_series(Series {
                    label: "EnsemFDet".into(),
                    points: series("ensemfdet"),
                    marker: false,
                })
                .with_series(Series {
                    label: "Fraudar".into(),
                    points: series("fraudar"),
                    marker: true,
                });
            Some((format!("fig4_{}", letter(i)), chart.render()))
        })
        .collect()
}

/// Figure 6: auto-truncation vs fixed-k PR curves.
pub fn fig6(json: &Value) -> Vec<(String, String)> {
    named_pr_chart(json, "Figure 6: truncation", "name", "fig6")
}

/// Figure 7: PR per ensemble size `N`.
pub fn fig7(json: &Value) -> Vec<(String, String)> {
    named_pr_chart(json, "Figure 7: impact of N", "n", "fig7")
}

/// Figure 8: PR per sample ratio `S`.
pub fn fig8(json: &Value) -> Vec<(String, String)> {
    named_pr_chart(json, "Figure 8: impact of S", "s", "fig8")
}

/// Shared shape: an array of objects with a label key and a `points` PR
/// array, all drawn into one chart.
fn named_pr_chart(json: &Value, title: &str, label_key: &str, stem: &str) -> Vec<(String, String)> {
    let Some(entries) = json.as_array() else {
        return Vec::new();
    };
    let mut chart = Chart::new(title, "Recall", "Precision");
    for e in entries {
        let label = match e.get(label_key) {
            Some(Value::String(s)) => s.clone(),
            Some(other) => format!("{label_key}={other}"),
            None => continue,
        };
        let Some(points) = e.get("points") else {
            continue;
        };
        chart = chart.with_series(Series {
            label,
            points: pr_points(points),
            marker: false,
        });
    }
    vec![(stem.to_string(), chart.render())]
}

/// Maps every known artifact in `dir` to SVGs next to it. Returns the
/// figure files written.
///
/// # Errors
///
/// Propagates I/O failures on writing; unreadable inputs are skipped.
pub fn render_all(dir: &Path) -> std::io::Result<Vec<String>> {
    let mut written = Vec::new();
    let mut render = |input: &str, f: fn(&Value) -> Vec<(String, String)>| -> std::io::Result<()> {
        let path = dir.join(input);
        let Ok(raw) = std::fs::read_to_string(&path) else {
            return Ok(()); // experiment not run yet
        };
        let Ok(json) = serde_json::from_str::<Value>(&raw) else {
            eprintln!("skipping malformed {}", path.display());
            return Ok(());
        };
        for (stem, svg) in f(&json) {
            let out = dir.join(format!("{stem}.svg"));
            std::fs::write(&out, svg)?;
            written.push(out.display().to_string());
        }
        Ok(())
    };
    render("fig1_block_scores.json", fig1)?;
    render("fig3_method_comparison.json", fig3)?;
    render("fig4_vs_fraudar.json", fig4)?;
    render("fig5_sampling_methods.json", fig5)?;
    render("fig6_truncation.json", fig6)?;
    render("fig7_impact_n.json", fig7)?;
    render("fig8_impact_s.json", fig8)?;
    render("fig9_impact_t.json", fig9)?;
    Ok(written)
}

fn letter(i: usize) -> char {
    (b'a' + (i % 26) as u8) as char
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn fig3_renders_per_dataset() {
        let json = json!([
            {
                "dataset": "Dataset #1",
                "methods": [
                    {"method": "FRAUDAR", "points": [
                        {"recall": 0.1, "precision": 0.9},
                        {"recall": 0.5, "precision": 0.6}
                    ]},
                    {"method": "EnsemFDet", "points": [
                        {"recall": 0.2, "precision": 0.8}
                    ]}
                ]
            }
        ]);
        let figs = fig3(&json);
        assert_eq!(figs.len(), 1);
        assert_eq!(figs[0].0, "fig3_a");
        assert!(figs[0].1.contains("FRAUDAR"));
        assert!(figs[0].1.contains("<circle"), "Fraudar gets markers");
    }

    #[test]
    fn fig9_renders_three_series() {
        let json = json!([{
            "dataset": "Dataset #2",
            "points": [
                {"t": 1.0, "precision": 0.5, "recall": 0.9, "f1": 0.64},
                {"t": 2.0, "precision": 0.7, "recall": 0.6, "f1": 0.65}
            ]
        }]);
        let figs = fig9(&json);
        assert_eq!(figs.len(), 1);
        let svg = &figs[0].1;
        assert!(svg.contains("precision") && svg.contains("recall") && svg.contains("F1"));
    }

    #[test]
    fn fig1_renders_all_samples_in_one_chart() {
        let json = json!([
            {"sample": 0, "scores": [0.5, 0.4, 0.2], "k_hat": 2},
            {"sample": 1, "scores": [0.6, 0.3], "k_hat": 1}
        ]);
        let figs = fig1(&json);
        assert_eq!(figs.len(), 1);
        assert!(figs[0].1.contains("sample 0"));
        assert!(figs[0].1.contains("sample 1"));
    }

    #[test]
    fn malformed_json_yields_nothing() {
        assert!(fig3(&json!({"not": "an array"})).is_empty());
        assert!(fig9(&json!(42)).is_empty());
        assert!(fig4(&json!("x")).is_empty());
        assert!(fig7(&json!(null)).is_empty());
    }

    #[test]
    fn fig4_plots_both_methods_with_fraudar_markers() {
        let json = json!([{
            "dataset": "Dataset #3",
            "ensemfdet": [{"detected": 10, "f1": 0.5, "precision": 0.9}],
            "fraudar": [
                {"detected": 100, "f1": 0.4, "precision": 0.8},
                {"detected": 900, "f1": 0.45, "precision": 0.5}
            ],
            "max_step_ensemfdet": 1,
            "max_step_fraudar": 800
        }]);
        let figs = fig4(&json);
        assert_eq!(figs.len(), 1);
        assert!(figs[0].1.contains("Fraudar"));
        assert!(figs[0].1.contains("<circle"));
    }

    #[test]
    fn named_pr_charts_label_numeric_keys() {
        let json = json!([
            {"n": 10, "points": [{"recall": 0.1, "precision": 0.8}]},
            {"n": 80, "points": [{"recall": 0.3, "precision": 0.7}]}
        ]);
        let figs = fig7(&json);
        assert_eq!(figs.len(), 1);
        assert!(figs[0].1.contains("n=10"));
        assert!(figs[0].1.contains("n=80"));
    }

    /// A fresh directory for one test's files, named after the test and
    /// the process id, so parallel tests never share a fixture file.
    fn test_dir(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ensemfdet_viz_{test}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn render_all_writes_files_and_skips_missing() {
        let dir = test_dir("render_all_writes_files_and_skips_missing");
        // Only fig1 input present.
        std::fs::write(
            dir.join("fig1_block_scores.json"),
            json!([{"sample": 0, "scores": [0.5, 0.1], "k_hat": 1}]).to_string(),
        )
        .unwrap();
        let written = render_all(&dir).unwrap();
        assert_eq!(written.len(), 1);
        assert!(written[0].ends_with("fig1.svg"));
        assert!(dir.join("fig1.svg").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
