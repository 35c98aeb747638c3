//! `ensemfdet sweep` — a detector's full operating curve against labels.

use crate::args::Args;
use crate::cmd_detect::{ensemfdet_config, hybrid_pass, hybrid_summary, timing_summary};
use ensemfdet::EnsemFdet;
use ensemfdet_baselines::{
    DegreeBaseline, FBox, FBoxConfig, Fraudar, FraudarConfig, Hits, KCoreBaseline, Spoken,
    SpokenConfig,
};
use ensemfdet_eval::{PrCurve, RocCurve, Table};
use ensemfdet_graph::{io, BipartiteGraph};

const HELP: &str = "\
ensemfdet sweep — evaluate a detector across its whole threshold range

OPTIONS:
    --graph FILE          the edge list to scan (required)
    --labels FILE         blacklist user ids (required)
    --method NAME         ensemfdet | fraudar | spoken | fbox | hits | kcore | degree
                          [default: ensemfdet]
    --json FILE           also write the curve as JSON
  ensemfdet:
    --samples N  --ratio S  --sampling M  --seed N
    --workers W           (as in `detect`)
    --timing              print the ensemble's wall-clock breakdown
    --scoring SPEC        sweep the fused hybrid score instead of the raw
                          vote counts (spec as in `detect --scoring`)
  fraudar:
    --k N                 blocks to sweep [default: 30]
  spoken / fbox:
    --components N        SVD rank [default: 25]
";

/// Reads a blacklist file into a per-user label mask over `num_users`
/// users.
pub(crate) fn load_label_mask(path: &str, num_users: usize) -> Result<Vec<bool>, String> {
    let blacklist = io::load_labels(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut labels = vec![false; num_users];
    for &u in &blacklist {
        *labels
            .get_mut(u as usize)
            .ok_or_else(|| format!("label id {u} exceeds the graph's {num_users} users"))? = true;
    }
    Ok(labels)
}

/// A method's operating points: explicit detected sets (the ensemble's
/// `T` sweep, Fraudar's `k` sweep) or a per-user score to sweep.
pub(crate) enum Family {
    Sets(Vec<(u32, Vec<u32>)>),
    Scores(Vec<f64>),
}

impl Family {
    /// The family's PR and ROC curves against `labels`.
    pub(crate) fn curves(&self, labels: &[bool]) -> (PrCurve, RocCurve) {
        match self {
            Family::Sets(sets) => (
                PrCurve::from_threshold_sets(sets, labels),
                RocCurve::from_threshold_sets(sets, labels),
            ),
            Family::Scores(scores) => (
                PrCurve::from_scores(scores, labels),
                RocCurve::from_scores(scores, labels),
            ),
        }
    }
}

/// Every method [`baseline`] runs, in the order `compare` lists them.
pub(crate) const BASELINES: [&str; 6] = ["fraudar", "spoken", "fbox", "hits", "kcore", "degree"];

/// The baselines' one table: runs the named baseline on `g`. Fraudar
/// gives its cumulative per-`k` sets under `--k` [default: 30]; the five
/// score methods give their raw scores, SpokEn and FBox under
/// `--components` [default: 25].
pub(crate) fn baseline(method: &str, g: &BipartiteGraph, args: &Args) -> Result<Family, String> {
    let components = || args.get_or("components", 25);
    Ok(match method {
        "fraudar" => Family::Sets(
            Fraudar::new(FraudarConfig {
                k: args.get_or("k", 30)?,
                ..Default::default()
            })
            .run(g)
            .operating_points(),
        ),
        "spoken" => Family::Scores(
            Spoken::new(SpokenConfig {
                components: components()?,
                ..Default::default()
            })
            .score_users(g),
        ),
        "fbox" => Family::Scores(
            FBox::new(FBoxConfig {
                components: components()?,
                ..Default::default()
            })
            .score_users(g),
        ),
        "hits" => Family::Scores(Hits::default().score_users(g)),
        "kcore" => Family::Scores(KCoreBaseline.score_users(g)),
        "degree" => Family::Scores(DegreeBaseline.score_users(g)),
        other => return Err(format!("unknown method `{other}`")),
    })
}

/// Runs the command.
pub fn run(args: &Args) -> Result<String, String> {
    if args.flag("help") {
        return Ok(HELP.to_string());
    }
    let graph_path = args.require("graph")?;
    let labels_path = args.require("labels")?;
    let method = args.get("method").unwrap_or_else(|| "ensemfdet".into());
    let json_path = args.get("json");

    let g = io::load_edge_list(&graph_path)
        .map_err(|e| format!("cannot read {graph_path}: {e}"))?;
    let labels = load_label_mask(&labels_path, g.num_users())?;

    let mut timing_note: Option<String> = None;
    let mut hybrid_note: Option<String> = None;
    let family = match method.as_str() {
        "ensemfdet" => {
            let cfg = ensemfdet_config(args)?;
            let workers: usize = args.get_or("workers", 0)?;
            let timing = args.flag("timing");
            args.finish()?;
            let outcome = EnsemFdet::with_workers(cfg, workers).detect(&g);
            if timing {
                timing_note = Some(timing_summary(&outcome));
            }
            if let Some(hybrid) = hybrid_pass(&g, &outcome, &cfg) {
                // Sweep the fused score itself — a far finer operating
                // curve than the N discrete vote thresholds.
                hybrid_note = Some(hybrid_summary(&hybrid));
                Family::Scores(hybrid.hybrid)
            } else {
                Family::Sets(outcome.votes.user_threshold_sets())
            }
        }
        m if BASELINES.contains(&m) => {
            let family = baseline(m, &g, args)?;
            args.finish()?;
            family
        }
        other => return Err(format!("unknown method `{other}`\n\n{HELP}")),
    };
    let (pr, roc) = family.curves(&labels);

    if let Some(p) = &json_path {
        ensemfdet_eval::write_json(&pr, p).map_err(|e| format!("cannot write {p}: {e}"))?;
    }

    let mut t = Table::new(&["threshold", "detected", "precision", "recall", "F1"]);
    let step = (pr.points.len() / 20).max(1);
    for p in pr.points.iter().step_by(step) {
        t.row(&[
            format!("{:.3}", p.threshold),
            p.detected.to_string(),
            format!("{:.3}", p.precision),
            format!("{:.3}", p.recall),
            format!("{:.3}", p.f1),
        ]);
    }
    let mut report = t.render();
    report.push_str(&format!(
        "\nbest F1: {:.4}   AUC-PR: {:.4}   AUC-ROC: {:.4}   max TPR jump: {:.4}\n",
        pr.best_f1(),
        pr.auc_pr(),
        roc.auc(),
        roc.max_tpr_jump()
    ));
    if let Some(h) = hybrid_note {
        report.push_str(&h);
        report.push('\n');
    }
    if let Some(t) = timing_note {
        report.push_str(&t);
        report.push('\n');
    }
    if let Some(p) = json_path {
        report.push_str(&format!("curve written to {p}\n"));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemfdet_graph::{GraphBuilder, MerchantId, UserId};

    fn args(parts: &[&str]) -> Args {
        Args::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    fn dataset_files(test: &str) -> (String, String) {
        let dir = crate::test_dir(test);
        let gpath = dir.join("g.edges");
        let lpath = dir.join("g.labels");
        let mut b = GraphBuilder::new();
        for u in 0..8u32 {
            for v in 0..4u32 {
                b.add_edge(UserId(u), MerchantId(v));
            }
        }
        for u in 8..80u32 {
            b.add_edge(UserId(u), MerchantId(4 + u % 30));
        }
        io::save_edge_list(&b.build(), &gpath).unwrap();
        io::save_labels(&(0..8).collect::<Vec<u32>>(), &lpath).unwrap();
        (
            gpath.to_str().unwrap().to_string(),
            lpath.to_str().unwrap().to_string(),
        )
    }

    #[test]
    fn ensemfdet_sweep_reports_best_f1() {
        let (g, l) = dataset_files("sweep_ensemfdet_sweep_reports_best_f1");
        let out = run(&args(&[
            "--graph", &g, "--labels", &l, "--samples", "8", "--ratio", "0.5",
        ]))
        .unwrap();
        assert!(out.contains("best F1"), "{out}");
        assert!(out.contains("AUC-ROC"));
    }

    #[test]
    fn scoring_flag_sweeps_the_hybrid_score() {
        let (g, l) = dataset_files("sweep_scoring_flag_sweeps_the_hybrid_score");
        let out = run(&args(&[
            "--graph", &g, "--labels", &l, "--samples", "8", "--ratio", "0.5",
            "--scoring", "hybrid",
        ]))
        .unwrap();
        assert!(out.contains("hybrid:"), "{out}");
        // The planted 8×4 block dominates every component, so the fused
        // sweep nearly separates it.
        let f1: f64 = out
            .lines()
            .find(|l| l.starts_with("best F1:"))
            .and_then(|l| l.split_whitespace().nth(2))
            .unwrap()
            .parse()
            .unwrap();
        assert!(f1 > 0.85, "{out}");
    }

    #[test]
    fn timing_flag_reports_breakdown() {
        let (g, l) = dataset_files("sweep_timing_flag_reports_breakdown");
        let out = run(&args(&[
            "--graph", &g, "--labels", &l, "--samples", "8", "--ratio", "0.5", "--timing",
        ]))
        .unwrap();
        assert!(out.contains("wall-clock over 8 samples"), "{out}");
    }

    #[test]
    fn fraudar_sweep_shows_jumpiness() {
        let (g, l) = dataset_files("sweep_fraudar_sweep_shows_jumpiness");
        let out = run(&args(&["--graph", &g, "--labels", &l, "--method", "fraudar", "--k", "4"]))
            .unwrap();
        assert!(out.contains("max TPR jump"));
    }

    #[test]
    fn score_method_sweep_and_json() {
        let (g, l) = dataset_files("sweep_score_method_sweep_and_json");
        let dir = crate::test_dir("sweep_score_method_sweep_and_json");
        let json = dir.join("curve.json");
        let out = run(&args(&[
            "--graph",
            &g,
            "--labels",
            &l,
            "--method",
            "degree",
            "--json",
            json.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("curve written"));
        let content = std::fs::read_to_string(&json).unwrap();
        assert!(content.contains("precision"));
    }

    /// `compare` and `sweep` read one method table: for every method,
    /// compare's summary row equals the curve `sweep --method M --json`
    /// writes, bit for bit.
    #[test]
    fn compare_rows_equal_sweep_curves() {
        use ensemfdet_eval::{Confusion, RocPoint};

        let (g, l) = dataset_files("sweep_compare_rows_equal_sweep_curves");
        let dir = crate::test_dir("sweep_compare_rows_equal_sweep_curves");
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let common = ["--graph", g.as_str(), "--labels", l.as_str()];
        let ensemble = ["--samples", "8", "--ratio", "0.5"];
        let fraudar = ["--k", "4"];
        let svd = ["--components", "3"];
        let summary = path("summary.json");
        crate::cmd_compare::run(&args(
            &[&common[..], &ensemble, &fraudar, &svd, &["--json", &summary]].concat(),
        ))
        .unwrap();
        let rows: Vec<serde_json::Value> =
            serde_json::from_str(&std::fs::read_to_string(&summary).unwrap()).unwrap();
        let methods: Vec<&str> = rows.iter().map(|r| r["method"].as_str().unwrap()).collect();
        assert_eq!(methods, [&["ensemfdet"][..], &BASELINES].concat());

        let users = 80;
        let positives = 8;
        for row in &rows {
            let m = row["method"].as_str().unwrap();
            let own: &[&str] = match m {
                "ensemfdet" => &ensemble,
                "fraudar" => &fraudar,
                "spoken" | "fbox" => &svd,
                _ => &[],
            };
            let curve = path(&format!("{m}.json"));
            run(&args(&[&common[..], &["--method", m, "--json", &curve], own].concat())).unwrap();
            let pr: PrCurve =
                serde_json::from_str(&std::fs::read_to_string(&curve).unwrap()).unwrap();
            // The ROC point of each PR point, from the same confusion
            // counts the sweep evaluated.
            let roc = RocCurve {
                points: pr
                    .points
                    .iter()
                    .map(|p| {
                        let tp = (p.recall * positives as f64).round() as usize;
                        let fp = p.detected - tp;
                        let c = Confusion {
                            tp,
                            fp,
                            fn_: positives - tp,
                            tn: users - positives - fp,
                        };
                        RocPoint::from_confusion(p.threshold, &c)
                    })
                    .collect(),
            };
            for (key, value) in [
                ("best_f1", pr.best_f1()),
                ("auc_pr", pr.auc_pr()),
                ("auc_roc", roc.auc()),
            ] {
                assert_eq!(
                    row[key].as_f64().unwrap().to_bits(),
                    value.to_bits(),
                    "{m} {key}"
                );
            }
        }
    }

    #[test]
    fn label_out_of_range_rejected() {
        let (g, _) = dataset_files("sweep_label_out_of_range_rejected");
        let dir = crate::test_dir("sweep_label_out_of_range_rejected");
        let bad = dir.join("bad.labels");
        io::save_labels(&[10_000], &bad).unwrap();
        let err = run(&args(&[
            "--graph",
            &g,
            "--labels",
            bad.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("exceeds"));
    }
}
