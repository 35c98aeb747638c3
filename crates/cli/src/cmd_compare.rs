//! `ensemfdet compare` — all methods head-to-head on one dataset.

use crate::args::Args;
use crate::cmd_detect::{ensemfdet_config, score_users};
use crate::cmd_sweep::{load_label_mask, Family};
use ensemfdet::EnsemFdet;
use ensemfdet_baselines::{Fraudar, FraudarConfig};
use ensemfdet_eval::{time_it, PrCurve, RocCurve, Table};
use ensemfdet_graph::io;

const HELP: &str = "\
ensemfdet compare — run every detector on a labelled dataset and tabulate

OPTIONS:
    --graph FILE     the edge list to scan (required)
    --labels FILE    blacklist user ids (required)
    --samples N      EnsemFDet ensemble size [default: 40]
    --ratio S        EnsemFDet sample ratio [default: 0.1]
    --sampling M     res | ons-user | ons-merchant | tns [default: res]
    --seed N         RNG seed [default: 42]
    --k N            Fraudar blocks [default: 30]
    --components N   SVD rank for SpokEn/FBox [default: 25]
    --json FILE      also write the summary as JSON
";

/// Runs the command.
pub fn run(args: &Args) -> Result<String, String> {
    if args.flag("help") {
        return Ok(HELP.to_string());
    }
    let graph_path = args.require("graph")?;
    let labels_path = args.require("labels")?;
    let json_path = args.get("json");

    let g = io::load_edge_list(&graph_path)
        .map_err(|e| format!("cannot read {graph_path}: {e}"))?;
    let labels = load_label_mask(&labels_path, g.num_users())?;

    let mut rows: Vec<serde_json::Value> = Vec::new();
    let mut table = Table::new(&["method", "best F1", "AUC-PR", "AUC-ROC", "max TPR jump", "time"]);

    let cfg = {
        let mut c = ensemfdet_config(args)?;
        c.num_samples = args.get_or("samples", 40)?;
        c
    };
    let k: usize = args.get_or("k", 30)?;
    for m in ["ensemfdet", "fraudar", "spoken", "fbox", "hits", "kcore", "degree"] {
        let (family, dt) = time_it(|| match m {
            "ensemfdet" => Ok(Family::Sets(
                EnsemFdet::new(cfg).detect(&g).votes.user_threshold_sets(),
            )),
            "fraudar" => {
                let config = FraudarConfig {
                    k,
                    ..Default::default()
                };
                Ok(Family::Sets(Fraudar::new(config).run(&g).operating_points()))
            }
            _ => score_users(m, &g, args).map(Family::Scores),
        });
        let (pr, roc) = family?.curves(&labels);
        push(&mut table, &mut rows, m, &pr, &roc, dt);
    }
    args.finish()?;

    if let Some(p) = &json_path {
        ensemfdet_eval::write_json(&rows, p).map_err(|e| format!("cannot write {p}: {e}"))?;
    }
    let mut report = table.render();
    if let Some(p) = json_path {
        report.push_str(&format!("\nsummary written to {p}\n"));
    }
    Ok(report)
}

fn push(
    table: &mut Table,
    rows: &mut Vec<serde_json::Value>,
    name: &str,
    pr: &PrCurve,
    roc: &RocCurve,
    time: std::time::Duration,
) {
    table.row(&[
        name.to_string(),
        format!("{:.3}", pr.best_f1()),
        format!("{:.3}", pr.auc_pr()),
        format!("{:.3}", roc.auc()),
        format!("{:.3}", roc.max_tpr_jump()),
        format!("{:.2?}", time),
    ]);
    rows.push(serde_json::json!({
        "method": name,
        "best_f1": pr.best_f1(),
        "auc_pr": pr.auc_pr(),
        "auc_roc": roc.auc(),
        "max_tpr_jump": roc.max_tpr_jump(),
        "seconds": time.as_secs_f64(),
    }));
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
    fn compares_all_methods() {
        let (g, l) = dataset_files("compare_compares_all_methods");
        let out = run(&args(&[
            "--graph", &g, "--labels", &l, "--samples", "8", "--ratio", "0.5", "--k", "3",
        ]))
        .unwrap();
        assert!(out.contains("ensemfdet"));
        assert!(out.contains("fraudar"));
        assert!(out.contains("spoken"));
        assert!(out.contains("degree"));
    }

    #[test]
    fn json_output() {
        let (g, l) = dataset_files("compare_json_output");
        let dir = crate::test_dir("compare_json_output");
        let json = dir.join("summary.json");
        run(&args(&[
            "--graph",
            &g,
            "--labels",
            &l,
            "--samples",
            "6",
            "--ratio",
            "0.5",
            "--json",
            json.to_str().unwrap(),
        ]))
        .unwrap();
        let content = std::fs::read_to_string(&json).unwrap();
        assert!(content.contains("best_f1"));
    }
}
