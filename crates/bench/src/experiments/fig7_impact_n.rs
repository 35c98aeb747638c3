//! **Figure 7 (a–d)** — impact of the ensemble size `N ∈ {10, 20, 40, 80}`
//! at fixed `S = 0.1` on Dataset #3.
//!
//! Comparisons are made at matched *numbers of detected nodes* (the paper's
//! x-axis), because the same `T` means different vote totals under
//! different `N`. Expected shape: mild, saturating improvement with `N` —
//! negligible from 40 to 80 — and overall stability.

use super::ensemble;
use crate::{datasets, methods};
use ensemfdet_datagen::presets::JdDataset;
use ensemfdet_eval::Table;
use serde::Serialize;
use serde_json::{json, Value};

#[derive(Serialize)]
struct NSeries {
    n: usize,
    best_f1: f64,
    auc_pr: f64,
    points: Vec<ensemfdet_eval::PrPoint>,
}

pub(super) fn run(scale: u32) -> Value {
    println!("== Figure 7: impact of N at S = 0.1 (Dataset #3 at 1/{scale}) ==\n");

    let ds = datasets::load(JdDataset::Jd3, scale);
    let labels = ds.labels();

    let mut out = Vec::new();
    for n in [10usize, 20, 40, 80] {
        let outcome = methods::run_ensemfdet(&ds.graph, ensemble(n, 0.1, 0xF167));
        let curve = methods::ensemfdet_curve(&outcome, &labels);
        out.push(NSeries {
            n,
            best_f1: curve.best_f1(),
            auc_pr: curve.auc_pr(),
            points: curve.points,
        });
    }

    let mut table = Table::new(&["N", "best F1", "AUC-PR", "F1@~5%det", "F1@~10%det"]);
    let total = ds.graph.num_users();
    for s in &out {
        let f1_at = |frac: f64| {
            let target = (frac * total as f64) as usize;
            s.points
                .iter()
                .min_by_key(|p| p.detected.abs_diff(target))
                .map(|p| format!("{:.3}", p.f1))
                .unwrap_or_default()
        };
        table.row(&[
            s.n.to_string(),
            format!("{:.3}", s.best_f1),
            format!("{:.3}", s.auc_pr),
            f1_at(0.05),
            f1_at(0.10),
        ]);
    }
    println!("{}", table.render());
    println!(
        "(paper: performance rises with N but the N = 40 → 80 gain is\n\
         negligible — stability across R = S·N ∈ [1, 8] means the method\n\
         tolerates scarce parallel cores)"
    );
    json!(out)
}
