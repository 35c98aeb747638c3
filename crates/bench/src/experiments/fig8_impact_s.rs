//! **Figure 8 (a–d)** — impact of the sample ratio `S ∈ {0.01, 0.05, 0.1}`
//! at fixed repetition rate `R = S·N = 1` on Dataset #3.
//!
//! Expected shape (paper): larger `S` helps somewhat, but `S = 0.01` stays
//! close to `S = 0.1` — the stability that lets operators shrink samples
//! to fit memory/core budgets.

use super::{ensemble, max_recall};
use crate::{datasets, methods};
use ensemfdet_datagen::presets::JdDataset;
use ensemfdet_eval::Table;
use serde::Serialize;
use serde_json::{json, Value};

#[derive(Serialize)]
struct SSeries {
    s: f64,
    n: usize,
    best_f1: f64,
    auc_pr: f64,
    points: Vec<ensemfdet_eval::PrPoint>,
}

pub(super) fn run(scale: u32) -> Value {
    // Small S compounds with the dataset's own 1/scale reduction (S = 0.01
    // of a 1/40 graph is 0.025% of the paper's data), so this experiment
    // runs on a 4x larger graph than the others to keep the S = 0.01
    // samples meaningfully sized.
    let scale = (scale / 4).max(1);
    println!("== Figure 8: impact of S at fixed R = S·N = 1 (Dataset #3 at 1/{scale}) ==\n");

    let ds = datasets::load(JdDataset::Jd3, scale);
    let labels = ds.labels();

    let mut out = Vec::new();
    for (s, n) in [(0.1f64, 10usize), (0.05, 20), (0.01, 100)] {
        let outcome = methods::run_ensemfdet(&ds.graph, ensemble(n, s, 0xF168));
        let curve = methods::ensemfdet_curve(&outcome, &labels);
        out.push(SSeries {
            s,
            n,
            best_f1: curve.best_f1(),
            auc_pr: curve.auc_pr(),
            points: curve.points,
        });
    }

    let mut table = Table::new(&["S", "N", "best F1", "AUC-PR", "max recall"]);
    for series in &out {
        table.row(&[
            format!("{}", series.s),
            series.n.to_string(),
            format!("{:.3}", series.best_f1),
            format!("{:.3}", series.auc_pr),
            format!("{:.3}", max_recall(&series.points)),
        ]);
    }
    println!("{}", table.render());
    println!(
        "(paper: S = 0.1 best but S = 0.01 close behind — sample far below\n\
         memory limits without losing much; trade S against N by available\n\
         cores)"
    );
    json!(out)
}
