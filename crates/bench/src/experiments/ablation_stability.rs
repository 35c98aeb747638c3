//! **Ablation (beyond the paper)** — quantifying the stability claims.
//!
//! Section V-D asserts EnsemFDet is "very stable" across `N` and `S` from
//! single runs per setting. This experiment repeats each configuration over
//! 10 master seeds and reports best-F1 as mean ± std, turning the paper's
//! qualitative claim into a measured coefficient of variation.

use super::ensemble;
use crate::{datasets, methods};
use ensemfdet_datagen::presets::JdDataset;
use ensemfdet_eval::stability::{across_seeds, Spread};
use ensemfdet_eval::Table;
use serde::Serialize;
use serde_json::{json, Value};

#[derive(Serialize)]
struct Row {
    s: f64,
    n: usize,
    mean_f1: f64,
    std_f1: f64,
    cv: f64,
    min_f1: f64,
    max_f1: f64,
}

pub(super) fn run(scale: u32) -> Value {
    const SEEDS: u64 = 10;
    println!(
        "== Ablation: best-F1 stability over {SEEDS} ensemble seeds (Dataset #1 at 1/{scale}) ==\n"
    );

    let ds = datasets::load(JdDataset::Jd1, scale);
    let labels = ds.labels();

    let mut table = Table::new(&["S", "N", "best F1 (mean ± std)", "CV", "min", "max"]);
    let mut rows = Vec::new();
    for (s, n) in [(0.1f64, 10usize), (0.1, 40), (0.1, 80), (0.05, 20), (0.2, 10)] {
        let spread: Spread = across_seeds(0..SEEDS, |seed| {
            let outcome = methods::run_ensemfdet(&ds.graph, ensemble(n, s, 0xAB1E ^ seed));
            methods::ensemfdet_curve(&outcome, &labels).best_f1()
        });
        table.row(&[
            s.to_string(),
            n.to_string(),
            spread.display(3),
            format!("{:.3}", spread.cv()),
            format!("{:.3}", spread.min),
            format!("{:.3}", spread.max),
        ]);
        rows.push(Row {
            s,
            n,
            mean_f1: spread.mean,
            std_f1: spread.std_dev,
            cv: spread.cv(),
            min_f1: spread.min,
            max_f1: spread.max,
        });
    }
    println!("{}", table.render());
    println!(
        "(the paper's stability claim holds if the coefficient of variation\n\
         stays small — a few percent — in every configuration, and shrinks\n\
         as N grows)"
    );
    json!(rows)
}
