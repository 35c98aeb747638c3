//! **Figure 6** — automatic truncating point vs fixed `k = 30`.
//!
//! Expected shape (paper): auto-truncation matches or beats fixed-k in
//! precision at every recall it reaches (fix-k's extra blocks are noise:
//! precision decays toward random selection), and peels far fewer blocks
//! (all recorded `k̂ < 15`), cutting time.

use super::ensemble;
use crate::{datasets, methods};
use ensemfdet::fdet::Truncation;
use ensemfdet::EnsemFdetConfig;
use ensemfdet_datagen::presets::JdDataset;
use ensemfdet_eval::{time_it, Table};
use serde::Serialize;
use serde_json::{json, Value};

#[derive(Serialize)]
struct Variant {
    name: String,
    avg_blocks_peeled: f64,
    avg_k_hat: f64,
    best_f1: f64,
    auc_pr: f64,
    points: Vec<ensemfdet_eval::PrPoint>,
}

pub(super) fn run(scale: u32) -> Value {
    println!("== Figure 6: auto-truncation vs fixed k = 30 (Dataset #3 at 1/{scale}) ==\n");

    let ds = datasets::load(JdDataset::Jd3, scale);
    let labels = ds.labels();

    let variants: [(&str, Truncation); 2] = [
        (
            "Auto_truncating_K",
            Truncation::Auto {
                k_max: 50,
                patience: 5,
            },
        ),
        ("K=30", Truncation::FixedK(30)),
    ];

    let mut table = Table::new(&["variant", "time", "avg blocks", "avg k̂", "best F1", "AUC-PR"]);
    let mut out = Vec::new();
    for (name, truncation) in variants {
        let config = EnsemFdetConfig {
            truncation,
            ..ensemble(80, 0.1, 0xF166)
        };
        let (outcome, wall) = time_it(|| methods::run_ensemfdet(&ds.graph, config));
        let curve = methods::ensemfdet_curve(&outcome, &labels);
        let avg_blocks = outcome
            .samples
            .iter()
            .map(|s| s.blocks_peeled as f64)
            .sum::<f64>()
            / outcome.samples.len() as f64;
        let avg_k_hat = outcome
            .samples
            .iter()
            .map(|s| s.k_hat as f64)
            .sum::<f64>()
            / outcome.samples.len() as f64;
        table.row(&[
            name.to_string(),
            format!("{:.3} s", wall.as_secs_f64()),
            format!("{avg_blocks:.1}"),
            format!("{avg_k_hat:.1}"),
            format!("{:.3}", curve.best_f1()),
            format!("{:.3}", curve.auc_pr()),
        ]);
        out.push(Variant {
            name: name.to_string(),
            avg_blocks_peeled: avg_blocks,
            avg_k_hat,
            best_f1: curve.best_f1(),
            auc_pr: curve.auc_pr(),
            points: curve.points,
        });
    }
    println!("{}", table.render());
    println!(
        "(paper: every recorded k̂ < 15; fixed k = 30's extra recall comes\n\
         at precision near random selection, and auto-truncation detects\n\
         less than half as many blocks, cutting time)"
    );
    json!(out)
}
