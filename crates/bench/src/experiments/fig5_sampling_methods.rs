//! **Figure 5** — Precision–Recall of the four sampling strategies inside
//! EnsemFDet on Dataset #3 (`S = 0.1`, repetition rate `R = S·N = 8`,
//! i.e. `N = 80`).
//!
//! Expected shape (paper): Node-PIN bagging clearly worst (sampling the
//! sparse side shatters dense topology when `D_avg(merchant) ≫
//! D_avg(PIN)`); merchant bagging, two-sides bagging and random-edge
//! bagging close together.

use super::{ensemble, max_recall, MethodCurve};
use crate::{datasets, methods};
use ensemfdet::{EnsemFdetConfig, SamplingMethodConfig};
use ensemfdet_datagen::presets::JdDataset;
use ensemfdet_eval::Table;
use serde_json::{json, Value};

pub(super) fn run(scale: u32) -> Value {
    println!("== Figure 5: sampling strategies on Dataset #3 (1/{scale}, S = 0.1, N = 80) ==\n");

    let ds = datasets::load(JdDataset::Jd3, scale);
    let labels = ds.labels();
    println!(
        "D_avg(PIN) = {:.2}, D_avg(Merchant) = {:.2} — the merchant side is denser\n",
        ds.graph.avg_user_degree(),
        ds.graph.avg_merchant_degree()
    );

    let variants = [
        (SamplingMethodConfig::TwoSide, "Two_sides_Bagging"),
        (SamplingMethodConfig::OneSideMerchant, "Node_Merchant_Bagging"),
        (SamplingMethodConfig::OneSideUser, "Node_PIN_Bagging"),
        (SamplingMethodConfig::RandomEdge, "Random_Edge_Bagging"),
    ];

    let mut table = Table::new(&["sampling", "best F1", "AUC-PR", "max recall"]);
    let mut out = Vec::new();
    for (method, name) in variants {
        let config = EnsemFdetConfig {
            method,
            ..ensemble(80, 0.1, 0xF165)
        };
        let outcome = methods::run_ensemfdet(&ds.graph, config);
        let curve = methods::ensemfdet_curve(&outcome, &labels);
        table.row(&[
            name.to_string(),
            format!("{:.3}", curve.best_f1()),
            format!("{:.3}", curve.auc_pr()),
            format!("{:.3}", max_recall(&curve.points)),
        ]);
        out.push(MethodCurve::new(name, curve));
    }
    println!("{}", table.render());
    println!(
        "(paper shape: Node_PIN_Bagging worst by a wide margin; the other\n\
         three similar — sampling the dense side retains topology)"
    );
    json!(out)
}
