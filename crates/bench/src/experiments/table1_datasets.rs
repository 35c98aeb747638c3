//! **Table I** — statistics of the three datasets.
//!
//! Prints the generated datasets' populations next to the paper's rows
//! scaled by `1/scale`, verifying the synthetic models track the real
//! datasets' shapes.

use crate::datasets;
use ensemfdet_eval::Table;
use serde::Serialize;
use serde_json::{json, Value};

#[derive(Serialize)]
struct Row {
    dataset: String,
    users: usize,
    fraud_users: usize,
    merchants: usize,
    edges: usize,
    paper_users_scaled: usize,
    paper_fraud_scaled: usize,
    paper_merchants_scaled: usize,
    paper_edges_scaled: usize,
}

pub(super) fn run(scale: u32) -> Value {
    println!("== Table I: dataset statistics (scale 1/{scale}) ==\n");

    let mut table = Table::new(&[
        "Dataset",
        "Node:PIN",
        "Fraud PIN",
        "Node:Merchant",
        "Edge",
        "(paper scaled: PIN",
        "fraud",
        "merchant",
        "edge)",
    ]);
    let mut rows = Vec::new();
    for (which, ds) in datasets::load_all(scale) {
        let (users, fraud, merchants, edges) = ds.table1_row();
        let (pu, pf, pm, pe) = which.paper_row();
        let s = scale as usize;
        table.row(&[
            which.name().to_string(),
            users.to_string(),
            fraud.to_string(),
            merchants.to_string(),
            edges.to_string(),
            (pu / s).to_string(),
            (pf / s).to_string(),
            (pm / s).to_string(),
            (pe / s).to_string(),
        ]);
        rows.push(Row {
            dataset: which.name().to_string(),
            users,
            fraud_users: fraud,
            merchants,
            edges,
            paper_users_scaled: pu / s,
            paper_fraud_scaled: pf / s,
            paper_merchants_scaled: pm / s,
            paper_edges_scaled: pe / s,
        });
    }
    println!("{}", table.render());
    json!(rows)
}
