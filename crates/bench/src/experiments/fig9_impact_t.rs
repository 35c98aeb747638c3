//! **Figure 9 (a–d)** — impact of the voting threshold
//! `T ∈ {1, …, 40}` at `S = 0.1`, `N = 80`, on all three datasets.
//!
//! Expected shape (paper): precision rises and recall falls monotonically
//! (and smoothly) in `T`; the smooth curves are what let an operator dial
//! in a target error rate.

use super::ensemble;
use crate::{datasets, methods};
use ensemfdet_eval::{confusion, Table};
use serde::Serialize;
use serde_json::{json, Value};

#[derive(Serialize)]
struct TPoint {
    t: u32,
    detected: usize,
    precision: f64,
    recall: f64,
    f1: f64,
}

#[derive(Serialize)]
struct DatasetT {
    dataset: String,
    points: Vec<TPoint>,
}

pub(super) fn run(scale: u32) -> Value {
    println!("== Figure 9: impact of T (S = 0.1, N = 80), all datasets at 1/{scale} ==");

    let mut all = Vec::new();
    for (which, ds) in datasets::load_all(scale) {
        let labels = ds.labels();
        let outcome = methods::run_ensemfdet(&ds.graph, ensemble(80, 0.1, 0xF169));
        let mut points = Vec::new();
        for t in 1..=40u32 {
            let detected: Vec<u32> = outcome
                .votes
                .detected_users(t)
                .into_iter()
                .map(|u| u.0)
                .collect();
            let c = confusion(&detected, &labels);
            points.push(TPoint {
                t,
                detected: c.detected(),
                precision: c.precision(),
                recall: c.recall(),
                f1: c.f1(),
            });
        }

        println!("\n-- {} --", which.name());
        let mut table = Table::new(&["T", "detected", "precision", "recall", "F1"]);
        for p in points.iter().filter(|p| p.t % 4 == 1 || p.t == 40) {
            table.row(&[
                p.t.to_string(),
                p.detected.to_string(),
                format!("{:.3}", p.precision),
                format!("{:.3}", p.recall),
                format!("{:.3}", p.f1),
            ]);
        }
        println!("{}", table.render());
        all.push(DatasetT {
            dataset: which.name().to_string(),
            points,
        });
    }

    println!(
        "(paper: precision monotone ↑, recall monotone ↓ in T on every\n\
         dataset; smooth curves ⇒ the detection size is controllable)"
    );
    json!(all)
}
