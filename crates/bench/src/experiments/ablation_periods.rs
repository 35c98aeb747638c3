//! **Ablation (beyond the paper)** — the temporal motivation, measured.
//!
//! The introduction argues that supervised/threshold rules learned on one
//! promotion period go stale ("fraudulent accounts will not be reused …
//! features of fraud behaviors change"), while unsupervised graph methods
//! keep working. This experiment generates a 5-period campaign timeline
//! with drifting fraud behaviour (rings thin out, camouflage grows) and
//! compares, per period:
//!
//! - **EnsemFDet** with *fixed* hyperparameters (no per-period tuning);
//! - a **degree rule "learned" on period 0** — the best degree cutoff for
//!   period 0, frozen and applied to later periods (a stand-in for stale
//!   feature rules).

use super::ensemble;
use crate::methods;
use ensemfdet_baselines::DegreeBaseline;
use ensemfdet_datagen::presets::{jd_preset, JdDataset};
use ensemfdet_datagen::{generate_timeline, BehaviorDrift, TimelineConfig};
use ensemfdet_eval::{confusion, Table};
use serde::Serialize;
use serde_json::{json, Value};

#[derive(Serialize)]
struct PeriodRow {
    period: usize,
    ring_density: f64,
    ensemfdet_f1: f64,
    stale_rule_f1: f64,
}

pub(super) fn run(scale: u32) -> Value {
    const PERIODS: usize = 5;
    println!(
        "== Ablation: {PERIODS} drifting campaign periods (Dataset #1 base at 1/{scale}) ==\n"
    );

    let cfg = TimelineConfig {
        base: jd_preset(JdDataset::Jd1, scale, 0x7E41),
        periods: PERIODS,
        // Fraudsters spread the same campaign over thinner rings each
        // period: per-account purchase volume falls, so degree rules go
        // stale, while the *relative* density of the rings — what the graph
        // method keys on — erodes far more slowly.
        drift: BehaviorDrift {
            density_factor: 0.72,
            camouflage_step: 0,
        },
    };
    let periods = generate_timeline(&cfg);

    // "Learn" the stale rule on period 0: the degree cutoff with best F1.
    let p0 = &periods[0];
    let labels0 = p0.labels();
    let degrees0 = DegreeBaseline.score_users(&p0.graph);
    let stale_cutoff = best_degree_cutoff(&degrees0, &labels0);
    println!("degree rule learned on period 0: flag users with degree ≥ {stale_cutoff}\n");

    let mut table = Table::new(&["period", "ring density", "EnsemFDet F1", "stale degree-rule F1"]);
    let mut rows = Vec::new();
    for (p, ds) in periods.iter().enumerate() {
        let labels = ds.labels();

        let outcome = methods::run_ensemfdet(&ds.graph, ensemble(40, 0.1, 0x7E42));
        let ens_f1 = methods::ensemfdet_curve(&outcome, &labels).best_f1();

        let degrees = DegreeBaseline.score_users(&ds.graph);
        let detected: Vec<u32> = degrees
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d >= stale_cutoff as f64)
            .map(|(u, _)| u as u32)
            .collect();
        let stale_f1 = confusion(&detected, &labels).f1();

        let ring_density = ds
            .groups
            .first()
            .map(|g| g.internal_edges as f64 / (g.users.len() * g.merchants.len()) as f64)
            .unwrap_or(0.0);
        table.row(&[
            p.to_string(),
            format!("{ring_density:.2}"),
            format!("{ens_f1:.3}"),
            format!("{stale_f1:.3}"),
        ]);
        rows.push(PeriodRow {
            period: p,
            ring_density,
            ensemfdet_f1: ens_f1,
            stale_rule_f1: stale_f1,
        });
    }
    println!("{}", table.render());
    println!(
        "(expected: the frozen rule's F1 decays as fraud behaviour drifts;\n\
         EnsemFDet, which learns nothing, degrades far more slowly — the\n\
         introduction's argument for unsupervised graph detection)"
    );
    json!(rows)
}

/// Best F1 degree cutoff on a labelled period.
fn best_degree_cutoff(degrees: &[f64], labels: &[bool]) -> usize {
    let max_d = degrees.iter().cloned().fold(0.0f64, f64::max) as usize;
    let mut best = (0usize, 0.0f64);
    for cut in 1..=max_d.max(1) {
        let detected: Vec<u32> = degrees
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d >= cut as f64)
            .map(|(u, _)| u as u32)
            .collect();
        let f1 = confusion(&detected, labels).f1();
        if f1 > best.1 {
            best = (cut, f1);
        }
    }
    best.0
}
