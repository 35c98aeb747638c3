//! The experiment table: the paper's ten experiments (Tables I and III,
//! Figures 1 and 3–9) in paper order, then the four ablations beyond the
//! paper.
//!
//! Each entry is a function of the scale that prints its rows or series
//! as text tables and returns its artifact; [`Experiment::run`] adds the
//! banner and saves the artifact as `<results>/<name>.json`.

use crate::output;
use ensemfdet::EnsemFdetConfig;
use ensemfdet_eval::{PrCurve, PrPoint};
use serde::Serialize;
use serde_json::Value;
use std::path::Path;

mod ablation_camouflage;
mod ablation_communities;
mod ablation_periods;
mod ablation_stability;
mod fig1_block_scores;
mod fig3_method_comparison;
mod fig4_vs_fraudar;
mod fig5_sampling_methods;
mod fig6_truncation;
mod fig7_impact_n;
mod fig8_impact_s;
mod fig9_impact_t;
mod table1_datasets;
mod table3_timing;

/// One experiment of the table.
pub struct Experiment {
    /// The name `run_all` takes and the artifact's file stem.
    pub name: &'static str,
    /// Runs the experiment at `1/scale` of the paper's populations,
    /// printing its tables, and returns its artifact.
    body: fn(u32) -> Value,
}

impl Experiment {
    const fn new(name: &'static str, body: fn(u32) -> Value) -> Self {
        Self { name, body }
    }

    /// Prints the experiment's banner, runs it at `1/scale` and saves its
    /// artifact as `<results>/<name>.json`.
    pub fn run(&self, scale: u32, results: &Path) {
        output::banner(self.name);
        output::save(results, self.name, &(self.body)(scale));
    }
}

/// Every experiment, in the order a full `run_all` runs them.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment::new("table1_datasets", table1_datasets::run),
    Experiment::new("fig1_block_scores", fig1_block_scores::run),
    Experiment::new("fig3_method_comparison", fig3_method_comparison::run),
    Experiment::new("fig4_vs_fraudar", fig4_vs_fraudar::run),
    Experiment::new("table3_timing", table3_timing::run),
    Experiment::new("fig5_sampling_methods", fig5_sampling_methods::run),
    Experiment::new("fig6_truncation", fig6_truncation::run),
    Experiment::new("fig7_impact_n", fig7_impact_n::run),
    Experiment::new("fig8_impact_s", fig8_impact_s::run),
    Experiment::new("fig9_impact_t", fig9_impact_t::run),
    Experiment::new("ablation_camouflage", ablation_camouflage::run),
    Experiment::new("ablation_stability", ablation_stability::run),
    Experiment::new("ablation_periods", ablation_periods::run),
    Experiment::new("ablation_communities", ablation_communities::run),
];

/// The table's entry called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// `n` samples of ratio `s` under master seed `seed`, every other
/// setting at its default: the configuration most experiments vary.
fn ensemble(n: usize, s: f64, seed: u64) -> EnsemFdetConfig {
    EnsemFdetConfig {
        num_samples: n,
        sample_ratio: s,
        seed,
        ..Default::default()
    }
}

/// One method's PR curve with its summary, as Figures 3 and 5 save it.
#[derive(Serialize)]
struct MethodCurve {
    method: String,
    best_f1: f64,
    auc_pr: f64,
    points: Vec<PrPoint>,
}

impl MethodCurve {
    fn new(method: &str, curve: PrCurve) -> Self {
        Self {
            method: method.to_string(),
            best_f1: curve.best_f1(),
            auc_pr: curve.auc_pr(),
            points: curve.points,
        }
    }
}

/// The highest recall any operating point reaches.
fn max_recall(points: &[PrPoint]) -> f64 {
    points.iter().map(|p| p.recall).fold(0.0f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_each_parses_to_its_own_entry() {
        let names: HashSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), EXPERIMENTS.len());
        for entry in EXPERIMENTS {
            let plan = crate::parse_args(&[entry.name.to_string()]).unwrap();
            assert_eq!(plan.experiments.len(), 1);
            assert!(std::ptr::eq(plan.experiments[0], entry), "{}", entry.name);
        }
    }

    #[test]
    fn table1_runs_through_the_table_into_the_given_directory() {
        let dir =
            std::env::temp_dir().join(format!("ensemfdet_bench_table1_{}", std::process::id()));
        find("table1_datasets").unwrap().run(400, &dir);
        let saved = std::fs::read_to_string(dir.join("table1_datasets.json")).unwrap();
        let rows: Value = serde_json::from_str(&saved).unwrap();
        assert_eq!(rows.as_array().map(Vec::len), Some(3));
        std::fs::remove_dir_all(&dir).ok();
    }
}
