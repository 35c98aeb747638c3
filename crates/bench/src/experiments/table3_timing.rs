//! **Table III** — running time of EnsemFDet vs Fraudar on all three
//! datasets (`N = 80` for EnsemFDet at `S = 0.1` and `S = 0.01`, each with
//! 1 and 2 ensemble workers; fixed `k = 30` for Fraudar). Both methods
//! peel on the production bucket engine.
//!
//! The paper's theory: `Time(EnsemFDet) < S × Time(Fraudar)` *per core* —
//! one core's share of the ensemble is one sample, whose work shrinks to
//! ≈ `S·|E|`. This harness reports, per configuration, the measured wall,
//! the per-sample times behind the ideal-parallel projection (`Σ` and
//! `max` over the `N` samples, `Σ/max` being the speedup `N` cores would
//! realize), and whether the slowest sample beats `S × Time(Fraudar)`.
//! Datasets are generated one at a time; the process's peak resident set
//! is recorded after each.

use super::ensemble;
use crate::datasets;
use ensemfdet::EnsemFdet;
use ensemfdet_baselines::{Fraudar, FraudarConfig};
use ensemfdet_datagen::presets::JdDataset;
use ensemfdet_eval::{time_it, timing::seconds, Table};
use serde::Serialize;
use serde_json::{json, Value};

const NUM_SAMPLES: usize = 80;
const FRAUDAR_K: usize = 30;
const RATIOS: [f64; 2] = [0.1, 0.01];
const WORKERS: [usize; 2] = [1, 2];

#[derive(Serialize)]
struct Table3 {
    schema: &'static str,
    scale: u32,
    num_samples: usize,
    fraudar_k: usize,
    available_parallelism: usize,
    rows: Vec<TimingRow>,
}

#[derive(Serialize)]
struct TimingRow {
    dataset: String,
    edges: usize,
    sample_ratio: f64,
    workers: usize,
    ensemfdet_wall_s: f64,
    /// Σ per-sample time: the ensemble's total single-core work.
    sample_sum_s: f64,
    /// The slowest sample: the critical path with one core per sample.
    sample_max_s: f64,
    /// `Σ/max`: the speedup a machine with one core per sample realizes.
    ideal_parallel_speedup: f64,
    fraudar_wall_s: f64,
    /// `S × Time(Fraudar)`, the paper's per-core bound.
    s_times_fraudar_s: f64,
    /// `sample_max_s < s_times_fraudar_s`.
    per_core_bound_holds: bool,
    speedup_wall: f64,
    speedup_ideal: f64,
    /// Peak resident set of the whole process so far (`VmHWM`), if known.
    /// In a full `run_all` that includes the experiments run before this
    /// one in the same process; `run_all table3_timing` measures Table III
    /// alone.
    peak_rss_mib: Option<f64>,
}

/// The process's peak resident set in MiB (Linux `VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

pub(super) fn run(scale: u32) -> Value {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "== Table III: time consumption, EnsemFDet (N={NUM_SAMPLES}, S ∈ {RATIOS:?}, \
         workers ∈ {WORKERS:?}) vs Fraudar (k={FRAUDAR_K}), 1/{scale} ==\n"
    );
    println!(
        "note: this machine has {cores} CPU core(s); the Σ/max column projects the\n\
         ensemble onto one core per sample.\n"
    );

    let mut table = Table::new(&[
        "Dataset",
        "S",
        "workers",
        "EnsemFDet (wall)",
        "max sample",
        "Σ/max",
        "FRAUDAR",
        "S × FRAUDAR",
        "per core",
    ]);
    let mut rows = Vec::new();
    for which in JdDataset::ALL {
        let ds = datasets::load(which, scale);
        let g = &ds.graph;
        let (_, fra_time) = time_it(|| {
            Fraudar::new(FraudarConfig {
                k: FRAUDAR_K,
                ..Default::default()
            })
            .run(g)
        });
        let fra_s = fra_time.as_secs_f64();
        for sample_ratio in RATIOS {
            for workers in WORKERS {
                let config = ensemble(NUM_SAMPLES, sample_ratio, 0x7AB3);
                let (outcome, ens_time) =
                    time_it(|| EnsemFdet::with_workers(config, workers).detect(g));
                let (sum, max) = (outcome.total_sample_time(), outcome.max_sample_time());
                let (sum_s, max_s) = (sum.as_secs_f64(), max.as_secs_f64());
                let ideal = sum_s / max_s.max(1e-12);
                let bound = sample_ratio * fra_s;
                let holds = max_s < bound;
                table.row(&[
                    which.name().to_string(),
                    sample_ratio.to_string(),
                    outcome.workers.to_string(),
                    seconds(ens_time),
                    seconds(max),
                    format!("{ideal:.1}x"),
                    seconds(fra_time),
                    format!("{bound:.3} sec"),
                    if holds { "holds" } else { "fails" }.to_string(),
                ]);
                rows.push(TimingRow {
                    dataset: which.name().to_string(),
                    edges: g.num_edges(),
                    sample_ratio,
                    workers: outcome.workers,
                    ensemfdet_wall_s: ens_time.as_secs_f64(),
                    sample_sum_s: sum_s,
                    sample_max_s: max_s,
                    ideal_parallel_speedup: ideal,
                    fraudar_wall_s: fra_s,
                    s_times_fraudar_s: bound,
                    per_core_bound_holds: holds,
                    speedup_wall: fra_s / ens_time.as_secs_f64().max(1e-12),
                    speedup_ideal: fra_s / max_s.max(1e-12),
                    peak_rss_mib: peak_rss_mib(),
                });
            }
        }
    }
    println!("{}", table.render());
    println!(
        "(paper: 10x wall speedup at S = 0.1 on a multicore box, up to 100x\n\
         at S = 0.01; theory Time(EnsemFDet) < S · Time(Fraudar) per core)\n\
         (the per-core column compares two single timings, the slowest\n\
         sample against one Fraudar run: it means something only when both\n\
         are well above timer resolution, as at --scale 1, the scale of\n\
         EXPERIMENTS.md's Table III; at small scales it flips run to run)"
    );
    json!(Table3 {
        schema: "ensemfdet-table3/v1",
        scale,
        num_samples: NUM_SAMPLES,
        fraudar_k: FRAUDAR_K,
        available_parallelism: cores,
        rows,
    })
}
