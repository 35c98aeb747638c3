//! Runs every experiment binary in paper order, forwarding `--scale`, then
//! renders the figures from their artifacts.
//!
//! ```text
//! cargo run --release -p ensemfdet-bench --bin run_all [-- --scale 40]
//! ```

use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "table1_datasets",
    "fig1_block_scores",
    "fig3_method_comparison",
    "fig4_vs_fraudar",
    "table3_timing",
    "fig5_sampling_methods",
    "fig6_truncation",
    "fig7_impact_n",
    "fig8_impact_s",
    "fig9_impact_t",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exe_dir = std::env::current_exe()
        .expect("current_exe")
        .parent()
        .expect("exe dir")
        .to_path_buf();

    let mut failures = Vec::new();
    for name in EXPERIMENTS {
        println!("\n════════════════════════════════════════════════════════");
        println!("  {name}");
        println!("════════════════════════════════════════════════════════");
        let status = Command::new(exe_dir.join(name))
            .args(&args)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
        if !status.success() {
            eprintln!("experiment {name} FAILED: {status}");
            failures.push(*name);
        }
    }
    // Figures from the artifacts just written (best-effort).
    println!("\n════════════════════════════════════════════════════════");
    println!("  figures");
    println!("════════════════════════════════════════════════════════");
    match ensemfdet_viz::figures::render_all(&ensemfdet_bench::output::results_dir()) {
        Ok(written) => written.iter().for_each(|f| println!("wrote {f}")),
        Err(e) => eprintln!("render failed: {e}"),
    }

    if failures.is_empty() {
        println!("\nall {} experiments completed; JSON in results/", EXPERIMENTS.len());
    } else {
        eprintln!("\nFAILED experiments: {failures:?}");
        std::process::exit(1);
    }
}
