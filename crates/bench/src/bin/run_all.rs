//! Runs the experiment table in one process, every experiment in paper
//! order or only the ones named, then renders the figures from the
//! artifacts. `--help` prints the usage; an argument it does not take
//! exits with status 2.
//!
//! ```text
//! cargo run --release -p ensemfdet-bench --bin run_all [-- NAME ... --scale N]
//! ```

use ensemfdet_bench::{output, parse_args, usage};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help") {
        print!("{}", usage());
        return;
    }
    let plan = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("run_all: {e}\n\n{}", usage());
        std::process::exit(2);
    });
    let results = output::results_dir();
    for experiment in &plan.experiments {
        experiment.run(plan.scale, &results);
    }
    // Figures from the artifacts just written (best-effort).
    output::banner("figures");
    match ensemfdet_viz::figures::render_all(&results) {
        Ok(written) => written.iter().for_each(|f| println!("wrote {f}")),
        Err(e) => eprintln!("render failed: {e}"),
    }
    println!(
        "\nall {} experiments completed; JSON in {}",
        plan.experiments.len(),
        results.display()
    );
}
