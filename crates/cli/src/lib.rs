#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The `ensemfdet` command-line tool.
//!
//! Five subcommands cover the full workflow on edge-list files:
//!
//! ```text
//! ensemfdet generate --preset jd1 --scale 100 --out data/jd1
//! ensemfdet stats    --graph data/jd1.edges
//! ensemfdet detect   --graph data/jd1.edges --method ensemfdet --threshold 20 --out flagged.txt
//! ensemfdet sweep    --graph data/jd1.edges --labels data/jd1.labels --method ensemfdet
//! ensemfdet eval     --detected flagged.txt --labels data/jd1.labels --population 4549
//! ```
//!
//! Every command is a pure function from parsed arguments to a report
//! string (plus file side-effects), so the whole surface is unit-testable
//! without spawning processes.

pub mod args;
pub mod cmd_compare;
pub mod cmd_detect;
pub mod cmd_eval;
pub mod cmd_figures;
pub mod cmd_generate;
pub mod cmd_ingest;
pub mod cmd_monitor;
pub mod cmd_stats;
pub mod cmd_sweep;
pub mod cmd_timeline;

use args::Args;

/// Top-level usage text.
pub const USAGE: &str = "\
ensemfdet — ensemble fraud detection on bipartite graphs (ICDE 2021)

USAGE:
    ensemfdet <COMMAND> [OPTIONS]

COMMANDS:
    generate   Generate a synthetic JD-like dataset (edge list + blacklist)
    timeline   Generate a multi-period campaign with drifting fraud
    monitor    Replay a ramping campaign epoch by epoch (--follow scans incrementally)
    ingest     Bulk-load a `user,merchant[,amount]` transaction log
    stats      Print statistics of an edge-list graph
    detect     Run a detector and write the flagged user ids
    sweep      Evaluate a detector's full operating curve against labels
    compare    Run every detector on a labelled dataset and tabulate
    figures    Render results/*.json into SVG figures
    eval       Score a detection file against a label file
    help       Show this message

Run `ensemfdet <COMMAND> --help` for per-command options.
";

/// Dispatches a full argument vector (excluding the program name).
/// Returns the report to print, or an error message.
pub fn run(argv: &[String]) -> Result<String, String> {
    let Some((command, rest)) = argv.split_first() else {
        return Err(USAGE.to_string());
    };
    let args = Args::parse(rest)?;
    match command.as_str() {
        "generate" => cmd_generate::run(&args),
        "timeline" => cmd_timeline::run(&args),
        "monitor" => cmd_monitor::run(&args),
        "ingest" => cmd_ingest::run(&args),
        "stats" => cmd_stats::run(&args),
        "detect" => cmd_detect::run(&args),
        "sweep" => cmd_sweep::run(&args),
        "compare" => cmd_compare::run(&args),
        "eval" => cmd_eval::run(&args),
        "figures" => cmd_figures::run(&args),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
}

/// A fresh directory for one test's files, named after the test and the
/// process id, so tests running in parallel (or two concurrent test runs)
/// never share a fixture file.
#[cfg(test)]
pub(crate) fn test_dir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ensemfdet_cli_{test}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_command_prints_usage() {
        let err = run(&[]).unwrap_err();
        assert!(err.contains("USAGE"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = run(&argv(&["frobnicate"])).unwrap_err();
        assert!(err.contains("unknown command"));
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&argv(&["help"])).unwrap();
        assert!(out.contains("COMMANDS"));
    }

    #[test]
    fn full_workflow_through_the_cli() {
        let dir = crate::test_dir("cli_full_workflow_through_the_cli");
        let stem = dir.join("ds");
        let stem_s = stem.to_str().unwrap();

        // generate
        let out = run(&argv(&[
            "generate", "--preset", "jd1", "--scale", "400", "--seed", "5", "--out", stem_s,
        ]))
        .unwrap();
        assert!(out.contains("edges"), "{out}");

        // stats
        let graph_file = format!("{stem_s}.edges");
        let out = run(&argv(&["stats", "--graph", &graph_file])).unwrap();
        assert!(out.contains("users"), "{out}");

        // detect
        let flagged = dir.join("flagged.txt");
        let out = run(&argv(&[
            "detect",
            "--graph",
            &graph_file,
            "--method",
            "ensemfdet",
            "--samples",
            "8",
            "--ratio",
            "0.2",
            "--threshold",
            "4",
            "--out",
            flagged.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("detected"), "{out}");

        // eval
        let labels_file = format!("{stem_s}.labels");
        let out = run(&argv(&[
            "eval",
            "--detected",
            flagged.to_str().unwrap(),
            "--labels",
            &labels_file,
            "--graph",
            &graph_file,
        ]))
        .unwrap();
        assert!(out.contains("precision"), "{out}");

        // sweep
        let out = run(&argv(&[
            "sweep",
            "--graph",
            &graph_file,
            "--labels",
            &labels_file,
            "--method",
            "fraudar",
            "--k",
            "5",
        ]))
        .unwrap();
        assert!(out.contains("F1"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }
}
