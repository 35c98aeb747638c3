#![warn(missing_docs)]

//! Experiment harness reproducing every table and figure of the EnsemFDet
//! paper's evaluation (Section V) on synthetic Table I-scale datasets,
//! plus four ablations beyond the paper.
//!
//! Every experiment is one entry of [`experiments::EXPERIMENTS`]. The
//! `run_all` binary runs them in one process, all of them or the ones it
//! is given by name; each prints the paper's rows/series as text tables
//! and writes a JSON artifact under `results/`. The dataset scale is
//! `1/N` of the paper's populations for `--scale N` (default
//! [`DEFAULT_SCALE`]), so every experiment grows or shrinks consistently.
//!
//! Timing lives in one place: the pinned benchmark
//! (`src/bin/benchmark/`), which drives the live HTTP service end to end
//! and attributes each run to its layers.

pub mod datasets;
pub mod experiments;
pub mod methods;
pub mod output;

use experiments::{Experiment, EXPERIMENTS};

/// Default population divisor relative to the paper's Table I.
pub const DEFAULT_SCALE: u32 = 40;

/// `run_all`'s command line, as `--help` prints it.
pub fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!(
        "usage: run_all [NAME ...] [--scale N]\n\n\
         Runs the named experiments, or all of them in the order below, at 1/N of the\n\
         paper's Table I populations (N >= 1, default {DEFAULT_SCALE}), then renders the\n\
         figures. Artifacts go to $ENSEMFDET_RESULTS (default results/).\n\n\
         NAME: {}\n",
        names.join("\n      ")
    )
}

/// What `run_all`'s command line asks for.
pub struct Plan {
    /// The population divisor, at least 1.
    pub scale: u32,
    /// The experiments to run, in order.
    pub experiments: Vec<&'static Experiment>,
}

/// Reads `run_all`'s arguments (without the program name): experiment
/// names and `--scale N`. No names means every experiment. Anything else
/// is an error naming the argument.
pub fn parse_args(args: &[String]) -> Result<Plan, String> {
    let mut scale = DEFAULT_SCALE;
    let mut experiments = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "--scale" {
            let value = args.next().ok_or("--scale needs a value")?;
            scale = value
                .parse()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("invalid --scale `{value}`"))?;
        } else {
            let experiment =
                experiments::find(arg).ok_or_else(|| format!("unknown argument `{arg}`"))?;
            experiments.push(experiment);
        }
    }
    if experiments.is_empty() {
        experiments = EXPERIMENTS.iter().collect();
    }
    Ok(Plan { scale, experiments })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Plan, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn scale_from_args_wins() {
        assert_eq!(parse(&["--scale", "123"]).unwrap().scale, 123);
    }

    #[test]
    fn malformed_scale_is_refused() {
        for (args, err) in [
            (&["--scale", "abc"][..], "invalid --scale `abc`"),
            (&["--scale", "0"], "invalid --scale `0`"),
            (&["--scale", "-4"], "invalid --scale `-4`"),
            (&["--scale", "2.5"], "invalid --scale `2.5`"),
            (&["--scale"], "--scale needs a value"),
            (&["--sacle", "400"], "unknown argument `--sacle`"),
            (&["--scale=400"], "unknown argument `--scale=400`"),
            (
                &["fig3_method_comparison", "fig2"],
                "unknown argument `fig2`",
            ),
        ] {
            assert_eq!(parse(args).err().as_deref(), Some(err), "{args:?}");
        }
    }

    #[test]
    fn default_scale_without_args() {
        let plan = parse(&[]).unwrap();
        assert_eq!(plan.scale, DEFAULT_SCALE);
        let names: Vec<&str> = plan.experiments.iter().map(|e| e.name).collect();
        let table: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names, table);
    }

    #[test]
    fn names_run_only_those_in_the_order_given() {
        let plan = parse(&["fig9_impact_t", "--scale", "20", "table1_datasets"]).unwrap();
        assert_eq!(plan.scale, 20);
        let names: Vec<&str> = plan.experiments.iter().map(|e| e.name).collect();
        assert_eq!(names, ["fig9_impact_t", "table1_datasets"]);
    }
}
