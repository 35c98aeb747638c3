//! `ensemfdet eval` — score a detection file against a label file.

use crate::args::Args;
use ensemfdet_eval::confusion;
use ensemfdet_graph::io;

const HELP: &str = "\
ensemfdet eval — precision/recall/F1 of a detection file

OPTIONS:
    --detected FILE    flagged user ids, one per line (required)
    --labels FILE      blacklist user ids, one per line (required)
    --graph FILE       edge list defining the user population
    --population N     population size (alternative to --graph)
";

/// Runs the command.
pub fn run(args: &Args) -> Result<String, String> {
    if args.flag("help") {
        return Ok(HELP.to_string());
    }
    let detected_path = args.require("detected")?;
    let labels_path = args.require("labels")?;
    let graph_path = args.get("graph");
    let population_opt: Option<usize> = match args.get("population") {
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| format!("option --population: cannot parse `{raw}`"))?,
        ),
        None => None,
    };
    args.finish()?;

    let detected =
        io::load_labels(&detected_path).map_err(|e| format!("cannot read {detected_path}: {e}"))?;
    let blacklist =
        io::load_labels(&labels_path).map_err(|e| format!("cannot read {labels_path}: {e}"))?;

    let population = match (population_opt, graph_path) {
        (Some(n), _) => n,
        (None, Some(gp)) => io::load_edge_list(&gp)
            .map_err(|e| format!("cannot read {gp}: {e}"))?
            .num_users(),
        (None, None) => {
            // Fall back to the max id seen anywhere.
            detected
                .iter()
                .chain(blacklist.iter())
                .map(|&u| u as usize + 1)
                .max()
                .unwrap_or(0)
        }
    };

    let mut labels = vec![false; population];
    for &u in &blacklist {
        *labels
            .get_mut(u as usize)
            .ok_or_else(|| format!("label id {u} exceeds population {population}"))? = true;
    }
    let mut detected_sorted = detected;
    detected_sorted.sort_unstable();
    detected_sorted.dedup();
    if let Some(&max) = detected_sorted.last() {
        if max as usize >= population {
            return Err(format!("detected id {max} exceeds population {population}"));
        }
    }

    let c = confusion(&detected_sorted, &labels);
    Ok(format!(
        "population: {population}\nblacklisted: {}\ndetected: {}\n\
         tp: {}  fp: {}  fn: {}  tn: {}\n\
         precision: {:.4}\nrecall:    {:.4}\nF1:        {:.4}",
        blacklist.len(),
        c.detected(),
        c.tp,
        c.fp,
        c.fn_,
        c.tn,
        c.precision(),
        c.recall(),
        c.f1()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Args {
        Args::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    fn write_ids(test: &str, name: &str, ids: &[u32]) -> String {
        let dir = crate::test_dir(test);
        let path = dir.join(name);
        io::save_labels(ids, &path).unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn computes_metrics() {
        let det = write_ids("eval_computes_metrics", "det.txt", &[0, 1, 5]);
        let lab = write_ids("eval_computes_metrics", "lab.txt", &[0, 1, 2, 3]);
        let out = run(&args(&[
            "--detected", &det, "--labels", &lab, "--population", "10",
        ]))
        .unwrap();
        assert!(out.contains("tp: 2"));
        assert!(out.contains("precision: 0.6667"), "{out}");
        assert!(out.contains("recall:    0.5000"), "{out}");
    }

    #[test]
    fn population_inferred_without_graph() {
        let det = write_ids("eval_population_inferred_without_graph", "det2.txt", &[7]);
        let lab = write_ids(
            "eval_population_inferred_without_graph",
            "lab2.txt",
            &[7, 9],
        );
        let out = run(&args(&["--detected", &det, "--labels", &lab])).unwrap();
        assert!(out.contains("population: 10"), "{out}");
    }

    #[test]
    fn out_of_population_detected_rejected() {
        let det = write_ids(
            "eval_out_of_population_detected_rejected",
            "det3.txt",
            &[99],
        );
        let lab = write_ids("eval_out_of_population_detected_rejected", "lab3.txt", &[1]);
        let err = run(&args(&[
            "--detected", &det, "--labels", &lab, "--population", "10",
        ]))
        .unwrap_err();
        assert!(err.contains("exceeds population"));
    }
}
