//! `ensemfdet stats` — graph statistics.

use crate::args::Args;
use ensemfdet_eval::Table;
use ensemfdet_graph::{io, GraphStats};

const HELP: &str = "\
ensemfdet stats — print statistics of an edge-list graph

OPTIONS:
    --graph FILE     the edge list to inspect (required)
";

/// Runs the command.
pub fn run(args: &Args) -> Result<String, String> {
    if args.flag("help") {
        return Ok(HELP.to_string());
    }
    let path = args.require("graph")?;
    args.finish()?;

    let g = io::load_edge_list(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let s = GraphStats::of(&g);

    let mut t = Table::new(&["statistic", "value"]);
    t.row(&["users".into(), s.num_users.to_string()]);
    t.row(&["merchants".into(), s.num_merchants.to_string()]);
    t.row(&["edges".into(), s.num_edges.to_string()]);
    t.row(&["avg user degree".into(), format!("{:.3}", s.avg_user_degree)]);
    t.row(&[
        "avg merchant degree".into(),
        format!("{:.3}", s.avg_merchant_degree),
    ]);
    t.row(&["max user degree".into(), s.max_user_degree.to_string()]);
    t.row(&[
        "max merchant degree".into(),
        s.max_merchant_degree.to_string(),
    ]);
    t.row(&["isolated users".into(), s.isolated_users.to_string()]);
    t.row(&[
        "isolated merchants".into(),
        s.isolated_merchants.to_string(),
    ]);
    t.row(&["density".into(), format!("{:.3e}", s.density)]);
    Ok(t.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemfdet_graph::BipartiteGraph;

    fn args(parts: &[&str]) -> Args {
        Args::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn stats_of_small_graph() {
        let dir = crate::test_dir("stats_stats_of_small_graph");
        let path = dir.join("g.edges");
        let g = BipartiteGraph::from_edges(3, 2, vec![(0, 0), (1, 1), (2, 0)]).unwrap();
        io::save_edge_list(&g, &path).unwrap();
        let out = run(&args(&["--graph", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("users"));
        assert!(out.contains('3'));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let err = run(&args(&["--graph", "/nonexistent/g.edges"])).unwrap_err();
        assert!(err.contains("cannot read"));
    }

    #[test]
    fn help_flag() {
        assert!(run(&args(&["--help"])).unwrap().contains("OPTIONS"));
    }
}
