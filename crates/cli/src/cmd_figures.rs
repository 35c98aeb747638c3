//! `ensemfdet figures` — render SVG figures from experiment artifacts.

use crate::args::Args;

const HELP: &str = "\
ensemfdet figures — render results/*.json into SVG figures

OPTIONS:
    --results DIR    artifact directory [default: results]
";

/// Runs the command.
pub fn run(args: &Args) -> Result<String, String> {
    if args.flag("help") {
        return Ok(HELP.to_string());
    }
    let dir = args.get("results").unwrap_or_else(|| "results".into());
    args.finish()?;
    let written = ensemfdet_viz::figures::render_all(std::path::Path::new(&dir))
        .map_err(|e| format!("render failed: {e}"))?;
    if written.is_empty() {
        Ok(format!(
            "no renderable artifacts in {dir}/ — run the bench experiments first\n\
             (cargo run --release -p ensemfdet-bench --bin run_all)"
        ))
    } else {
        Ok(written.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Args {
        Args::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn renders_from_custom_dir() {
        let dir = crate::test_dir("figures_renders_from_custom_dir");
        std::fs::write(
            dir.join("fig1_block_scores.json"),
            r#"[{"sample": 0, "scores": [0.5, 0.2], "k_hat": 1}]"#,
        )
        .unwrap();
        let out = run(&args(&["--results", dir.to_str().unwrap()])).unwrap();
        assert!(out.contains("fig1.svg"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dir_reports_gracefully() {
        let dir = crate::test_dir("figures_empty_dir_reports_gracefully");
        let out = run(&args(&["--results", dir.to_str().unwrap()])).unwrap();
        assert!(out.contains("no renderable artifacts"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
