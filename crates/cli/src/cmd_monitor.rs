//! `ensemfdet monitor` — replay a ramping campaign through the live
//! pipeline, scanning after every epoch.

use crate::args::Args;
use crate::cmd_detect::sampling_method;
use crate::cmd_generate::jd_dataset;
use ensemfdet::pipeline::{IngestBuffer, ScanRunner, SnapshotStore};
use ensemfdet::{EnsemFdetConfig, IncrementalPolicy};
use ensemfdet_datagen::presets::jd_preset;
use ensemfdet_datagen::ramp_timeline;
use ensemfdet_graph::{MerchantId, UserId};

const HELP: &str = "\
ensemfdet monitor — replay a ramping fraud campaign epoch by epoch

Generates one dataset and splits it into a base batch plus --epochs
batches of fraud-ring edges ramping in (the campaign builds cover first,
then lights up). Each epoch is ingested and scanned: full scans by
default, incremental dirty-sample reuse with --follow. The flagged set is
identical either way — the table shows how much work each epoch took and
how the incremental path's reuse tracks the delta. See docs/MONITORING.md
for reading the columns.

OPTIONS:
    --preset jd1|jd2|jd3  dataset model [default: jd1]
    --scale N             population divisor [default: 200]
    --epochs N            ramp epochs after the base batch [default: 6]
    --follow              scan incrementally (dirty-sample reuse)
    --max-touched F       delta fraction beyond which --follow re-peels
                          everything [default: 0.1]
    --samples N           ensemble size [default: 20]
    --ratio S             sample ratio [default: 0.2]
    --sampling M          res | ons-user | ons-merchant | tns
                          [default: ons-user — node-subset draws survive
                          edge growth; res redraws every sample whenever
                          the edge count changes]
    --threshold T         vote threshold [default: N/2]
    --seed N              RNG seed [default: 42]
    --workers W           worker threads for the sample pool; results are
                          identical for every W [default: 0 = auto]
    --scoring SPEC        run the hybrid scorer after every scan (spec as
                          in `detect --scoring`); the summary line reports
                          the final epoch's hybrid-flagged count. Scoring
                          joins the incremental cache key, so --follow
                          reuse is unaffected while the spec stays fixed
";

/// Runs the command.
pub fn run(args: &Args) -> Result<String, String> {
    if args.flag("help") {
        return Ok(HELP.to_string());
    }
    let which = jd_dataset(args.get("preset").as_deref().unwrap_or("jd1"))?;
    let scale: u32 = args.get_or("scale", 200)?;
    let epochs: usize = args.get_or("epochs", 6)?;
    if epochs == 0 {
        return Err("--epochs must be at least 1".into());
    }
    let follow = args.flag("follow");
    let policy = IncrementalPolicy {
        max_touched_fraction: args.get_or("max-touched", 0.1)?,
    };
    let sampling = sampling_method(args, "ons-user")?;
    let cfg = EnsemFdetConfig {
        num_samples: args.get_or("samples", 20)?,
        sample_ratio: args.get_or("ratio", 0.2)?,
        method: sampling,
        seed: args.get_or("seed", 42)?,
        scoring: args.get("scoring").map_or(Ok(Default::default()), |s| s.parse())?,
        ..Default::default()
    };
    let threshold: u32 = args.get_or("threshold", (cfg.num_samples as u32).div_ceil(2))?;
    let workers: usize = args.get_or("workers", 0)?;
    args.finish()?;

    let tl = ramp_timeline(&jd_preset(which, scale, cfg.seed), epochs);
    let buffer = IngestBuffer::new();
    let store = SnapshotStore::new(1);
    let mut runner = ScanRunner::new();
    runner.set_workers(workers);

    let mut lines = vec![format!(
        "mode: {} | {} epochs after base | N={} S={} sampling={:?}{}",
        if follow { "follow (incremental)" } else { "full scans" },
        epochs,
        cfg.num_samples,
        cfg.sample_ratio,
        sampling,
        if cfg.scoring.enabled {
            format!(" | hybrid@{}", cfg.scoring.hybrid_threshold)
        } else {
            String::new()
        },
    )];
    lines.push(
        "epoch  txns     delta-nodes  mode         reused/repeeled  flagged  new  millis"
            .to_string(),
    );

    let to_ids = |batch: &[(u32, u32)]| {
        batch
            .iter()
            .map(|&(u, v)| (UserId(u), MerchantId(v)))
            .collect::<Vec<_>>()
    };
    let batches = std::iter::once(&tl.base).chain(tl.epochs.iter());
    let mut last_flagged: Vec<u32> = Vec::new();
    let mut last_hybrid: Option<usize> = None;
    for batch in batches {
        buffer.append_batch(to_ids(batch));
        let snapshot = store.refresh(&buffer, true);
        let out = if follow {
            runner.run_incremental(&snapshot, &store, &cfg, threshold, &policy)
        } else {
            runner.run(&snapshot, &cfg, threshold)
        };
        let mode = match out.reuse.fallback {
            Some(reason) => format!("{}*", reason.name()),
            None => out.reuse.mode().to_string(),
        };
        lines.push(format!(
            "{:<5}  {:<7}  {:<11}  {:<11}  {:>6}/{:<8}  {:<7}  {:<3}  {:.1}",
            out.epoch,
            out.transactions,
            out.reuse.delta_touched_nodes,
            mode,
            out.reuse.samples_reused,
            out.reuse.samples_repeeled,
            out.flagged.len(),
            out.new_alerts.len(),
            out.ensemble.elapsed.as_secs_f64() * 1e3,
        ));
        last_flagged = out.flagged.iter().map(|u| u.0).collect();
        last_hybrid = out.scoring.as_ref().map(|s| s.hybrid_flagged.len());
    }

    let blacklisted = {
        let bl: std::collections::HashSet<u32> = tl.dataset.blacklist.iter().copied().collect();
        last_flagged.iter().filter(|u| bl.contains(u)).count()
    };
    lines.push(format!(
        "final epoch: {} flagged, {} of them blacklisted ({} accounts on the expert blacklist){}",
        last_flagged.len(),
        blacklisted,
        tl.dataset.blacklist.len(),
        match last_hybrid {
            Some(n) => format!(", {n} hybrid-flagged"),
            None => String::new(),
        },
    ));
    Ok(lines.join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Args {
        Args::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    /// The `reused` half of a table row's `reused/repeeled` column.
    fn reused_of(row: &str) -> usize {
        row.split_whitespace()
            .nth(4)
            .and_then(|f| f.split('/').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("unparseable row: {row}"))
    }

    #[test]
    fn follow_mode_reuses_after_the_cold_start() {
        // A clean sample needs its drawn node set disjoint from the
        // delta, which happens with probability ≈ (1-ratio)^touched — so
        // the test runs the regime reuse is for: a small ratio against
        // per-epoch deltas touching a small slice of the population.
        let out = run(&args(&[
            "--follow", "--scale", "400", "--epochs", "6", "--samples", "8",
            "--ratio", "0.05", "--max-touched", "1.0",
        ]))
        .unwrap();
        let rows: Vec<&str> = out.lines().collect();
        // Header + column row + 7 epochs (base + 6 ramp) + summary.
        assert_eq!(rows.len(), 10, "{out}");
        assert!(rows[2].contains("cold_cache*"), "first scan must fall back: {out}");
        for row in &rows[3..9] {
            assert!(row.contains("incremental"), "ramp epochs reuse: {out}");
        }
        let total_reused: usize = rows[3..9].iter().map(|r| reused_of(r)).sum();
        assert!(total_reused > 0, "no sample ever replayed: {out}");
        assert!(rows[9].starts_with("final epoch:"), "{out}");
    }

    #[test]
    fn full_and_follow_flag_the_same_accounts() {
        let common = ["--scale", "400", "--epochs", "2", "--samples", "8"];
        let full = run(&args(&common)).unwrap();
        let mut follow_args = vec!["--follow"];
        follow_args.extend_from_slice(&common);
        let follow = run(&args(&follow_args)).unwrap();
        // The summary line counts flagged/blacklisted accounts — identical
        // results means identical summaries.
        assert_eq!(full.lines().last(), follow.lines().last());
    }

    #[test]
    fn res_sampling_never_reuses_across_edge_growth() {
        let out = run(&args(&[
            "--follow", "--scale", "400", "--epochs", "2", "--samples", "4",
            "--sampling", "res", "--max-touched", "1.0",
        ]))
        .unwrap();
        // Every ramp epoch changes the edge count, so edge-subset draws
        // are all dirty: the scan is incremental but replays nothing.
        let rows: Vec<&str> = out
            .lines()
            .filter(|r| r.split_whitespace().nth(3) == Some("incremental"))
            .collect();
        assert!(!rows.is_empty(), "{out}");
        for row in rows {
            assert_eq!(reused_of(row), 0, "res must not reuse: {out}");
        }
    }

    #[test]
    fn scoring_keeps_follow_reuse_and_reports_hybrid_count() {
        let out = run(&args(&[
            "--follow", "--scale", "400", "--epochs", "3", "--samples", "8",
            "--ratio", "0.05", "--max-touched", "1.0", "--scoring", "hybrid",
        ]))
        .unwrap();
        let rows: Vec<&str> = out.lines().collect();
        assert!(rows[0].contains("hybrid@0.35"), "{out}");
        // A fixed scoring spec never perturbs the incremental cache: the
        // first scan is still the only fallback.
        assert!(rows[2].contains("cold_cache*"), "{out}");
        for row in &rows[3..rows.len() - 1] {
            assert!(row.contains("incremental"), "ramp epochs reuse: {out}");
        }
        assert!(out.lines().last().unwrap().contains("hybrid-flagged"), "{out}");
    }

    #[test]
    fn help_and_bad_preset() {
        assert!(run(&args(&["--help"])).unwrap().contains("OPTIONS"));
        assert!(run(&args(&["--preset", "jd9"])).is_err());
    }
}
