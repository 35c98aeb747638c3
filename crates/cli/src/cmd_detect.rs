//! `ensemfdet detect` — run a detector and write flagged users.

use crate::args::Args;
use crate::cmd_sweep::{baseline, Family, BASELINES};
use ensemfdet::{
    hybrid_scan_scores, DetectContext, EnsemFdet, EnsemFdetConfig, EnsembleOutcome,
    HybridScanScores, SamplingMethodConfig,
};
use ensemfdet_graph::{io, BipartiteGraph};
use std::io::Write;

const HELP: &str = "\
ensemfdet detect — run a detector and write the flagged user ids

OPTIONS:
    --graph FILE          the edge list to scan (required)
    --method NAME         ensemfdet | fraudar | spoken | fbox | hits | kcore | degree
                          [default: ensemfdet]
    --out FILE            write flagged user ids, one per line
    --scores FILE         also write `user<TAB>score` for every user
  ensemfdet:
    --samples N           ensemble size N [default: 80]
    --ratio S             sample ratio S [default: 0.1]
    --threshold T         vote threshold [default: N/2]
    --sampling M          res | ons-user | ons-merchant | tns [default: res]
    --seed N              RNG seed [default: 42]
    --workers W           worker threads for the sample pool; results are
                          identical for every W [default: 0 = auto]
    --timing              print the ensemble's wall-clock breakdown
    --scoring SPEC        fuse the vote fraction with spectral and k-core
                          components (hybrid scoring). SPEC is `hybrid`
                          for the defaults or `key=value` pairs:
                          vote|spectral|kcore (weights), norm=minmax|rank,
                          threshold, vote-floor|spectral-floor|kcore-floor,
                          components, seed. Flags the hybrid set and writes
                          hybrid scores to --scores.
  fraudar:
    --k N                 number of blocks [default: 30]
  spoken / fbox:
    --components N        SVD rank [default: 25]
  score methods (spoken, fbox, hits, kcore, degree):
    --top N               flag the N highest-scoring users [default: 100]
";

/// Parses `--sampling`, falling back to `default` when it is absent.
pub(crate) fn sampling_method(args: &Args, default: &str) -> Result<SamplingMethodConfig, String> {
    match args.get("sampling").as_deref().unwrap_or(default) {
        "res" => Ok(SamplingMethodConfig::RandomEdge),
        "ons-user" => Ok(SamplingMethodConfig::OneSideUser),
        "ons-merchant" => Ok(SamplingMethodConfig::OneSideMerchant),
        "tns" => Ok(SamplingMethodConfig::TwoSide),
        other => Err(format!(
            "unknown sampling `{other}` (res|ons-user|ons-merchant|tns)"
        )),
    }
}

/// Ensemble timing: total wall-clock, per-sample mean/max, the speedup
/// the worker pool actually realized (sum of sample times / wall-clock), the
/// worker count with each worker's busy time, the per-stage CPU-time
/// split (sampling / detection / aggregation), and the bytes of sample
/// state the ensemble materialized.
pub(crate) fn timing_summary(outcome: &EnsembleOutcome) -> String {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let n = outcome.samples.len().max(1);
    let total = outcome.total_sample_time();
    let busy_max = outcome
        .worker_times
        .iter()
        .max()
        .copied()
        .unwrap_or_default();
    let busy_mean =
        outcome.worker_times.iter().map(|d| ms(*d)).sum::<f64>() / outcome.workers.max(1) as f64;
    format!(
        "timing: {:.1} ms wall-clock over {} samples; per-sample mean {:.1} ms, max {:.1} ms; realized speedup {:.1}x\n\
         workers: {} (busy mean {:.1} ms, max {:.1} ms)\n\
         stages: sampling {:.1} ms, detection {:.1} ms, aggregation {:.1} ms (CPU time summed over samples)\n\
         samples: {} bytes materialized ({:.0} per sample)",
        ms(outcome.elapsed),
        n,
        ms(total) / n as f64,
        ms(outcome.max_sample_time()),
        ms(total) / ms(outcome.elapsed).max(1e-9),
        outcome.workers,
        busy_mean,
        ms(busy_max),
        ms(outcome.stages.sampling),
        ms(outcome.stages.detection),
        ms(outcome.stages.aggregation),
        outcome.sample_bytes(),
        outcome.sample_bytes() as f64 / n as f64,
    )
}

pub(crate) fn ensemfdet_config(args: &Args) -> Result<EnsemFdetConfig, String> {
    Ok(EnsemFdetConfig {
        num_samples: args.get_or("samples", 80)?,
        sample_ratio: args.get_or("ratio", 0.1)?,
        method: sampling_method(args, "res")?,
        seed: args.get_or("seed", 42)?,
        scoring: args.get("scoring").map_or(Ok(Default::default()), |s| s.parse())?,
        ..Default::default()
    })
}

/// Runs the hybrid scoring pass on the parent graph when the config asks
/// for it. Shared by `detect` and `sweep`.
pub(crate) fn hybrid_pass(
    g: &BipartiteGraph,
    outcome: &EnsembleOutcome,
    cfg: &EnsemFdetConfig,
) -> Option<HybridScanScores> {
    cfg.scoring.enabled.then(|| {
        let ctx = DetectContext::new(g);
        hybrid_scan_scores(&ctx, &outcome.votes, &cfg.scoring)
    })
}

/// One-line human summary of a hybrid pass.
pub(crate) fn hybrid_summary(scores: &HybridScanScores) -> String {
    let cfg = &scores.config;
    format!(
        "hybrid: {} users at threshold {} (weights vote={} spectral={} kcore={}, {} normalization)",
        scores.hybrid_flagged.len(),
        cfg.hybrid_threshold,
        cfg.vote_weight,
        cfg.spectral_weight,
        cfg.kcore_weight,
        cfg.normalization,
    )
}

/// Runs the command.
pub fn run(args: &Args) -> Result<String, String> {
    if args.flag("help") {
        return Ok(HELP.to_string());
    }
    let path = args.require("graph")?;
    let method = args.get("method").unwrap_or_else(|| "ensemfdet".into());
    let out_path = args.get("out");
    let scores_path = args.get("scores");

    let g = io::load_edge_list(&path).map_err(|e| format!("cannot read {path}: {e}"))?;

    let mut timing_note: Option<String> = None;
    let mut hybrid_note: Option<String> = None;
    let (detected, scores): (Vec<u32>, Option<Vec<f64>>) = match method.as_str() {
        "ensemfdet" => {
            let cfg = ensemfdet_config(args)?;
            let threshold: u32 = args.get_or("threshold", (cfg.num_samples as u32).div_ceil(2))?;
            let workers: usize = args.get_or("workers", 0)?;
            let timing = args.flag("timing");
            args.finish()?;
            let outcome = EnsemFdet::with_workers(cfg, workers).detect(&g);
            if timing {
                timing_note = Some(timing_summary(&outcome));
            }
            if let Some(hybrid) = hybrid_pass(&g, &outcome, &cfg) {
                // The hybrid set and fused scores replace the vote ones
                // in --out / --scores; the summary names both counts.
                hybrid_note = Some(hybrid_summary(&hybrid));
                let detected = hybrid.hybrid_flagged.iter().map(|u| u.0).collect();
                (detected, Some(hybrid.hybrid))
            } else {
                let detected = outcome
                    .votes
                    .detected_users(threshold.max(1))
                    .into_iter()
                    .map(|u| u.0)
                    .collect();
                (detected, Some(outcome.votes.user_scores()))
            }
        }
        m if BASELINES.contains(&m) => match baseline(m, &g, args)? {
            // Fraudar's last operating point: every block it peeled.
            Family::Sets(mut sets) => {
                args.finish()?;
                (sets.pop().map(|(_, users)| users).unwrap_or_default(), None)
            }
            Family::Scores(scores) => {
                let top: usize = args.get_or("top", 100)?;
                args.finish()?;
                let mut order: Vec<u32> = (0..g.num_users() as u32).collect();
                order.sort_by(|&a, &b| {
                    scores[b as usize]
                        .partial_cmp(&scores[a as usize])
                        .expect("finite scores")
                        .then(a.cmp(&b))
                });
                let detected = order
                    .into_iter()
                    .take(top)
                    .filter(|&u| scores[u as usize] > 0.0)
                    .collect();
                (detected, Some(scores))
            }
        },
        other => return Err(format!("unknown method `{other}`\n\n{HELP}")),
    };

    if let Some(p) = &out_path {
        io::save_labels(&detected, p).map_err(|e| format!("cannot write {p}: {e}"))?;
    }
    if let Some(p) = &scores_path {
        let scores = scores
            .as_ref()
            .ok_or_else(|| format!("method `{method}` does not produce per-user scores"))?;
        let f = std::fs::File::create(p).map_err(|e| format!("cannot write {p}: {e}"))?;
        let mut w = std::io::BufWriter::new(f);
        for (u, s) in scores.iter().enumerate() {
            writeln!(w, "{u}\t{s}").map_err(|e| format!("cannot write {p}: {e}"))?;
        }
    }

    let mut report = format!(
        "{method}: detected {} of {} users on {path}",
        detected.len(),
        g.num_users()
    );
    if let Some(h) = hybrid_note {
        report.push('\n');
        report.push_str(&h);
    }
    if let Some(t) = timing_note {
        report.push('\n');
        report.push_str(&t);
    }
    if let Some(p) = out_path {
        report.push_str(&format!("\nflagged ids written to {p}"));
    }
    if let Some(p) = scores_path {
        report.push_str(&format!("\nscores written to {p}"));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemfdet_graph::{GraphBuilder, MerchantId, UserId};

    fn args(parts: &[&str]) -> Args {
        Args::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    fn graph_file(test: &str) -> String {
        let dir = crate::test_dir(test);
        let path = dir.join("g.edges");
        let mut b = GraphBuilder::new();
        for u in 0..8u32 {
            for v in 0..4u32 {
                b.add_edge(UserId(u), MerchantId(v));
            }
        }
        for u in 8..60u32 {
            b.add_edge(UserId(u), MerchantId(4 + u % 20));
        }
        io::save_edge_list(&b.build(), &path).unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn ensemfdet_detects_block() {
        let gf = graph_file("detect_ensemfdet_detects_block");
        let out = run(&args(&[
            "--graph", &gf, "--samples", "10", "--ratio", "0.5", "--threshold", "8",
        ]))
        .unwrap();
        assert!(out.contains("detected"));
    }

    #[test]
    fn scoring_flag_runs_hybrid_and_reports() {
        let gf = graph_file("detect_scoring_flag_runs_hybrid_and_reports");
        let dir = crate::test_dir("detect_scoring_flag_runs_hybrid_and_reports");
        let scores = dir.join("hybrid.tsv");
        let out = run(&args(&[
            "--graph",
            &gf,
            "--samples",
            "10",
            "--ratio",
            "0.5",
            "--scoring",
            "vote=0.6,spectral=0.25,kcore=0.15,threshold=0.5",
            "--scores",
            scores.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("hybrid:"), "{out}");
        assert!(out.contains("minmax normalization"), "{out}");
        // Written scores are the fused hybrid, all in [0, 1].
        let content = std::fs::read_to_string(&scores).unwrap();
        assert_eq!(content.lines().count(), 60);
        for line in content.lines() {
            let s: f64 = line.split('\t').nth(1).unwrap().parse().unwrap();
            assert!((0.0..=1.0).contains(&s), "{line}");
        }
    }

    #[test]
    fn scoring_flag_determinism_and_validation() {
        let gf = graph_file("detect_scoring_flag_determinism_and_validation");
        let base = &["--graph", gf.as_str(), "--samples", "8", "--ratio", "0.5"];
        let one = run(&args(&[base as &[_], &["--scoring", "hybrid"]].concat())).unwrap();
        let two = run(&args(&[base as &[_], &["--scoring", "hybrid"]].concat())).unwrap();
        assert_eq!(one, two, "hybrid scans must be deterministic");
        let err =
            run(&args(&[base as &[_], &["--scoring", "vote=0,spectral=0,kcore=0"]].concat()))
                .unwrap_err();
        assert!(err.contains("all be zero"), "{err}");
        let err = run(&args(&[base as &[_], &["--scoring", "banana=1"]].concat())).unwrap_err();
        assert!(err.contains("unknown scoring key"), "{err}");
    }

    #[test]
    fn timing_flag_reports_breakdown() {
        let gf = graph_file("detect_timing_flag_reports_breakdown");
        let out = run(&args(&[
            "--graph", &gf, "--samples", "6", "--ratio", "0.5", "--timing",
        ]))
        .unwrap();
        assert!(out.contains("wall-clock over 6 samples"), "{out}");
        assert!(out.contains("per-sample mean"), "{out}");
        assert!(out.contains("stages: sampling"), "{out}");
        assert!(out.contains("bytes materialized"), "{out}");
        assert!(out.contains("workers: "), "{out}");
    }

    #[test]
    fn workers_flag_is_result_invariant_and_reported() {
        let gf = graph_file("detect_workers_flag_is_result_invariant_and_reported");
        let base = &["--graph", gf.as_str(), "--samples", "6", "--ratio", "0.5"];
        let one = run(&args(&[base as &[_], &["--workers", "1"]].concat())).unwrap();
        let four = run(&args(&[base as &[_], &["--workers", "4"]].concat())).unwrap();
        assert_eq!(one, four, "worker count changed the flagged set");
        // --timing names the pinned pool size.
        let timed = run(&args(
            &[base as &[_], &["--workers", "2", "--timing"]].concat(),
        ))
        .unwrap();
        assert!(timed.contains("workers: 2"), "{timed}");
    }

    #[test]
    fn every_method_runs() {
        let gf = graph_file("detect_every_method_runs");
        let out = run(&args(&["--graph", &gf, "--method", "fraudar", "--k", "5"])).unwrap();
        assert!(out.contains("detected"), "fraudar: {out}");
        for m in ["spoken", "fbox", "hits", "kcore", "degree"] {
            let out = run(&args(&["--graph", &gf, "--method", m, "--top", "8"])).unwrap();
            assert!(out.contains("detected"), "{m}: {out}");
        }
    }

    /// `--method fraudar` flags its last operating point, which is
    /// `detected_users_after(k)`: every peeled block's users, and nobody
    /// on an edgeless graph.
    #[test]
    fn fraudar_flags_every_peeled_block() {
        let planted = graph_file("detect_fraudar_flags_every_peeled_block");
        let dir = crate::test_dir("detect_fraudar_flags_every_peeled_block");
        let edgeless = dir.join("edgeless.edges");
        let empty = BipartiteGraph::from_edges(4, 3, vec![]).unwrap();
        io::save_edge_list(&empty, &edgeless).unwrap();
        let flagged = dir.join("flagged.txt");
        for gf in [planted.as_str(), edgeless.to_str().unwrap()] {
            run(&args(&[
                "--graph",
                gf,
                "--method",
                "fraudar",
                "--out",
                flagged.to_str().unwrap(),
            ]))
            .unwrap();
            let g = io::load_edge_list(gf).unwrap();
            let expected = ensemfdet_baselines::Fraudar::default()
                .run(&g)
                .detected_users_after(30);
            assert_eq!(io::load_labels(&flagged).unwrap(), expected, "{gf}");
        }
    }

    #[test]
    fn out_and_scores_files_are_written() {
        let gf = graph_file("detect_out_and_scores_files_are_written");
        let dir = crate::test_dir("detect_out_and_scores_files_are_written");
        let flagged = dir.join("flagged.txt");
        let scores = dir.join("scores.tsv");
        run(&args(&[
            "--graph",
            &gf,
            "--method",
            "degree",
            "--top",
            "5",
            "--out",
            flagged.to_str().unwrap(),
            "--scores",
            scores.to_str().unwrap(),
        ]))
        .unwrap();
        let flagged_ids = io::load_labels(&flagged).unwrap();
        assert_eq!(flagged_ids.len(), 5);
        let scored = std::fs::read_to_string(&scores).unwrap();
        assert_eq!(scored.lines().count(), 60);
    }

    #[test]
    fn unknown_method_rejected() {
        let gf = graph_file("detect_unknown_method_rejected");
        let err = run(&args(&["--graph", &gf, "--method", "magic"])).unwrap_err();
        assert!(err.contains("magic"));
    }

    #[test]
    fn unknown_option_rejected() {
        let gf = graph_file("detect_unknown_option_rejected");
        let err = run(&args(&["--graph", &gf, "--threshhold", "3"])).unwrap_err();
        assert!(err.contains("threshhold"));
    }

    #[test]
    fn fraudar_scores_request_is_an_error() {
        let gf = graph_file("detect_fraudar_scores_request_is_an_error");
        let err = run(&args(&[
            "--graph", &gf, "--method", "fraudar", "--scores", "/tmp/s.tsv",
        ]))
        .unwrap_err();
        assert!(err.contains("does not produce"));
    }
}
