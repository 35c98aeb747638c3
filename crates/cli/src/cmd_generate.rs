//! `ensemfdet generate` — synthesize a dataset to disk.

use crate::args::Args;
use ensemfdet_datagen::presets::{jd_preset, JdDataset};
use ensemfdet_datagen::{generate, CamouflageTargeting, FraudGroupConfig, GeneratorConfig};

const HELP: &str = "\
ensemfdet generate — synthesize a JD-like transaction dataset

OPTIONS:
    --out STEM            output stem; writes STEM.edges and STEM.labels (required)
    --preset jd1|jd2|jd3  model one of the paper's Table I datasets
    --scale N             population divisor for the preset [default: 100]
    --seed N              RNG seed [default: 42]
  custom mode (instead of --preset):
    --users N             honest users [default: 20000]
    --merchants N         honest merchants [default: 8000]
    --groups N            fraud groups [default: 6]
    --group-users N       users per group [default: 150]
    --group-merchants N   merchants per group [default: 12]
    --density F           in-group edge probability [default: 0.6]
    --camouflage N        camouflage edges per fraud user [default: 2]
    --camouflage-uniform  target camouflage uniformly instead of by popularity
";

/// Parses a `--preset` value: one of the paper's Table I datasets.
pub(crate) fn jd_dataset(name: &str) -> Result<JdDataset, String> {
    match name {
        "jd1" => Ok(JdDataset::Jd1),
        "jd2" => Ok(JdDataset::Jd2),
        "jd3" => Ok(JdDataset::Jd3),
        other => Err(format!("unknown preset `{other}` (jd1|jd2|jd3)")),
    }
}

/// Runs the command.
pub fn run(args: &Args) -> Result<String, String> {
    if args.flag("help") {
        return Ok(HELP.to_string());
    }
    let out = args.require("out")?;
    let seed: u64 = args.get_or("seed", 42)?;

    let cfg: GeneratorConfig = match args.get("preset") {
        Some(preset) => {
            let scale: u32 = args.get_or("scale", 100)?;
            jd_preset(jd_dataset(&preset)?, scale, seed)
        }
        None => {
            let groups: usize = args.get_or("groups", 6)?;
            let targeting = if args.flag("camouflage-uniform") {
                CamouflageTargeting::UniformRandom
            } else {
                CamouflageTargeting::PopularityBiased
            };
            GeneratorConfig {
                num_honest_users: args.get_or("users", 20_000)?,
                num_honest_merchants: args.get_or("merchants", 8_000)?,
                fraud_groups: vec![
                    FraudGroupConfig {
                        num_users: args.get_or("group-users", 150)?,
                        num_merchants: args.get_or("group-merchants", 12)?,
                        density: args.get_or("density", 0.6)?,
                        camouflage_per_user: args.get_or("camouflage", 2)?,
                        camouflage: targeting,
                    };
                    groups
                ],
                seed,
                ..Default::default()
            }
        }
    };
    // Consume preset-mode options in custom mode and vice versa so finish()
    // only flags true typos.
    let _ = args.get("scale");
    let _ = args.get("users");
    args.finish()?;

    let ds = generate(&cfg);
    ds.save(&out).map_err(|e| format!("cannot write {out}: {e}"))?;
    let (users, fraud, merchants, edges) = ds.table1_row();
    Ok(format!(
        "wrote {out}.edges and {out}.labels\n\
         users: {users} ({fraud} blacklisted)  merchants: {merchants}  edges: {edges}\n\
         planted groups: {}  ring merchants: {}",
        ds.groups.len(),
        ds.fraud_merchants.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Args {
        Args::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    fn tmp(test: &str, name: &str) -> String {
        let dir = crate::test_dir(test);
        dir.join(name).to_str().unwrap().to_string()
    }

    #[test]
    fn help_flag() {
        assert!(run(&args(&["--help"])).unwrap().contains("OPTIONS"));
    }

    #[test]
    fn preset_mode_writes_files() {
        let stem = tmp("generate_preset_mode_writes_files", "preset");
        let out = run(&args(&["--out", &stem, "--preset", "jd1", "--scale", "400"])).unwrap();
        assert!(out.contains("blacklisted"));
        assert!(std::path::Path::new(&format!("{stem}.edges")).exists());
        assert!(std::path::Path::new(&format!("{stem}.labels")).exists());
    }

    #[test]
    fn custom_mode_respects_sizes() {
        let stem = tmp("generate_custom_mode_respects_sizes", "custom");
        let out = run(&args(&[
            "--out", &stem, "--users", "500", "--merchants", "200", "--groups", "2",
            "--group-users", "20", "--group-merchants", "4", "--camouflage-uniform",
        ]))
        .unwrap();
        assert!(out.contains("planted groups: 2"), "{out}");
    }

    #[test]
    fn unknown_preset_rejected() {
        let err = run(&args(&["--out", "/tmp/x", "--preset", "jd9"])).unwrap_err();
        assert!(err.contains("jd9"));
    }

    #[test]
    fn typo_rejected() {
        let stem = tmp("generate_typo_rejected", "typo");
        let err = run(&args(&["--out", &stem, "--persent", "jd1"])).unwrap_err();
        assert!(err.contains("--persent"));
    }

    #[test]
    fn missing_out_rejected() {
        let err = run(&args(&["--preset", "jd1"])).unwrap_err();
        assert!(err.contains("--out"));
    }
}
