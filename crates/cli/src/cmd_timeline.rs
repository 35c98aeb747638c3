//! `ensemfdet timeline` — generate a multi-period drifting campaign.

use crate::args::Args;
use crate::cmd_generate::jd_dataset;
use ensemfdet_datagen::presets::jd_preset;
use ensemfdet_datagen::{generate_timeline, BehaviorDrift, TimelineConfig};

const HELP: &str = "\
ensemfdet timeline — generate a sequence of drifting campaign periods

Writes STEM.p0.edges/.labels, STEM.p1.edges/.labels, … Fraud behaviour
drifts period over period (rings thin out); account spaces are independent,
as in the paper's time-separated datasets.

OPTIONS:
    --out STEM            output stem (required)
    --preset jd1|jd2|jd3  base dataset model [default: jd1]
    --scale N             population divisor [default: 200]
    --periods N           number of periods [default: 4]
    --density-factor F    per-period ring-density multiplier [default: 0.8]
    --camouflage-step N   extra camouflage edges per period [default: 0]
    --seed N              RNG seed [default: 42]
";

/// Runs the command.
pub fn run(args: &Args) -> Result<String, String> {
    if args.flag("help") {
        return Ok(HELP.to_string());
    }
    let out = args.require("out")?;
    let which = jd_dataset(args.get("preset").as_deref().unwrap_or("jd1"))?;
    let scale: u32 = args.get_or("scale", 200)?;
    let periods: usize = args.get_or("periods", 4)?;
    let cfg = TimelineConfig {
        base: jd_preset(which, scale, args.get_or("seed", 42)?),
        periods,
        drift: BehaviorDrift {
            density_factor: args.get_or("density-factor", 0.8)?,
            camouflage_step: args.get_or("camouflage-step", 0)?,
        },
    };
    args.finish()?;

    let datasets = generate_timeline(&cfg);
    let mut lines = Vec::new();
    for (p, ds) in datasets.iter().enumerate() {
        let stem = format!("{out}.p{p}");
        ds.save(&stem).map_err(|e| format!("cannot write {stem}: {e}"))?;
        let (users, fraud, merchants, edges) = ds.table1_row();
        lines.push(format!(
            "period {p}: {stem}.edges — {users} users ({fraud} blacklisted), {merchants} merchants, {edges} edges"
        ));
    }
    Ok(lines.join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Args {
        Args::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn writes_every_period() {
        let dir = crate::test_dir("timeline_writes_every_period");
        let stem = dir.join("tl").to_str().unwrap().to_string();
        let out = run(&args(&[
            "--out", &stem, "--scale", "400", "--periods", "3",
        ]))
        .unwrap();
        assert_eq!(out.lines().count(), 3);
        for p in 0..3 {
            assert!(std::path::Path::new(&format!("{stem}.p{p}.edges")).exists());
            assert!(std::path::Path::new(&format!("{stem}.p{p}.labels")).exists());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn help_flag() {
        assert!(run(&args(&["--help"])).unwrap().contains("OPTIONS"));
    }
}
