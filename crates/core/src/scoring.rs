//! Hybrid scoring: weighted fusion of complementary detection signals.
//!
//! Single methods degrade differently under camouflage — density peeling
//! loses loosely-synchronized rings, spectral methods lose large diffuse
//! ones, and k-core structure survives both (FraudTrap, arXiv:1810.08885;
//! Ban et al., arXiv:1810.06809). The [`HybridScorer`] fuses three
//! components computed **once on the parent graph** (never per sample):
//!
//! * **vote** — the ensemble's vote fraction (`votes / N`), the paper's
//!   own detector;
//! * **spectral** — SpokEn-style anomaly: each user's largest magnitude
//!   across the top-k left singular vectors of the adjacency matrix;
//! * **kcore** — the user's core number, normalized by the graph's
//!   degeneracy.
//!
//! Components are normalized (rank or min-max), floored by per-component
//! thresholds, and combined as a weighted mean, so the fused score stays
//! in `[0, 1]`. Both normalizations are strictly monotone on distinct
//! values and preserve ties, which gives the degenerate-weight guarantee
//! the property tests pin down: weight `(1, 0, 0)` reproduces the vote
//! ranking exactly (and likewise for the other corners, floors at 0).
//!
//! [`ScoringConfig`] lives inside
//! [`EnsemFdetConfig`](crate::EnsemFdetConfig), so it participates in the
//! config equality the incremental scan cache keys on: changing any
//! scoring knob between epochs triggers the documented `config_changed`
//! full-scan fallback, and an unchanged one keeps dirty-sample reuse
//! bit-identical.

use crate::aggregate::VoteTally;
use crate::detector::DetectContext;
use ensemfdet_graph::{core_decomposition, UserId};
use ensemfdet_linalg::{randomized_svd, SvdOptions};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// How raw component scores are mapped onto `[0, 1]` before fusion.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScoreNormalization {
    /// `(x - min) / (max - min)`; a constant vector maps to all zeros
    /// (no evidence separates anyone).
    #[default]
    MinMax,
    /// Competition rank: a score's fraction of strictly-smaller entries,
    /// `|{y : y < x}| / (n - 1)`. Ties share a value; robust to heavy
    /// tails in the raw scores.
    Rank,
}

impl ScoreNormalization {
    /// Stable lowercase name (`minmax` / `rank`), as
    /// [`ScoringConfig::set`] accepts it.
    pub fn name(self) -> &'static str {
        match self {
            ScoreNormalization::MinMax => "minmax",
            ScoreNormalization::Rank => "rank",
        }
    }
}

impl std::fmt::Display for ScoreNormalization {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of the hybrid scorer.
///
/// Part of [`EnsemFdetConfig`](crate::EnsemFdetConfig) — and therefore of
/// the incremental cache's equality key — because it changes what a scan
/// reports. `enabled: false` (the default) keeps scans exactly as before
/// the hybrid existed.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScoringConfig {
    /// Whether hybrid scoring runs at all.
    #[serde(default)]
    pub enabled: bool,
    /// Weight of the ensemble vote fraction.
    pub vote_weight: f64,
    /// Weight of the spectral (SpokEn-style) anomaly component.
    pub spectral_weight: f64,
    /// Weight of the normalized k-core depth component.
    pub kcore_weight: f64,
    /// Normalization applied to each component before fusion.
    #[serde(default)]
    pub normalization: ScoreNormalization,
    /// Per-component floor: normalized vote scores below it contribute 0.
    #[serde(default)]
    pub vote_floor: f64,
    /// Per-component floor for the spectral component.
    #[serde(default)]
    pub spectral_floor: f64,
    /// Per-component floor for the k-core component.
    #[serde(default)]
    pub kcore_floor: f64,
    /// Users with fused score ≥ this are hybrid-flagged.
    pub hybrid_threshold: f64,
    /// SVD components for the spectral score (clamped to the graph's
    /// dimensions at scan time).
    pub spectral_components: usize,
    /// RNG seed of the spectral component's randomized-SVD sketch.
    pub spectral_seed: u64,
}

impl Default for ScoringConfig {
    /// Hybrid off; when enabled, vote-heavy weights in the shape of the
    /// reference `score_weights` config (vote 0.6 / spectral 0.25 /
    /// k-core 0.15), min-max normalization, flag at 0.35.
    fn default() -> Self {
        ScoringConfig {
            enabled: false,
            vote_weight: 0.6,
            spectral_weight: 0.25,
            kcore_weight: 0.15,
            normalization: ScoreNormalization::default(),
            vote_floor: 0.0,
            spectral_floor: 0.0,
            kcore_floor: 0.0,
            hybrid_threshold: 0.35,
            spectral_components: 25,
            spectral_seed: 0x5C0E,
        }
    }
}

impl ScoringConfig {
    /// A default configuration with hybrid scoring switched on.
    pub fn enabled() -> Self {
        ScoringConfig {
            enabled: true,
            ..Default::default()
        }
    }

    /// The weight vector `[vote, spectral, kcore]`.
    pub fn weights(&self) -> [f64; 3] {
        [self.vote_weight, self.spectral_weight, self.kcore_weight]
    }

    /// Checks every knob; the message names the offending field. This is
    /// what backs the service's 400 `invalid_config` responses.
    pub fn validate(&self) -> Result<(), String> {
        for (name, w) in [
            ("vote", self.vote_weight),
            ("spectral", self.spectral_weight),
            ("kcore", self.kcore_weight),
        ] {
            if !w.is_finite() || w < 0.0 {
                return Err(format!(
                    "scoring weight `{name}` must be finite and >= 0, got {w}"
                ));
            }
        }
        if self.weights().iter().sum::<f64>() <= 0.0 {
            return Err("scoring weights must not all be zero".into());
        }
        for (name, t) in [
            ("vote_floor", self.vote_floor),
            ("spectral_floor", self.spectral_floor),
            ("kcore_floor", self.kcore_floor),
            ("hybrid_threshold", self.hybrid_threshold),
        ] {
            if !t.is_finite() || !(0.0..=1.0).contains(&t) {
                return Err(format!("scoring `{name}` must be in [0, 1], got {t}"));
            }
        }
        if self.spectral_components == 0 {
            return Err("scoring `spectral_components` must be at least 1".into());
        }
        Ok(())
    }
}

/// Every scoring knob: the [`ScoringConfig`] field it names (as it
/// serializes, and as [`ScoringConfig::set`] takes it), its key in the
/// CLI's `--scoring` spec, and its key in the service's `scoring` object,
/// where `weights.*` and `floors.*` are members of nested objects.
pub const SCORING_KNOBS: [(&str, Option<&str>, &str); 11] = [
    ("enabled", None, "enabled"),
    ("vote_weight", Some("vote"), "weights.vote"),
    ("spectral_weight", Some("spectral"), "weights.spectral"),
    ("kcore_weight", Some("kcore"), "weights.kcore"),
    ("normalization", Some("norm"), "normalization"),
    ("hybrid_threshold", Some("threshold"), "hybrid_threshold"),
    ("vote_floor", Some("vote-floor"), "floors.vote"),
    ("spectral_floor", Some("spectral-floor"), "floors.spectral"),
    ("kcore_floor", Some("kcore-floor"), "floors.kcore"),
    ("spectral_components", Some("components"), "components"),
    ("spectral_seed", Some("seed"), "seed"),
];

/// The readings of one knob value: each type it can be read as. A JSON
/// value gives `serde_json`'s `as_f64`, `as_u64`, `as_str` and `as_bool`;
/// `--scoring` spec text, every type it parses as.
#[derive(Clone, Copy, Debug)]
pub struct KnobValue<'a> {
    /// The value as a number.
    pub number: Option<f64>,
    /// The value as a non-negative integer.
    pub count: Option<u64>,
    /// The value as a name.
    pub text: Option<&'a str>,
    /// The value as a boolean.
    pub flag: Option<bool>,
}

impl ScoringConfig {
    /// Sets `field`, a [`SCORING_KNOBS`] field, from the value's reading of
    /// that field's type: each knob's one type check, shared by the CLI's
    /// `--scoring` spec and the service's `scoring` object. Ranges are left
    /// to [`validate`](Self::validate), which judges the whole config.
    ///
    /// # Errors
    ///
    /// What the field takes (`must be a number`, …), or that no field has
    /// the name.
    pub fn set(&mut self, field: &str, value: KnobValue<'_>) -> Result<(), String> {
        let number = value.number.ok_or("must be a number");
        let count = value.count.ok_or("must be a non-negative integer");
        match field {
            "enabled" => self.enabled = value.flag.ok_or("must be a boolean")?,
            "vote_weight" => self.vote_weight = number?,
            "spectral_weight" => self.spectral_weight = number?,
            "kcore_weight" => self.kcore_weight = number?,
            "normalization" => {
                let all = [ScoreNormalization::MinMax, ScoreNormalization::Rank];
                let named = all.into_iter().find(|n| value.text == Some(n.name()));
                self.normalization = named.ok_or("must be \"minmax\" or \"rank\"")?;
            }
            "hybrid_threshold" => self.hybrid_threshold = number?,
            "vote_floor" => self.vote_floor = number?,
            "spectral_floor" => self.spectral_floor = number?,
            "kcore_floor" => self.kcore_floor = number?,
            "spectral_components" => {
                self.spectral_components = count?.try_into().map_err(|_| "is too large")?;
            }
            "spectral_seed" => self.spectral_seed = count?,
            other => return Err(format!("no scoring field `{other}`")),
        }
        Ok(())
    }
}

impl std::str::FromStr for ScoringConfig {
    type Err = String;

    /// Parses the CLI `--scoring` spec: `hybrid` (defaults, enabled) or
    /// comma-separated `key=value` pairs, e.g.
    /// `vote=0.5,spectral=0.3,kcore=0.2,norm=rank,threshold=0.4`.
    ///
    /// The keys are [`SCORING_KNOBS`]' spec keys. Any spec enables scoring.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut cfg = ScoringConfig::enabled();
        if s == "hybrid" || s.is_empty() {
            return Ok(cfg);
        }
        for part in s.split(',') {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("scoring spec item `{part}` is not key=value"))?;
            let Some(&(field, ..)) = SCORING_KNOBS.iter().find(|k| k.1 == Some(key)) else {
                let keys: Vec<&str> = SCORING_KNOBS.iter().filter_map(|k| k.1).collect();
                return Err(format!("unknown scoring key `{key}` ({})", keys.join("|")));
            };
            let readings = KnobValue {
                number: value.parse().ok(),
                count: value.parse().ok(),
                text: Some(value),
                flag: value.parse().ok(),
            };
            cfg.set(field, readings)
                .map_err(|e| format!("scoring `{key}` value `{value}` {e}"))?;
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

/// Maps raw scores onto `[0, 1]` with the chosen normalization. Both
/// choices are strictly monotone on distinct values and preserve ties,
/// so normalization never reorders a ranking.
pub fn normalize_scores(scores: &[f64], normalization: ScoreNormalization) -> Vec<f64> {
    let n = scores.len();
    if n == 0 {
        return Vec::new();
    }
    match normalization {
        ScoreNormalization::MinMax => {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &s in scores {
                lo = lo.min(s);
                hi = hi.max(s);
            }
            if hi <= lo {
                return vec![0.0; n];
            }
            scores.iter().map(|&s| (s - lo) / (hi - lo)).collect()
        }
        ScoreNormalization::Rank => {
            if n == 1 {
                return vec![0.0];
            }
            let mut idx: Vec<usize> = (0..n).collect();
            idx.sort_by(|&a, &b| {
                scores[a]
                    .partial_cmp(&scores[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut out = vec![0.0; n];
            let denom = (n - 1) as f64;
            let mut i = 0;
            while i < n {
                // Tie group shares the count of strictly-smaller entries.
                let mut j = i;
                while j < n && scores[idx[j]] == scores[idx[i]] {
                    j += 1;
                }
                for &k in &idx[i..j] {
                    out[k] = i as f64 / denom;
                }
                i = j;
            }
            out
        }
    }
}

/// Fuses normalized component scores into one hybrid score per user.
#[derive(Clone, Copy, Debug)]
pub struct HybridScorer {
    config: ScoringConfig,
}

impl HybridScorer {
    /// Builds a scorer.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid (see [`ScoringConfig::validate`];
    /// fallible callers validate first).
    pub fn new(config: ScoringConfig) -> Self {
        config.validate().expect("invalid scoring config");
        HybridScorer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ScoringConfig {
        &self.config
    }

    /// Normalizes each raw component, applies its floor, and returns the
    /// weighted mean — one fused score in `[0, 1]` per user.
    ///
    /// # Panics
    ///
    /// Panics on component length mismatch.
    pub fn fuse(&self, vote: &[f64], spectral: &[f64], kcore: &[f64]) -> Vec<f64> {
        assert_eq!(vote.len(), spectral.len(), "component length mismatch");
        assert_eq!(vote.len(), kcore.len(), "component length mismatch");
        let cfg = &self.config;
        let norm = cfg.normalization;
        let floored = |scores: &[f64], floor: f64| -> Vec<f64> {
            let mut v = normalize_scores(scores, norm);
            if floor > 0.0 {
                for s in &mut v {
                    if *s < floor {
                        *s = 0.0;
                    }
                }
            }
            v
        };
        let v = floored(vote, cfg.vote_floor);
        let s = floored(spectral, cfg.spectral_floor);
        let k = floored(kcore, cfg.kcore_floor);
        let total = cfg.vote_weight + cfg.spectral_weight + cfg.kcore_weight;
        (0..vote.len())
            .map(|i| {
                (cfg.vote_weight * v[i] + cfg.spectral_weight * s[i] + cfg.kcore_weight * k[i])
                    / total
            })
            .collect()
    }
}

/// The per-user component and fused scores of one hybrid scan, all in
/// `[0, 1]` and indexed by parent user id.
#[derive(Clone, Debug)]
pub struct HybridScanScores {
    /// The scoring configuration that produced this.
    pub config: ScoringConfig,
    /// Raw vote fraction (`votes / N`).
    pub vote: Vec<f64>,
    /// Raw spectral anomaly (max singular-vector magnitude, clamped).
    pub spectral: Vec<f64>,
    /// k-core depth normalized by the graph's degeneracy.
    pub kcore: Vec<f64>,
    /// The fused hybrid score.
    pub hybrid: Vec<f64>,
    /// Users with `hybrid >= config.hybrid_threshold`, ascending.
    pub hybrid_flagged: Vec<UserId>,
    /// Wall-clock of the `[vote, spectral, kcore]` component passes (the
    /// vote component's slot covers only the fraction conversion — the
    /// ensemble itself is timed by the scan's stage timings). A spectral
    /// or k-core slot is zero exactly when that component was reused
    /// from a [`ScanRunner`](crate::ScanRunner)'s cache, not computed.
    pub component_times: [Duration; 3],
    /// Whether the spectral and k-core components were both reused from
    /// a [`ScanRunner`](crate::ScanRunner)'s cache of the same graph;
    /// only the vote fraction and the fusion ran. The scores are
    /// bit-identical either way.
    pub components_reused: bool,
}

impl HybridScanScores {
    /// Fuses precomputed components into one scan's scores: the fusion
    /// half of [`hybrid_scan_scores`], shared with the runner's cached
    /// path.
    pub(crate) fn fuse(
        config: &ScoringConfig,
        vote: Vec<f64>,
        spectral: Vec<f64>,
        kcore: Vec<f64>,
        component_times: [Duration; 3],
        components_reused: bool,
    ) -> Self {
        let hybrid = HybridScorer::new(*config).fuse(&vote, &spectral, &kcore);
        let hybrid_flagged = hybrid
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s >= config.hybrid_threshold)
            .map(|(i, _)| UserId(i as u32))
            .collect();
        HybridScanScores {
            config: *config,
            vote,
            spectral,
            kcore,
            hybrid,
            hybrid_flagged,
            component_times,
            components_reused,
        }
    }
}

/// The spectral anomaly component: each user's largest magnitude across
/// the top-k left singular vectors of the context's adjacency matrix
/// (SpokEn's spoke statistic), clamped to `[0, 1]`. Deterministic in
/// `(graph, components, seed)`.
pub fn spectral_scores(ctx: &DetectContext<'_>, config: &ScoringConfig) -> Vec<f64> {
    let g = ctx.graph();
    let k = config
        .spectral_components
        .min(g.num_users())
        .min(g.num_merchants());
    if k == 0 || g.num_edges() == 0 {
        return vec![0.0; g.num_users()];
    }
    randomized_svd(
        ctx.adjacency(),
        k,
        SvdOptions {
            seed: config.spectral_seed,
            ..Default::default()
        },
    )
    .max_abs_u_per_row()
    .into_iter()
    .map(|s| s.clamp(0.0, 1.0))
    .collect()
}

/// The k-core depth component: core number / degeneracy, `[0, 1]`.
pub fn kcore_scores(ctx: &DetectContext<'_>) -> Vec<f64> {
    let cores = core_decomposition(ctx.graph());
    core_depth(&cores.user_core, cores.degeneracy)
}

/// Normalizes user core numbers by the graph's degeneracy: the k-core
/// component from a retained decomposition.
pub(crate) fn core_depth(user_core: &[u32], degeneracy: u32) -> Vec<f64> {
    let max = degeneracy.max(1) as f64;
    user_core.iter().map(|&c| c as f64 / max).collect()
}

/// Runs the full hybrid pass for one scan: vote fraction from `votes`,
/// spectral and k-core components from the shared context (adjacency
/// assembled at most once), fused by [`HybridScorer`]. Everything is
/// computed on the parent graph, so the result is identical whether the
/// ensemble pass was full or incremental.
pub fn hybrid_scan_scores(
    ctx: &DetectContext<'_>,
    votes: &VoteTally,
    config: &ScoringConfig,
) -> HybridScanScores {
    let (vote, t_vote) = timed(|| votes.user_scores());
    let (spectral, t_spectral) = timed(|| spectral_scores(ctx, config));
    let (kcore, t_kcore) = timed(|| kcore_scores(ctx));
    HybridScanScores::fuse(
        config,
        vote,
        spectral,
        kcore,
        [t_vote, t_spectral, t_kcore],
        false,
    )
}

/// Runs one component pass and times it. A computed pass never reads as
/// zero, which [`HybridScanScores::component_times`] reserves for a
/// reused one.
pub(crate) fn timed<T>(pass: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = pass();
    (out, t.elapsed().max(Duration::from_nanos(1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemfdet_graph::{BipartiteGraph, GraphBuilder, MerchantId};

    fn ranking(scores: &[f64]) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..scores.len()).collect();
        idx.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap()
                .then(a.cmp(&b))
        });
        idx
    }

    #[test]
    fn minmax_maps_onto_unit_interval() {
        let out = normalize_scores(&[2.0, 4.0, 8.0], ScoreNormalization::MinMax);
        assert_eq!(out, vec![0.0, 1.0 / 3.0, 1.0]);
        // Constant input: nobody separates, everyone zero.
        assert_eq!(
            normalize_scores(&[5.0, 5.0], ScoreNormalization::MinMax),
            vec![0.0, 0.0]
        );
        assert!(normalize_scores(&[], ScoreNormalization::MinMax).is_empty());
    }

    #[test]
    fn rank_shares_value_across_ties() {
        let out = normalize_scores(&[3.0, 1.0, 3.0, 7.0], ScoreNormalization::Rank);
        assert_eq!(out, vec![1.0 / 3.0, 0.0, 1.0 / 3.0, 1.0]);
        assert_eq!(normalize_scores(&[9.0], ScoreNormalization::Rank), vec![0.0]);
    }

    #[test]
    fn normalization_preserves_ranking() {
        let raw = vec![0.3, 9.1, 0.3, 2.2, -1.0, 4.4];
        for norm in [ScoreNormalization::MinMax, ScoreNormalization::Rank] {
            let out = normalize_scores(&raw, norm);
            assert_eq!(ranking(&raw), ranking(&out), "{norm}");
            assert!(out.iter().all(|s| (0.0..=1.0).contains(s)), "{norm}");
        }
    }

    #[test]
    fn degenerate_weights_reproduce_single_component_ranking() {
        let vote = vec![0.9, 0.1, 0.5, 0.0, 0.7];
        let spectral = vec![0.2, 0.8, 0.1, 0.9, 0.3];
        let kcore = vec![0.5, 0.5, 1.0, 0.2, 0.0];
        for (weights, component) in [
            ([1.0, 0.0, 0.0], &vote),
            ([0.0, 1.0, 0.0], &spectral),
            ([0.0, 0.0, 1.0], &kcore),
        ] {
            for norm in [ScoreNormalization::MinMax, ScoreNormalization::Rank] {
                let cfg = ScoringConfig {
                    enabled: true,
                    vote_weight: weights[0],
                    spectral_weight: weights[1],
                    kcore_weight: weights[2],
                    normalization: norm,
                    ..Default::default()
                };
                let fused = HybridScorer::new(cfg).fuse(&vote, &spectral, &kcore);
                assert_eq!(ranking(&fused), ranking(component), "{weights:?} {norm}");
            }
        }
    }

    #[test]
    fn fused_scores_stay_in_unit_interval() {
        let fused = HybridScorer::new(ScoringConfig::enabled()).fuse(
            &[0.0, 0.5, 1.0],
            &[0.9, 0.9, 0.9],
            &[1.0, 0.0, 0.5],
        );
        assert!(fused.iter().all(|s| s.is_finite() && (0.0..=1.0).contains(s)));
    }

    #[test]
    fn floors_zero_weak_components() {
        let cfg = ScoringConfig {
            enabled: true,
            vote_weight: 1.0,
            spectral_weight: 0.0,
            kcore_weight: 0.0,
            vote_floor: 0.6,
            ..Default::default()
        };
        let fused = HybridScorer::new(cfg).fuse(&[0.1, 0.9, 1.0], &[0.0; 3], &[0.0; 3]);
        assert_eq!(fused[0], 0.0, "below floor after min-max");
        assert!(fused[1] > 0.0 && fused[2] > 0.0);
    }

    #[test]
    fn validation_names_the_bad_field() {
        let mut cfg = ScoringConfig::enabled();
        cfg.spectral_weight = -0.2;
        assert!(cfg.validate().unwrap_err().contains("spectral"));
        let mut cfg = ScoringConfig::enabled();
        cfg.vote_weight = 0.0;
        cfg.spectral_weight = 0.0;
        cfg.kcore_weight = 0.0;
        assert!(cfg.validate().unwrap_err().contains("all be zero"));
        let mut cfg = ScoringConfig::enabled();
        cfg.hybrid_threshold = 1.5;
        assert!(cfg.validate().unwrap_err().contains("hybrid_threshold"));
        let mut cfg = ScoringConfig::enabled();
        cfg.vote_weight = f64::NAN;
        assert!(cfg.validate().is_err());
        assert!(ScoringConfig::enabled().validate().is_ok());
    }

    #[test]
    fn spec_parsing_round_trips_the_knobs() {
        let cfg: ScoringConfig = "vote=0.5,spectral=0.3,kcore=0.2,norm=rank,threshold=0.4"
            .parse()
            .unwrap();
        assert!(cfg.enabled);
        assert_eq!(cfg.weights(), [0.5, 0.3, 0.2]);
        assert_eq!(cfg.normalization, ScoreNormalization::Rank);
        assert_eq!(cfg.hybrid_threshold, 0.4);

        let defaults: ScoringConfig = "hybrid".parse().unwrap();
        assert!(defaults.enabled);
        assert_eq!(defaults.weights(), ScoringConfig::default().weights());

        assert!("vote=oops".parse::<ScoringConfig>().is_err());
        assert!("banana=1".parse::<ScoringConfig>().is_err());
        assert!("vote=0,spectral=0,kcore=0".parse::<ScoringConfig>().is_err());
    }

    #[test]
    fn config_serde_defaults_keep_old_configs_valid() {
        // A config JSON written before scoring existed must deserialize
        // with scoring disabled (the incremental-cache compatibility
        // story): every field has a serde default or is present here.
        let json = r#"{"vote_weight":0.6,"spectral_weight":0.25,"kcore_weight":0.15,
                       "hybrid_threshold":0.35,"spectral_components":25,"spectral_seed":2}"#;
        let cfg: ScoringConfig = serde_json::from_str(json).unwrap();
        assert!(!cfg.enabled);
        assert_eq!(cfg.normalization, ScoreNormalization::MinMax);
    }

    fn planted() -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        for u in 0..8u32 {
            for v in 0..4u32 {
                b.add_edge(UserId(u), MerchantId(v));
            }
        }
        for u in 8..60u32 {
            b.add_edge(UserId(u), MerchantId(4 + u % 23));
        }
        b.build()
    }

    #[test]
    fn components_are_finite_unit_interval_and_deterministic() {
        let g = planted();
        let ctx = DetectContext::new(&g);
        let cfg = ScoringConfig::enabled();
        let spec1 = spectral_scores(&ctx, &cfg);
        let spec2 = spectral_scores(&ctx, &cfg);
        assert_eq!(spec1, spec2);
        let cores = kcore_scores(&ctx);
        for scores in [&spec1, &cores] {
            assert_eq!(scores.len(), g.num_users());
            assert!(scores
                .iter()
                .all(|s| s.is_finite() && (0.0..=1.0).contains(s)));
        }
        // The planted block sits deeper in the core structure than the
        // degree-1 background.
        assert!(cores[0] > cores[20]);
    }

    #[test]
    fn empty_and_single_edge_graphs_do_not_panic() {
        let empty = BipartiteGraph::from_edges(3, 2, vec![]).unwrap();
        let single = BipartiteGraph::from_edges(2, 2, vec![(0, 1)]).unwrap();
        for g in [&empty, &single] {
            let ctx = DetectContext::new(g);
            let cfg = ScoringConfig::enabled();
            let mut votes = VoteTally::new(g.num_users(), g.num_merchants());
            votes.add_sample([], []);
            let out = hybrid_scan_scores(&ctx, &votes, &cfg);
            assert_eq!(out.hybrid.len(), g.num_users());
            assert!(out
                .hybrid
                .iter()
                .all(|s| s.is_finite() && (0.0..=1.0).contains(s)));
        }
    }

    #[test]
    fn hybrid_scan_flags_at_threshold() {
        let g = planted();
        let ctx = DetectContext::new(&g);
        let mut votes = VoteTally::new(g.num_users(), g.num_merchants());
        votes.add_sample((0..8).map(UserId), (0..4).map(MerchantId));
        votes.add_sample((0..8).map(UserId), []);
        let cfg = ScoringConfig::enabled();
        let out = hybrid_scan_scores(&ctx, &votes, &cfg);
        for &u in &out.hybrid_flagged {
            assert!(out.hybrid[u.index()] >= cfg.hybrid_threshold);
        }
        // Block users got every vote and the spectral/core mass: all
        // flagged; zero-vote background users with degree 1 are not.
        assert!(out.hybrid_flagged.iter().any(|u| u.0 < 8));
        assert!(out.hybrid_flagged.iter().all(|u| u.0 < 8));
    }
}
