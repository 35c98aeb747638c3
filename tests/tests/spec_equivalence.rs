//! The cross-path equivalence gate for the zero-copy sampling data path.
//!
//! The mask path (sample **specs** resolved lazily against the shared
//! parent CSR) must be *bit-identical* to the reference materializing
//! path — same peeled blocks, same `φ` scores, same vote tallies — for
//! every `(sampling method, seed, ratio)`. Two levels are gated here:
//!
//! * **engine level** — `FdetEngine::run_spec(parent, spec)` against
//!   `FdetEngine::run(spec.materialize(parent))`, block by block;
//! * **ensemble level** — `EnsemFdet::detect` with
//!   `SamplePath::Mask` against `SamplePath::Materialize`, vote by vote.
//!
//! Both weighted and unweighted parents are covered: the spec-built view
//! must reproduce the materialized constructors' weight-carry rules.

use ensemfdet::engine::FdetEngine;
use ensemfdet::metric::LogWeightedMetric;
use ensemfdet::{EnsemFdet, EnsemFdetConfig, SamplePath, SamplingMethodConfig, Truncation};
use ensemfdet_datagen::generate;
use ensemfdet_datagen::presets::{jd_preset, JdDataset};
use ensemfdet_graph::{BipartiteGraph, SampleMaps, SampleSpec};
use ensemfdet_sampling::{Sampler, SamplerScratch, SamplingMethod};

const METHODS: [SamplingMethod; 4] = [
    SamplingMethod::RandomEdge,
    SamplingMethod::OneSideUser,
    SamplingMethod::OneSideMerchant,
    SamplingMethod::TwoSide,
];

const SEEDS: [u64; 3] = [3, 1717, 990_001];
const RATIOS: [f64; 2] = [0.1, 0.45];

fn unweighted_parent() -> BipartiteGraph {
    generate(&jd_preset(JdDataset::Jd1, 500, 31)).graph
}

/// A weighted parent with repeat-purchase structure: the dense block
/// carries heavy weights, the background light ones.
fn weighted_parent() -> BipartiteGraph {
    let mut edges = Vec::new();
    let mut weights = Vec::new();
    for u in 0..20u32 {
        for v in 0..8u32 {
            edges.push((u, v));
            weights.push(3.0 + f64::from((u + v) % 5));
        }
    }
    for u in 20..400u32 {
        edges.push((u, 8 + u % 37));
        weights.push(1.0);
        edges.push((u, 8 + (u * 11) % 37));
        weights.push(1.0 + f64::from(u % 2));
    }
    BipartiteGraph::from_weighted_edges(400, 45, edges, weights).unwrap()
}

/// Engine level: running FDET straight off `(parent, spec)` must agree
/// with materializing the spec first, field for field — blocks, scores,
/// `k̂`, edge count, and the local↔parent id maps.
fn check_engine_level(parent: &BipartiteGraph) {
    let metric = LogWeightedMetric::paper_default();
    let mut scratch = SamplerScratch::new();
    let mut spec = SampleSpec::new();
    let mut maps = SampleMaps::default();
    let mut engine = FdetEngine::new();

    for method in METHODS {
        for seed in SEEDS {
            for ratio in RATIOS {
                for truncation in [
                    Truncation::default(),
                    Truncation::FixedK(2),
                    Truncation::KeepAll { k_max: 6 },
                ] {
                    method.sample_spec(parent, ratio, seed, &mut scratch, &mut spec);
                    let (spec_result, spec_edges) = engine.run_spec(
                        parent,
                        &spec,
                        &metric,
                        truncation,
                        &mut maps,
                    );

                    let sampled = spec.materialize(parent);
                    let mat_result = engine.run(
                        &sampled.graph,
                        &metric,
                        truncation,
                        ensemfdet::Engine::default(),
                    );

                    let ctx = format!("{method:?} seed {seed} S {ratio} {truncation:?}");
                    assert_eq!(maps.orig_users, sampled.orig_users, "{ctx}: user map");
                    assert_eq!(
                        maps.orig_merchants, sampled.orig_merchants,
                        "{ctx}: merchant map"
                    );
                    assert_eq!(spec_edges, sampled.graph.num_edges(), "{ctx}: edge count");
                    assert_eq!(spec_result.k_hat, mat_result.k_hat, "{ctx}: k_hat");
                    assert_eq!(spec_result.scores, mat_result.scores, "{ctx}: scores");
                    assert_eq!(
                        spec_result.blocks.len(),
                        mat_result.blocks.len(),
                        "{ctx}: block count"
                    );
                    for (i, (a, b)) in spec_result
                        .blocks
                        .iter()
                        .zip(&mat_result.blocks)
                        .enumerate()
                    {
                        assert_eq!(a.users, b.users, "{ctx}: block {i} users");
                        assert_eq!(a.merchants, b.merchants, "{ctx}: block {i} merchants");
                        assert_eq!(a.edges, b.edges, "{ctx}: block {i} edges");
                        assert_eq!(a.score, b.score, "{ctx}: block {i} score");
                    }
                }
            }
        }
    }
}

/// Ensemble level: `detect` under the two paths must produce identical
/// vote tallies, evidence, and per-sample diagnostics.
fn check_ensemble_level(parent: &BipartiteGraph) {
    for method in [
        SamplingMethodConfig::RandomEdge,
        SamplingMethodConfig::OneSideUser,
        SamplingMethodConfig::OneSideMerchant,
        SamplingMethodConfig::TwoSide,
    ] {
        for seed in SEEDS {
            for ratio in RATIOS {
                let mut cfg = EnsemFdetConfig {
                    num_samples: 6,
                    sample_ratio: ratio,
                    seed,
                    method,
                    ..Default::default()
                };
                cfg.path = SamplePath::Mask;
                let mask = EnsemFdet::new(cfg).detect(parent);
                cfg.path = SamplePath::Materialize;
                let mat = EnsemFdet::new(cfg).detect(parent);

                let ctx = format!("{method:?} seed {seed} S {ratio}");
                assert_eq!(mask.votes, mat.votes, "{ctx}: votes");
                assert_eq!(
                    mask.evidence.user_evidence, mat.evidence.user_evidence,
                    "{ctx}: evidence"
                );
                for (a, b) in mask.samples.iter().zip(&mat.samples) {
                    assert_eq!(a.sample_nodes, b.sample_nodes, "{ctx} #{}", a.index);
                    assert_eq!(a.sample_edges, b.sample_edges, "{ctx} #{}", a.index);
                    assert_eq!(a.blocks_peeled, b.blocks_peeled, "{ctx} #{}", a.index);
                    assert_eq!(a.k_hat, b.k_hat, "{ctx} #{}", a.index);
                    assert_eq!(a.scores, b.scores, "{ctx} #{}", a.index);
                }
            }
        }
    }
}

#[test]
fn engine_paths_are_bit_identical_unweighted() {
    check_engine_level(&unweighted_parent());
}

#[test]
fn engine_paths_are_bit_identical_weighted() {
    check_engine_level(&weighted_parent());
}

#[test]
fn ensemble_paths_are_bit_identical_unweighted() {
    check_ensemble_level(&unweighted_parent());
}

#[test]
fn ensemble_paths_are_bit_identical_weighted() {
    check_ensemble_level(&weighted_parent());
}
