//! Cross-crate validation of the sampling theory on realistic graphs:
//! Theorem 1's ε-approximation of the density score, the Lemma 1 bias
//! measured on generated data, and thread-count invariance of the
//! ensemble (results are a pure function of `(graph, config)`, not of
//! how the samples were scheduled).

use ensemfdet::metric::LogWeightedMetric;
use ensemfdet::peel::density_of_subset;
use ensemfdet::{EnsemFdet, EnsemFdetConfig, SamplePath, SamplingMethodConfig};
use ensemfdet_datagen::generate;
use ensemfdet_datagen::presets::{jd_preset, JdDataset};
use ensemfdet_graph::{MerchantId, UserId};
use ensemfdet_sampling::weighted::epsilon_approx_sample;
use ensemfdet_sampling::{Sampler, SamplingMethod};

/// Theorem 1 (empirically): the weighted edge sample's density score of the
/// planted block converges to the original as p grows.
#[test]
fn weighted_sampling_approximates_block_density() {
    let ds = generate(&jd_preset(JdDataset::Jd1, 300, 13));
    let g = &ds.graph;
    let metric = LogWeightedMetric::paper_default();

    // Reference: density of the first planted group in the full graph.
    let group = &ds.groups[0];
    let users: Vec<UserId> = group.users.iter().map(|&u| UserId(u)).collect();
    let merchants: Vec<MerchantId> = group.merchants.iter().map(|&v| MerchantId(v)).collect();
    let phi_full = density_of_subset(g, &metric, &users, &merchants);
    assert!(phi_full > 0.0);

    let p = 0.5;
    let trials = 20u64;
    let mut phis = Vec::new();
    for seed in 0..trials {
        let s = epsilon_approx_sample(g, p, seed);
        // Map the group into the sample's local id space.
        let u_map: std::collections::HashMap<u32, u32> = s
            .orig_users
            .iter()
            .enumerate()
            .map(|(l, &p)| (p, l as u32))
            .collect();
        let v_map: std::collections::HashMap<u32, u32> = s
            .orig_merchants
            .iter()
            .enumerate()
            .map(|(l, &p)| (p, l as u32))
            .collect();
        let lu: Vec<UserId> = group
            .users
            .iter()
            .filter_map(|u| u_map.get(u).map(|&l| UserId(l)))
            .collect();
        let lv: Vec<MerchantId> = group
            .merchants
            .iter()
            .filter_map(|v| v_map.get(v).map(|&l| MerchantId(l)))
            .collect();
        phis.push(density_of_subset(&s.graph, &metric, &lu, &lv));
    }
    let mean: f64 = phis.iter().sum::<f64>() / phis.len() as f64;
    // The 1/p re-weighting makes f(S) unbiased; |S| shrinks slightly (some
    // nodes drop out entirely), so the mean density lands near φ_full.
    let rel = (mean - phi_full).abs() / phi_full;
    assert!(
        rel < 0.35,
        "mean sampled block density {mean:.4} vs full {phi_full:.4} (rel {rel:.2})"
    );
}

/// Lemma 1 on generated data: RES includes the popular (high-degree)
/// merchants at a higher rate than merchant-node sampling at the same
/// ratio.
#[test]
fn res_bias_toward_hubs_holds_on_generated_data() {
    let ds = generate(&jd_preset(JdDataset::Jd1, 300, 14));
    let g = &ds.graph;
    // The 5 most popular merchants.
    let mut by_degree: Vec<(usize, u32)> = (0..g.num_merchants())
        .map(|v| (g.merchant_degree(MerchantId(v as u32)), v as u32))
        .collect();
    by_degree.sort_unstable_by(|a, b| b.cmp(a));
    let hubs: Vec<u32> = by_degree[..5].iter().map(|&(_, v)| v).collect();

    let ratio = 0.1;
    let trials = 60u64;
    let mut res_hits = 0usize;
    let mut ons_hits = 0usize;
    for seed in 0..trials {
        let res = SamplingMethod::RandomEdge.sample(g, ratio, seed);
        let ons = SamplingMethod::OneSideMerchant.sample(g, ratio, seed);
        let in_sample = |s: &ensemfdet_graph::SampledGraph, v: u32| s.orig_merchants.contains(&v);
        res_hits += hubs.iter().filter(|&&v| in_sample(&res, v)).count();
        ons_hits += hubs.iter().filter(|&&v| in_sample(&ons, v)).count();
    }
    // RES includes every hub almost surely; ONS only at the 10% base rate.
    assert!(res_hits as f64 > 0.95 * (trials as f64 * 5.0), "res {res_hits}");
    assert!((ons_hits as f64) < 0.3 * (trials as f64 * 5.0), "ons {ons_hits}");
}

/// TNS keeps ≈ S² of the edges on generated data (Section IV-A4).
#[test]
fn tns_edge_fraction_on_generated_data() {
    let ds = generate(&jd_preset(JdDataset::Jd1, 300, 15));
    let g = &ds.graph;
    let ratio = 0.3;
    let trials = 30u64;
    let mut kept = 0usize;
    for seed in 0..trials {
        kept += SamplingMethod::TwoSide.sample(g, ratio, seed).graph.num_edges();
    }
    let frac = kept as f64 / (trials as f64 * g.num_edges() as f64);
    assert!(
        (frac - ratio * ratio).abs() < 0.05,
        "TNS kept fraction {frac:.3}, expected ≈ {:.3}",
        ratio * ratio
    );
}

/// Ensemble votes for a fixed `(N, S, seed)` must not depend on how many
/// worker threads ran the samples: per-sample seeds derive from the
/// sample index, per-thread scratch (sampler marks, spec resolver,
/// engine cache) carries no state between samples, and results are
/// written back by position.
#[test]
fn ensemble_votes_are_thread_count_invariant() {
    let ds = generate(&jd_preset(JdDataset::Jd1, 400, 21));
    let g = &ds.graph;

    for path in [SamplePath::Mask, SamplePath::Materialize] {
        for method in [
            SamplingMethodConfig::RandomEdge,
            SamplingMethodConfig::OneSideUser,
            SamplingMethodConfig::TwoSide,
        ] {
            let cfg = EnsemFdetConfig {
                num_samples: 12,
                sample_ratio: 0.3,
                seed: 0x5EED,
                method,
                path,
                ..Default::default()
            };
            let parallel = EnsemFdet::with_workers(cfg, 4).detect(g);
            let serial = EnsemFdet::with_workers(cfg, 1).detect(g);
            assert_eq!(
                parallel.votes, serial.votes,
                "{method:?}/{path:?}: votes changed with thread count"
            );
            assert_eq!(
                parallel.evidence.user_evidence, serial.evidence.user_evidence,
                "{method:?}/{path:?}: evidence changed with thread count"
            );
            let summarize = |o: &ensemfdet::EnsembleOutcome| {
                o.samples
                    .iter()
                    .map(|s| (s.index, s.sample_nodes, s.sample_edges, s.scores.clone()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                summarize(&parallel),
                summarize(&serial),
                "{method:?}/{path:?}: per-sample results changed with thread count"
            );
        }
    }
}

/// The two sample paths agree on real generated data end to end, and the
/// mask path's per-sample bookkeeping stays proportional to the sample
/// selection rather than the parent graph.
#[test]
fn sample_paths_agree_on_generated_data() {
    let ds = generate(&jd_preset(JdDataset::Jd1, 400, 22));
    let g = &ds.graph;
    let mut cfg = EnsemFdetConfig {
        num_samples: 8,
        sample_ratio: 0.1,
        seed: 99,
        ..Default::default()
    };
    cfg.path = SamplePath::Mask;
    let mask = EnsemFdet::new(cfg).detect(g);
    cfg.path = SamplePath::Materialize;
    let mat = EnsemFdet::new(cfg).detect(g);
    assert_eq!(mask.votes, mat.votes);
    assert!(
        mask.sample_bytes() < mat.sample_bytes() / 4,
        "mask path should materialize far fewer bytes: {} vs {}",
        mask.sample_bytes(),
        mat.sample_bytes()
    );
}
