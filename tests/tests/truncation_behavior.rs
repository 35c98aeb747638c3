//! The Figure 6 claim as an invariant: automatic truncation is at least as
//! good as a large fixed k on planted data, while peeling fewer blocks.

use ensemfdet::fdet::Truncation;
use ensemfdet::{EnsemFdet, EnsemFdetConfig};
use ensemfdet_datagen::generate;
use ensemfdet_datagen::presets::{jd_preset, JdDataset};
use ensemfdet_eval::PrCurve;

fn best_f1_and_blocks(truncation: Truncation) -> (f64, f64) {
    let ds = generate(&jd_preset(JdDataset::Jd1, 200, 77));
    let labels = ds.labels();
    let out = EnsemFdet::new(EnsemFdetConfig {
        num_samples: 20,
        sample_ratio: 0.1,
        truncation,
        seed: 3,
        ..Default::default()
    })
    .detect(&ds.graph);
    let curve = PrCurve::from_threshold_sets(&out.votes.user_threshold_sets(), &labels);
    let avg_k_hat = out.samples.iter().map(|s| s.k_hat as f64).sum::<f64>()
        / out.samples.len() as f64;
    (curve.best_f1(), avg_k_hat)
}

#[test]
fn auto_truncation_is_no_worse_than_fixed_k30_and_cheaper() {
    let (auto_f1, auto_k) = best_f1_and_blocks(Truncation::Auto {
        k_max: 50,
        patience: 5,
    });
    let (fixed_f1, fixed_k) = best_f1_and_blocks(Truncation::FixedK(30));
    assert!(
        auto_f1 >= fixed_f1 * 0.95,
        "auto F1 {auto_f1} much worse than fixed-k F1 {fixed_f1}"
    );
    assert!(
        auto_k < fixed_k / 2.0,
        "auto keeps {auto_k:.1} blocks vs fixed {fixed_k:.1} — should be <half"
    );
}

#[test]
fn truncating_points_stay_small() {
    // The paper records every k̂ < 15 on real data.
    let ds = generate(&jd_preset(JdDataset::Jd3, 400, 78));
    let out = EnsemFdet::new(EnsemFdetConfig {
        num_samples: 16,
        sample_ratio: 0.1,
        seed: 9,
        ..Default::default()
    })
    .detect(&ds.graph);
    for s in &out.samples {
        assert!(s.k_hat < 15, "sample {} k̂ = {}", s.index, s.k_hat);
    }
}
