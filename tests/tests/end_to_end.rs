//! End-to-end: synthetic campaign data → ensemble detection → evaluation.

use ensemfdet::{EnsemFdet, EnsemFdetConfig};
use ensemfdet_datagen::generate;
use ensemfdet_datagen::presets::{jd_preset, JdDataset};
use ensemfdet_eval::{confusion, PrCurve};

fn detect(cfg_seed: u64) -> (ensemfdet_datagen::Dataset, ensemfdet::EnsembleOutcome) {
    let ds = generate(&jd_preset(JdDataset::Jd1, 200, 31));
    let out = EnsemFdet::new(EnsemFdetConfig {
        num_samples: 24,
        sample_ratio: 0.1,
        seed: cfg_seed,
        ..Default::default()
    })
    .detect(&ds.graph);
    (ds, out)
}

#[test]
fn ensemble_beats_chance_decisively() {
    let (ds, out) = detect(1);
    let labels = ds.labels();
    let curve = PrCurve::from_threshold_sets(&out.votes.user_threshold_sets(), &labels);
    let prevalence = ds.blacklist.len() as f64 / ds.graph.num_users() as f64;
    assert!(
        curve.best_f1() > 5.0 * prevalence,
        "best F1 {} vs prevalence {}",
        curve.best_f1(),
        prevalence
    );
    assert!(curve.best_f1() > 0.4, "best F1 {}", curve.best_f1());
}

#[test]
fn precision_trends_up_and_recall_down_with_t() {
    let (ds, out) = detect(2);
    let labels = ds.labels();
    let max_t = out.votes.max_user_votes();
    assert!(max_t >= 4, "not enough votes to sweep");
    // Compare the low-T and high-T halves in aggregate (pointwise
    // monotonicity is statistical, not guaranteed).
    let stats: Vec<(f64, f64)> = (1..=max_t)
        .map(|t| {
            let detected: Vec<u32> = out.votes.detected_users(t).into_iter().map(|u| u.0).collect();
            let c = confusion(&detected, &labels);
            (c.precision(), c.recall())
        })
        .collect();
    let half = stats.len() / 2;
    let lo_p: f64 = stats[..half].iter().map(|s| s.0).sum::<f64>() / half as f64;
    let hi_p: f64 =
        stats[half..].iter().map(|s| s.0).sum::<f64>() / (stats.len() - half) as f64;
    let lo_r: f64 = stats[..half].iter().map(|s| s.1).sum::<f64>() / half as f64;
    let hi_r: f64 =
        stats[half..].iter().map(|s| s.1).sum::<f64>() / (stats.len() - half) as f64;
    assert!(hi_p >= lo_p * 0.95, "precision fell with T: {lo_p} → {hi_p}");
    assert!(hi_r < lo_r, "recall must fall with T: {lo_r} → {hi_r}");
    // Recall is *strictly* monotone non-increasing pointwise (set shrinks).
    for w in stats.windows(2) {
        assert!(w[1].1 <= w[0].1 + 1e-12);
    }
}

#[test]
fn detection_is_reproducible_across_processes_shape() {
    let (_, a) = detect(3);
    let (_, b) = detect(3);
    assert_eq!(a.votes, b.votes);
    let (_, c) = detect(4);
    assert_ne!(a.votes.user_votes, c.votes.user_votes);
}

#[test]
fn detected_high_confidence_users_are_mostly_planted_fraud() {
    let (ds, out) = detect(5);
    let fraud: std::collections::HashSet<u32> = ds.true_fraud_users.iter().copied().collect();
    let t = (out.votes.max_user_votes() / 2).max(1);
    let detected = out.votes.detected_users(t);
    assert!(!detected.is_empty());
    let hits = detected.iter().filter(|u| fraud.contains(&u.0)).count();
    let rate = hits as f64 / detected.len() as f64;
    assert!(
        rate > 0.8,
        "only {hits}/{} high-confidence detections are planted fraud",
        detected.len()
    );
}
