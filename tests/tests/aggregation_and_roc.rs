//! Cross-crate checks of the alternative evidence aggregation and the
//! ROC-smoothness contrast (the "zigzag ROC" motivation of the paper's
//! introduction).

use ensemfdet::{EnsemFdet, EnsemFdetConfig};
use ensemfdet_baselines::Fraudar;
use ensemfdet_datagen::generate;
use ensemfdet_datagen::presets::{jd_preset, JdDataset};
use ensemfdet_eval::{PrCurve, RocCurve};

fn setup() -> (ensemfdet_datagen::Dataset, ensemfdet::EnsembleOutcome) {
    let ds = generate(&jd_preset(JdDataset::Jd1, 200, 55));
    let out = EnsemFdet::new(EnsemFdetConfig {
        num_samples: 24,
        sample_ratio: 0.1,
        seed: 21,
        ..Default::default()
    })
    .detect(&ds.graph);
    (ds, out)
}

#[test]
fn evidence_aggregation_matches_vote_quality() {
    let (ds, out) = setup();
    let labels = ds.labels();

    let vote_curve = PrCurve::from_threshold_sets(&out.votes.user_threshold_sets(), &labels);

    let evidence_curve = PrCurve::from_scores(out.evidence.user_scores(), &labels);

    // The continuous evidence sweep must be at least competitive with the
    // paper's flat voting (same detections, finer ordering).
    assert!(
        evidence_curve.best_f1() > 0.85 * vote_curve.best_f1(),
        "evidence F1 {} vs vote F1 {}",
        evidence_curve.best_f1(),
        vote_curve.best_f1()
    );
    // And it offers at least as many distinct operating points.
    assert!(evidence_curve.points.len() >= vote_curve.points.len());
}

#[test]
fn evidence_and_votes_agree_on_support() {
    let (_, out) = setup();
    for (u, &votes) in out.votes.user_votes.iter().enumerate() {
        let ev = out.evidence.user_evidence[u];
        assert_eq!(votes > 0, ev > 0.0, "user {u}: votes {votes}, evidence {ev}");
    }
}

#[test]
fn ensemfdet_roc_is_smoother_than_fraudar() {
    let (ds, out) = setup();
    let labels = ds.labels();

    let ens_roc = RocCurve::from_threshold_sets(&out.votes.user_threshold_sets(), &labels);

    let fraudar_result = Fraudar::default().run(&ds.graph);
    let fra_roc = RocCurve::from_threshold_sets(&fraudar_result.operating_points(), &labels);

    // The introduction's complaint: block detectors jump in TPR. The
    // ensemble's largest jump should be markedly smaller.
    let ens_jump = ens_roc.max_tpr_jump();
    let fra_jump = fra_roc.max_tpr_jump();
    assert!(
        ens_jump < fra_jump,
        "EnsemFDet max TPR jump {ens_jump} vs Fraudar {fra_jump}"
    );
    // Both are credible detectors on planted data.
    assert!(ens_roc.auc() > 0.6, "EnsemFDet AUC {}", ens_roc.auc());
}
