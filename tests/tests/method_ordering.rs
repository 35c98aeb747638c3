//! The Figure 3 shape as an invariant: on planted-block data the
//! dense-subgraph methods (EnsemFDet, Fraudar) must decisively beat the
//! spectral baselines, and EnsemFDet must track Fraudar closely.

use ensemfdet::{EnsemFdet, EnsemFdetConfig};
use ensemfdet_baselines::{FBox, Fraudar, Spoken};
use ensemfdet_datagen::generate;
use ensemfdet_datagen::presets::{jd_preset, JdDataset};
use ensemfdet_eval::PrCurve;

fn curves() -> (f64, f64, f64, f64) {
    let ds = generate(&jd_preset(JdDataset::Jd1, 150, 21));
    let labels = ds.labels();

    let out = EnsemFdet::new(EnsemFdetConfig {
        num_samples: 32,
        sample_ratio: 0.1,
        seed: 17,
        ..Default::default()
    })
    .detect(&ds.graph);
    let ens = PrCurve::from_threshold_sets(&out.votes.user_threshold_sets(), &labels).best_f1();

    let fraudar_result = Fraudar::default().run(&ds.graph);
    let fra = PrCurve::from_threshold_sets(&fraudar_result.operating_points(), &labels).best_f1();

    let spk = PrCurve::from_scores(&Spoken::default().score_users(&ds.graph), &labels).best_f1();
    let fbx = PrCurve::from_scores(&FBox::default().score_users(&ds.graph), &labels).best_f1();
    (ens, fra, spk, fbx)
}

#[test]
fn dense_subgraph_methods_beat_spectral_baselines() {
    let (ens, fra, spk, fbx) = curves();
    assert!(ens > spk, "EnsemFDet {ens} vs SpokEn {spk}");
    assert!(ens > fbx, "EnsemFDet {ens} vs FBox {fbx}");
    assert!(fra > spk, "Fraudar {fra} vs SpokEn {spk}");
    assert!(fra > fbx, "Fraudar {fra} vs FBox {fbx}");
}

#[test]
fn ensemfdet_tracks_fraudar() {
    let (ens, fra, _, _) = curves();
    // The paper's claim: close performance despite 10x less work per core.
    assert!(
        ens > 0.8 * fra,
        "EnsemFDet {ens} fell too far below Fraudar {fra}"
    );
}
