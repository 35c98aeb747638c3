//! Persistence round-trips across crates: datasets written to disk must
//! produce identical detections when reloaded.

use ensemfdet::{EnsemFdet, EnsemFdetConfig};
use ensemfdet_datagen::presets::{jd_preset, JdDataset};
use ensemfdet_datagen::{generate, Dataset};

/// A fresh directory for one test's files, named after the test and the
/// process id, so parallel tests never share a fixture file.
fn test_dir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ensemfdet_tests_{test}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tmp_stem(name: &str) -> std::path::PathBuf {
    test_dir(name).join(name)
}

#[test]
fn saved_dataset_detects_identically() {
    let ds = generate(&jd_preset(JdDataset::Jd2, 400, 8));
    let stem = tmp_stem("jd2_roundtrip");
    ds.save(&stem).unwrap();
    let loaded = Dataset::load(&stem).unwrap();

    assert_eq!(loaded.graph.num_users(), ds.graph.num_users());
    assert_eq!(loaded.graph.num_merchants(), ds.graph.num_merchants());
    assert_eq!(loaded.graph.edge_slice(), ds.graph.edge_slice());
    assert_eq!(loaded.blacklist, ds.blacklist);

    let cfg = EnsemFdetConfig {
        num_samples: 10,
        sample_ratio: 0.2,
        seed: 44,
        ..Default::default()
    };
    let a = EnsemFdet::new(cfg).detect(&ds.graph);
    let b = EnsemFdet::new(cfg).detect(&loaded.graph);
    assert_eq!(a.votes, b.votes, "detection differs after disk round-trip");
}

#[test]
fn labels_vector_matches_blacklist_after_reload() {
    let ds = generate(&jd_preset(JdDataset::Jd1, 400, 9));
    let stem = tmp_stem("jd1_labels");
    ds.save(&stem).unwrap();
    let loaded = Dataset::load(&stem).unwrap();
    let labels = loaded.labels();
    assert_eq!(
        labels.iter().filter(|&&l| l).count(),
        loaded.blacklist.len()
    );
    for &u in &loaded.blacklist {
        assert!(labels[u as usize]);
    }
}
