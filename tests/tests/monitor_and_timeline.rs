//! Cross-crate: the scan pipeline (ingest buffer → snapshot store → scan
//! runner) consuming generated campaign data, and detection across a
//! drifting multi-period timeline.

use ensemfdet::{EnsemFdetConfig, IngestBuffer, ScanRunner, SnapshotStore};
use ensemfdet_datagen::presets::{jd_preset, JdDataset};
use ensemfdet_datagen::{generate, generate_timeline, BehaviorDrift, TimelineConfig};
use ensemfdet_eval::group_recall;
use ensemfdet_graph::{MerchantId, UserId};

#[test]
fn monitor_catches_generated_rings_during_replay() {
    let ds = generate(&jd_preset(JdDataset::Jd1, 300, 91));
    let detector = EnsemFdetConfig {
        num_samples: 16,
        sample_ratio: 0.2,
        seed: 5,
        ..Default::default()
    };
    // The alert threshold sits well below N: each sample's auto-truncated
    // detection keeps only the ring's densest core (~40% of members), so
    // individual members' votes spread.
    let threshold = 4;

    // Replay the generated purchase log through the pipeline.
    let buffer = IngestBuffer::new();
    buffer.append_batch(ds.graph.edges().map(|(_, u, v, _)| (u, v)));
    assert_eq!(buffer.len(), ds.graph.num_edges());

    let snapshot = SnapshotStore::new(usize::MAX).refresh(&buffer, true);
    let report = ScanRunner::new().run(&snapshot, &detector, threshold);
    let detected: Vec<u32> = report.flagged.iter().map(|u| u.0).collect();
    let groups: Vec<Vec<u32>> = ds.groups.iter().map(|g| g.users.clone()).collect();
    let gr = group_recall(&groups, &detected, 0.5);
    assert!(
        gr >= 0.99,
        "monitor missed planted rings: group recall {gr} ({} flagged)",
        detected.len()
    );
    // And the flags are precise: honest accounts stay clear at this T.
    let fraud: std::collections::HashSet<u32> = ds.true_fraud_users.iter().copied().collect();
    let false_pos = detected.iter().filter(|u| !fraud.contains(u)).count();
    assert!(
        (false_pos as f64) < 0.2 * detected.len() as f64,
        "{false_pos} honest accounts among {} flags",
        detected.len()
    );
    // The snapshot matches what was ingested (dedup aside).
    assert_eq!(snapshot.graph.num_edges(), ds.graph.num_edges());
}

#[test]
fn monitor_alerts_are_stable_across_repeated_scans() {
    let detector = EnsemFdetConfig {
        num_samples: 10,
        sample_ratio: 0.5,
        seed: 8,
        ..Default::default()
    };
    let buffer = IngestBuffer::new();
    for u in 0..12u32 {
        for v in 0..4u32 {
            buffer.append(UserId(u), MerchantId(v));
        }
    }
    for u in 12..200u32 {
        buffer.append(UserId(u), MerchantId(4 + u % 60));
    }
    let snapshots = SnapshotStore::new(usize::MAX);
    let mut runner = ScanRunner::new();
    let first = runner.run(&snapshots.refresh(&buffer, true), &detector, 6);
    let second = runner.run(&snapshots.refresh(&buffer, true), &detector, 6);
    // Same data + deterministic seeds ⇒ identical flags, no re-alerts.
    assert_eq!(first.flagged, second.flagged);
    assert!(second.new_alerts.is_empty());
}

#[test]
fn detection_holds_across_early_timeline_periods() {
    let cfg = TimelineConfig {
        base: jd_preset(JdDataset::Jd1, 300, 92),
        periods: 3,
        drift: BehaviorDrift {
            density_factor: 0.85,
            camouflage_step: 0,
        },
    };
    let periods = generate_timeline(&cfg);
    let detector = ensemfdet::EnsemFdet::new(EnsemFdetConfig {
        num_samples: 20,
        sample_ratio: 0.1,
        seed: 6,
        ..Default::default()
    });
    let mut group_recalls = Vec::new();
    for ds in &periods {
        let out = detector.detect(&ds.graph);
        let t = (out.votes.max_user_votes() / 3).max(1);
        let detected: Vec<u32> = out.votes.detected_users(t).into_iter().map(|u| u.0).collect();
        let groups: Vec<Vec<u32>> = ds.groups.iter().map(|g| g.users.clone()).collect();
        group_recalls.push(group_recall(&groups, &detected, 0.5));
    }
    // Mild drift (0.85²) must not break ring-level detection.
    for (p, gr) in group_recalls.iter().enumerate() {
        assert!(*gr > 0.9, "period {p}: group recall {gr}");
    }
}
