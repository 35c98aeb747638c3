//! Incremental scans are bit-identical to from-scratch scans.
//!
//! The incremental path (`ScanRunner::run_incremental`) replays cached
//! per-sample contributions that the epoch delta provably left unchanged
//! and re-peels the rest. Its correctness claim is exact equality, not
//! approximation: for any `(epoch, seed)`, the votes and flagged set must
//! match a full `ScanRunner::run` of the same snapshot bit for bit —
//! across seeds, dataset presets, multi-epoch ingest sequences, the
//! cold-cache first epoch, and the oversized-delta fallback.

use ensemfdet::pipeline::{IngestBuffer, ScanRunner, SnapshotStore};
use ensemfdet::{EnsemFdetConfig, FallbackReason, IncrementalPolicy, SamplingMethodConfig};
use ensemfdet_datagen::presets::{jd_preset, JdDataset};
use ensemfdet_datagen::ramp_timeline;
use ensemfdet_graph::{MerchantId, UserId};
use std::time::Duration;

const THRESHOLD: u32 = 6;

fn to_ids(batch: &[(u32, u32)]) -> Vec<(UserId, MerchantId)> {
    batch.iter().map(|&(u, v)| (UserId(u), MerchantId(v))).collect()
}

fn config(seed: u64) -> EnsemFdetConfig {
    EnsemFdetConfig {
        num_samples: 12,
        // Small ratio: a cached node-subset sample stays clean with
        // probability ≈ (1-ratio)^touched, so this is the regime where
        // reuse actually fires and the replay machinery gets exercised
        // (not just the all-dirty degenerate case).
        sample_ratio: 0.05,
        method: SamplingMethodConfig::OneSideUser,
        seed,
        ..Default::default()
    }
}

/// Drives one ramping-campaign ingest sequence, scanning every epoch both
/// incrementally and from scratch, asserting exact equality throughout.
/// Returns the total number of samples the incremental runner replayed.
fn drive(preset: JdDataset, seed: u64, policy: &IncrementalPolicy) -> (usize, Vec<ReuseRecord>) {
    let tl = ramp_timeline(&jd_preset(preset, 600, seed), 4);
    let cfg = config(seed);
    let buffer = IngestBuffer::new();
    let store = SnapshotStore::new(1);
    let mut inc_runner = ScanRunner::new();
    let mut total_reused = 0;
    let mut records = Vec::new();
    for (i, batch) in std::iter::once(&tl.base).chain(tl.epochs.iter()).enumerate() {
        buffer.append_batch(to_ids(batch));
        let snapshot = store.refresh(&buffer, true);
        let inc = inc_runner.run_incremental(&snapshot, &store, &cfg, THRESHOLD, policy);
        // The oracle is a fresh runner: no cache, no alert history —
        // a genuine from-scratch scan of the same snapshot.
        let full = ScanRunner::new().run(&snapshot, &cfg, THRESHOLD);
        assert_eq!(
            inc.ensemble.votes, full.ensemble.votes,
            "{preset:?} seed {seed} epoch {i}: vote tallies diverged"
        );
        assert_eq!(
            inc.flagged, full.flagged,
            "{preset:?} seed {seed} epoch {i}: flagged sets diverged"
        );
        assert_eq!(inc.epoch, full.epoch);
        total_reused += inc.reuse.samples_reused;
        records.push(ReuseRecord {
            epoch_index: i,
            incremental: inc.reuse.incremental,
            fallback: inc.reuse.fallback,
        });
    }
    (total_reused, records)
}

struct ReuseRecord {
    epoch_index: usize,
    incremental: bool,
    fallback: Option<FallbackReason>,
}

#[test]
fn incremental_matches_full_across_seeds_and_presets() {
    let policy = IncrementalPolicy {
        max_touched_fraction: 1.0,
    };
    for preset in [JdDataset::Jd1, JdDataset::Jd2] {
        for seed in [3, 17, 91] {
            let (total_reused, records) = drive(preset, seed, &policy);
            // First epoch: nothing cached yet — the cold-cache fallback
            // runs a full scan and primes the cache.
            assert_eq!(
                records[0].fallback,
                Some(FallbackReason::ColdCache),
                "{preset:?} seed {seed}: first scan must report a cold cache"
            );
            assert!(!records[0].incremental);
            // Every later epoch takes the reuse path (the permissive
            // policy never trips the oversized-delta fallback).
            for r in &records[1..] {
                assert!(
                    r.incremental && r.fallback.is_none(),
                    "{preset:?} seed {seed} epoch {}: expected incremental, got {:?}",
                    r.epoch_index,
                    r.fallback
                );
            }
            assert!(
                total_reused > 0,
                "{preset:?} seed {seed}: no sample was ever replayed — the \
                 reuse path went untested"
            );
        }
    }
}

#[test]
fn oversized_delta_falls_back_and_still_matches() {
    // A zero-tolerance policy: any delta that touches a node is
    // "oversized", so every post-cold epoch degrades to a full re-peel.
    // Results must be identical regardless.
    let policy = IncrementalPolicy {
        max_touched_fraction: 0.0,
    };
    let (total_reused, records) = drive(JdDataset::Jd1, 17, &policy);
    assert_eq!(records[0].fallback, Some(FallbackReason::ColdCache));
    for r in &records[1..] {
        assert_eq!(
            r.fallback,
            Some(FallbackReason::OversizedDelta),
            "epoch {}: expected the oversized-delta fallback",
            r.epoch_index
        );
        assert!(!r.incremental);
    }
    assert_eq!(total_reused, 0, "fallbacks never replay cached samples");
}

#[test]
fn rescanning_the_same_epoch_replays_everything() {
    let tl = ramp_timeline(&jd_preset(JdDataset::Jd1, 600, 5), 2);
    let cfg = config(5);
    let policy = IncrementalPolicy::default();
    let buffer = IngestBuffer::new();
    let store = SnapshotStore::new(1);
    let mut runner = ScanRunner::new();
    buffer.append_batch(to_ids(&tl.base));
    let snapshot = store.refresh(&buffer, true);
    let cold = runner.run_incremental(&snapshot, &store, &cfg, THRESHOLD, &policy);
    assert_eq!(cold.reuse.fallback, Some(FallbackReason::ColdCache));
    // Same epoch again: the delta is empty, every sample replays, and the
    // outcome is unchanged.
    let again = runner.run_incremental(&snapshot, &store, &cfg, THRESHOLD, &policy);
    assert!(again.reuse.incremental);
    assert_eq!(again.reuse.samples_reused, cfg.num_samples);
    assert_eq!(again.reuse.samples_repeeled, 0);
    assert_eq!(again.ensemble.votes, cold.ensemble.votes);
    assert_eq!(again.flagged, cold.flagged);
    // Stage timings count only the samples a pass ran: the cold scan drew
    // and peeled all of them, the replay none.
    let (cold_stages, again_stages) = (cold.ensemble.stages, again.ensemble.stages);
    assert!(cold_stages.sampling > Duration::ZERO);
    assert!(cold_stages.detection > Duration::ZERO);
    assert_eq!(again_stages.sampling, Duration::ZERO);
    assert_eq!(again_stages.detection, Duration::ZERO);
}
