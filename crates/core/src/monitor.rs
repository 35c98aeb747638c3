//! Micro-batch campaign monitoring configuration.
//!
//! The paper's deployment context wants fraud caught *during* a promotion
//! ("detect and prevent fraud as early as possible"), not in a nightly
//! batch. A monitor ingests purchase events as they arrive into an
//! [`crate::IngestBuffer`], re-detects every `scan_interval` transactions
//! (or on demand) over a [`crate::SnapshotStore`] snapshot through a
//! [`crate::ScanRunner`], and surfaces **new** alerts — accounts that
//! crossed the vote threshold for the first time — so downstream systems
//! act once per account, not once per scan. [`MonitorConfig`] holds that
//! loop's knobs; the HTTP service and `ensemfdet monitor` run it.
//!
//! Each scan runs the full ensemble on the graph accumulated so far; at the
//! micro-batch cadence this is exactly the deployment mode the paper's
//! timing table argues is affordable (per-scan cost ≈ `S ×` one Fraudar
//! pass, parallel over samples).

use crate::ensemble::EnsemFdetConfig;

/// Monitor configuration.
#[derive(Clone, Copy, Debug)]
pub struct MonitorConfig {
    /// The ensemble configuration used for every scan.
    pub detector: EnsemFdetConfig,
    /// Automatic scan every this many ingested transactions.
    pub scan_interval: usize,
    /// Vote threshold at which an account becomes an alert.
    pub alert_threshold: u32,
    /// No automatic scan fires before this many transactions have been
    /// ingested: a nearly-empty graph has no meaningful density structure,
    /// so early scans would alert on noise pockets.
    pub min_transactions: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            detector: EnsemFdetConfig {
                // Campaign graphs start small; sample at a coarser ratio
                // and fewer repetitions than the full-batch default.
                num_samples: 20,
                sample_ratio: 0.2,
                ..Default::default()
            },
            scan_interval: 10_000,
            alert_threshold: 10,
            min_transactions: 5_000,
        }
    }
}
