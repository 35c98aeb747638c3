//! Dirty-sample reuse: the cache and bookkeeping behind incremental
//! scans.
//!
//! A full ensemble pass is `N` independent sampled peels; epoch to epoch,
//! most of them are provably unchanged. The sampling layer can prove a
//! cached draw identical across a [`GraphDelta`](ensemfdet_graph::GraphDelta)
//! ([`ensemfdet_sampling::spec_unaffected`]), and a sample whose draw and
//! subgraph are both unchanged peels to the exact same blocks, scores,
//! and votes. So a scan runner keeps each sample's *parent-space
//! contribution* — everything the aggregation stage consumes — and at the
//! next epoch the ensemble's one sample loop replays the samples the delta
//! left clean and re-peels the rest. The result is bit-identical to a
//! from-scratch scan of the same `(epoch, seed)` (gated by
//! `tests/tests/incremental_scan.rs`); only wall-clock changes.
//!
//! The cache itself is crate-private: [`ScanRunner`] builds it and hands
//! it back to the next pass. What callers see is the [`ReuseStats`] on
//! every [`ScanOutcome`] and the [`IncrementalPolicy`] they pass in.
//!
//! Reuse is *conservative*: every fallback in [`FallbackReason`] degrades
//! to a correct full scan that also re-primes the cache. There is no path
//! that serves stale detection results.
//!
//! [`ScanRunner`]: crate::pipeline::ScanRunner
//! [`ScanOutcome`]: crate::pipeline::ScanOutcome

use crate::ensemble::{EnsemFdetConfig, SampleSummary};
use ensemfdet_graph::{GraphDims, MerchantId, UserId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One sample's complete effect on a scan, recorded in parent id space.
///
/// This is exactly what the aggregation stage consumes: the detected node
/// sets for the vote tally, the `(node, block score)` pairs for the
/// evidence tally, and the per-sample diagnostics. Parent ids are stable
/// across epochs (the snapshot graph is append-only), so a contribution
/// recorded at epoch *e* replays unchanged into the dimension-sized
/// tallies of any later epoch.
#[derive(Clone, Debug)]
pub(crate) struct SampleContribution {
    /// Users this sample detected (parent ids, one vote each).
    pub(crate) users: Vec<UserId>,
    /// Merchants this sample detected (parent ids, one vote each).
    pub(crate) merchants: Vec<MerchantId>,
    /// `(user, block score)` evidence pairs. FDET blocks are
    /// node-disjoint, so each node appears at most once per sample.
    pub(crate) user_evidence: Vec<(UserId, f64)>,
    /// `(merchant, block score)` evidence pairs.
    pub(crate) merchant_evidence: Vec<(MerchantId, f64)>,
    /// Per-sample diagnostics. For a replayed contribution the timing
    /// fields still describe the run that *produced* it — the incremental
    /// pass's own cost shows up in the outcome-level timings instead.
    pub(crate) summary: SampleSummary,
}

/// The per-sample cache one scan leaves behind for the next.
///
/// Entries are `Arc`-shared so replaying a clean sample is a pointer
/// clone. The cache is valid only for the exact `(base_epoch, config)` it
/// was recorded under; [`ScanRunner::run_incremental`] checks both before
/// trusting it and otherwise falls back to a full scan.
///
/// [`ScanRunner::run_incremental`]: crate::pipeline::ScanRunner::run_incremental
#[derive(Clone, Debug)]
pub(crate) struct ScanCache {
    /// Epoch of the snapshot these contributions were computed against.
    pub(crate) base_epoch: u64,
    /// Dimensions of that snapshot's graph.
    pub(crate) base_dims: GraphDims,
    /// The exact detector configuration that produced the entries. Any
    /// difference — seed, ratio, method, engine, anything — invalidates
    /// the cache wholesale ([`FallbackReason::ConfigChanged`]).
    pub(crate) config: EnsemFdetConfig,
    /// One contribution per sample index, `config.num_samples` long.
    pub(crate) entries: Vec<Arc<SampleContribution>>,
}

/// Why an incremental scan degraded to a full re-peel.
///
/// Every variant is a *performance* event, not a correctness one: the
/// fallback runs the ordinary full scan and re-primes the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FallbackReason {
    /// No cache yet — the first scan a runner performs, or the first
    /// after an explicit invalidation.
    ColdCache,
    /// The detector configuration differs from the one the cache was
    /// recorded under.
    ConfigChanged,
    /// The snapshot store could not produce a delta chaining the cache's
    /// base epoch to the scanned epoch (history evicted, or the epochs
    /// never chained).
    MissingDelta,
    /// The delta touched more than
    /// [`IncrementalPolicy::max_touched_fraction`] of the nodes — nearly
    /// every sample would re-peel anyway, so skip the per-sample checks
    /// and take the straight-line full scan.
    OversizedDelta,
}

impl FallbackReason {
    /// Stable lowercase label for telemetry and API payloads.
    pub fn name(self) -> &'static str {
        match self {
            FallbackReason::ColdCache => "cold_cache",
            FallbackReason::ConfigChanged => "config_changed",
            FallbackReason::MissingDelta => "missing_delta",
            FallbackReason::OversizedDelta => "oversized_delta",
        }
    }
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// When to give up on reuse and re-peel everything.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct IncrementalPolicy {
    /// Deltas touching more than this fraction of the new snapshot's
    /// nodes trigger [`FallbackReason::OversizedDelta`]. The default 0.1
    /// tracks the benchmark's regime split: below 10% touched, reuse
    /// wins; far above it, the cleanliness checks are pure overhead.
    pub max_touched_fraction: f64,
}

impl Default for IncrementalPolicy {
    fn default() -> Self {
        IncrementalPolicy {
            max_touched_fraction: 0.1,
        }
    }
}

/// How a scan outcome was produced — the reuse telemetry attached to
/// every [`ScanOutcome`](crate::pipeline::ScanOutcome).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct ReuseStats {
    /// `true` when the per-sample reuse path actually ran; `false` for
    /// plain full scans, including incremental requests that fell back.
    pub incremental: bool,
    /// Why an incremental request degraded to a full scan, if it did.
    pub fallback: Option<FallbackReason>,
    /// Samples replayed from the cache.
    pub samples_reused: usize,
    /// Samples re-drawn and re-peeled (the "dirty" samples; equals `N`
    /// for a full scan).
    pub samples_repeeled: usize,
    /// Nodes the delta touched (0 when no delta was involved).
    pub delta_touched_nodes: usize,
    /// Those nodes as a fraction of the scanned snapshot's population.
    pub delta_touched_fraction: f64,
}

impl ReuseStats {
    /// Stats for a plain full scan of `n` samples.
    pub fn full(n: usize) -> Self {
        ReuseStats {
            samples_repeeled: n,
            ..Default::default()
        }
    }

    /// Stats for an incremental request that fell back to a full scan.
    pub fn fallback(n: usize, reason: FallbackReason) -> Self {
        ReuseStats {
            fallback: Some(reason),
            ..ReuseStats::full(n)
        }
    }

    /// Fraction of samples that had to re-peel (`1.0` for a full scan, by
    /// definition). This is the *dirty-sample fraction* exposed through
    /// telemetry: under sustained ingest with a localized delta it stays
    /// near the fraction of samples whose subgraph intersects the delta.
    pub fn dirty_fraction(&self) -> f64 {
        let total = self.samples_reused + self.samples_repeeled;
        if total == 0 {
            return 0.0;
        }
        self.samples_repeeled as f64 / total as f64
    }

    /// Stable mode label (`"incremental"` / `"full"`) for telemetry and
    /// API payloads.
    pub fn mode(&self) -> &'static str {
        if self.incremental {
            "incremental"
        } else {
            "full"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_and_fallback_stats() {
        let f = ReuseStats::full(8);
        assert!(!f.incremental);
        assert_eq!(f.samples_repeeled, 8);
        assert_eq!(f.dirty_fraction(), 1.0);
        assert_eq!(f.mode(), "full");

        let fb = ReuseStats::fallback(8, FallbackReason::OversizedDelta);
        assert_eq!(fb.fallback, Some(FallbackReason::OversizedDelta));
        assert_eq!(fb.mode(), "full");
    }

    #[test]
    fn dirty_fraction_of_mixed_scan() {
        let s = ReuseStats {
            incremental: true,
            samples_reused: 6,
            samples_repeeled: 2,
            ..Default::default()
        };
        assert!((s.dirty_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(s.mode(), "incremental");
        // Degenerate zero-sample stats don't divide by zero.
        assert_eq!(ReuseStats::default().dirty_fraction(), 0.0);
    }

    #[test]
    fn fallback_names_are_stable() {
        assert_eq!(FallbackReason::ColdCache.name(), "cold_cache");
        assert_eq!(FallbackReason::ConfigChanged.name(), "config_changed");
        assert_eq!(FallbackReason::MissingDelta.name(), "missing_delta");
        assert_eq!(FallbackReason::OversizedDelta.name(), "oversized_delta");
        assert_eq!(FallbackReason::ColdCache.to_string(), "cold_cache");
    }

    #[test]
    fn default_policy_is_ten_percent() {
        assert!((IncrementalPolicy::default().max_touched_fraction - 0.1).abs() < 1e-12);
    }
}
