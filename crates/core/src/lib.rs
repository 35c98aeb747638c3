#![warn(missing_docs)]

//! **EnsemFDet** — ensemble fraud detection on bipartite graphs.
//!
//! Reproduction of *Ren, Zhu, Zhang, Dai, Bo: "EnsemFDet: An Ensemble
//! Approach to Fraud Detection based on Bipartite Graph", ICDE 2021*.
//!
//! The pipeline (Algorithm 2 of the paper):
//!
//! 1. **Sample** the *who-buys-from-where* graph `N` times at ratio `S`
//!    with a structural sampling method (RES / ONS / TNS, from
//!    [`ensemfdet_sampling`]).
//! 2. Run **FDET** ([`mod@fdet`]) on every sample — greedy densest-subgraph
//!    peeling ([`peel`]) under a camouflage-resistant density metric
//!    ([`metric`]), iterated to extract disjoint dense blocks and truncated
//!    automatically at the Δ²φ elbow ([`truncate`], Definition 3).
//! 3. **Vote**: a node is fraudulent iff it was detected in ≥ `T` of the `N`
//!    samples ([`aggregate`], Definition 4). Sweeping `T` gives the smooth
//!    precision–recall trade-off that is the paper's practicality claim.
//!
//! # Quickstart
//!
//! ```
//! use ensemfdet::{EnsemFdet, EnsemFdetConfig, Truncation};
//! use ensemfdet_graph::GraphBuilder;
//! use ensemfdet_graph::{UserId, MerchantId};
//!
//! // A small graph with an obvious dense block: users 0–4 all hit
//! // merchants 0–2; the rest of the graph is sparse.
//! let mut b = GraphBuilder::new();
//! for u in 0..5 {
//!     for v in 0..3 {
//!         b.add_edge(UserId(u), MerchantId(v));
//!     }
//! }
//! for u in 5..30 {
//!     b.add_edge(UserId(u), MerchantId(3 + (u % 10)));
//! }
//! let g = b.build();
//!
//! let detector = EnsemFdet::new(EnsemFdetConfig {
//!     num_samples: 8,
//!     sample_ratio: 0.7,
//!     // Keep only the densest block per sample — on this graph that is
//!     // always the planted block, so background users get zero votes.
//!     truncation: Truncation::FixedK(1),
//!     ..Default::default()
//! });
//! let outcome = detector.detect(&g);
//! // A majority vote (T = 5 of N = 8) flags the planted block's users.
//! let frauds = outcome.votes.detected_users(5);
//! assert!(!frauds.is_empty());
//! assert!(frauds.iter().all(|u| u.0 < 5), "only block users flagged");
//! ```

pub mod aggregate;
pub mod block;
pub mod bucket;
pub mod detector;
pub mod engine;
pub mod ensemble;
pub mod evidence;
pub mod fdet;
pub mod heap;
pub mod incremental;
pub mod metric;
pub mod monitor;
pub mod peel;
pub mod pipeline;
pub mod scoring;
pub mod truncate;

pub use aggregate::VoteTally;
pub use block::Block;
pub use bucket::BucketQueue;
pub use detector::{adjacency_matrix, DetectContext};
pub use engine::{Engine, FdetEngine};
pub use ensemble::{
    EnsembleOutcome, EnsemFdet, EnsemFdetConfig, SamplePath, SampleSummary,
    SamplingMethodConfig, StageTimings,
};
pub use evidence::EvidenceTally;
pub use fdet::{fdet, FdetResult, Truncation};
pub use incremental::{FallbackReason, IncrementalPolicy, ReuseStats};
pub use metric::{AverageDegreeMetric, DensityMetric, LogWeightedMetric, MetricKind};
pub use monitor::MonitorConfig;
pub use pipeline::{
    IngestBuffer, ScanOutcome, ScanRunner, Snapshot, SnapshotStore, DELTA_HISTORY,
};
pub use scoring::{
    hybrid_scan_scores, kcore_scores, normalize_scores, spectral_scores, HybridScanScores,
    HybridScorer, KnobValue, ScoreNormalization, ScoringConfig, SCORING_KNOBS,
};
