#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The comparison methods of the paper's evaluation (Section V-B2):
//!
//! - [`fraudar`] — **Fraudar** (Hooi et al., KDD 2016), the strongest
//!   baseline: greedy log-weighted densest-subgraph peeling, iterated to a
//!   caller-fixed number of blocks `K`. It detects whole blocks at once,
//!   which is exactly why its precision–recall trace is a coarse polyline
//!   (the diamond points of Figures 3–4) rather than a smooth curve.
//! - [`spoken`] — **SpokEn** (Prakash et al., PAKDD 2010): "eigenspokes" in
//!   the top-k singular vectors of the adjacency matrix; nodes with large
//!   components in any spoke are suspicious.
//! - [`fbox`] — **FBox** (Shah et al., ICDM 2014): nodes whose degree is
//!   poorly explained by the top-k SVD reconstruction (small-scale attacks
//!   are invisible to the leading spectral structure).
//!
//! Both spectral methods emit per-user scores so the evaluation sweeps
//! thresholds; Fraudar emits cumulative block detections per `k`.
//!
//! Beyond the paper's three comparison methods, [`hits`] implements the
//! HITS-style suspiciousness the related-work section surveys (Kleinberg's
//! hubs/authorities with CatchSync-style degree normalization) and
//! [`degree`] a trivial degree-threshold sanity floor.

pub mod degree;
pub mod detectors;
pub mod fbox;
pub mod fraudar;
pub mod hits;
pub mod kcore;
pub mod spoken;

pub use degree::DegreeBaseline;
pub use detectors::standard_detectors;
pub use fbox::{FBox, FBoxConfig};
pub use fraudar::{Fraudar, FraudarConfig, FraudarResult};
pub use hits::{Hits, HitsConfig, HitsScores};
pub use kcore::KCoreBaseline;
pub use spoken::{Spoken, SpokenConfig};
