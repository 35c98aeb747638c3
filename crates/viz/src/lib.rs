#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Dependency-free SVG rendering for the experiment harness.
//!
//! The paper communicates its results as precision–recall and
//! metric-vs-parameter line charts; this crate turns the harness's
//! [`ensemfdet_eval::PrCurve`]s (and any `(x, y)` series) into standalone
//! SVG files so `results/` holds actual figures, not just JSON.
//!
//! Everything is plain string assembly over `std` — no drawing library —
//! which keeps the output deterministic and the crate trivially auditable.
//!
//! ```
//! use ensemfdet_viz::{Chart, Series};
//!
//! let svg = Chart::new("demo", "recall", "precision")
//!     .with_series(Series {
//!         label: "EnsemFDet".into(),
//!         points: vec![(0.1, 0.9), (0.5, 0.7), (0.8, 0.4)],
//!         marker: true,
//!     })
//!     .render();
//! assert!(svg.starts_with("<svg"));
//! assert!(svg.contains("EnsemFDet"));
//! ```

pub mod chart;
pub mod figures;

pub use chart::{Chart, Series};
