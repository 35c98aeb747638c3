#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Evaluation harness: classification metrics, precision–recall curves,
//! timing, and experiment output rendering.
//!
//! The paper evaluates detectors by Precision / Recall / F1 against an
//! expert blacklist, plotted either against each other (Figures 3, 5–8) or
//! against the number of detected PINs (Figure 4) or the vote threshold `T`
//! (Figure 9). This crate is deliberately free of graph dependencies — it
//! consumes plain label vectors, index sets, and score vectors — so every
//! detector (and every reader's detector) can plug in.

pub mod curve;
pub mod metrics;
pub mod report;
pub mod roc;
pub mod stability;
pub mod timing;

pub use curve::{PrCurve, PrPoint};
pub use metrics::{confusion, group_recall, Confusion};
pub use report::{write_json, Table};
pub use roc::{RocCurve, RocPoint};
pub use stability::Spread;
pub use timing::time_it;
