#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Synthetic *who-buys-from-where* transaction graphs with planted fraud.
//!
//! The paper evaluates on three proprietary JD.com PIN–Merchant graphs with
//! expert blacklists (Table I). Those cannot be redistributed, so this crate
//! generates graphs that reproduce the structural properties every method
//! under test keys on:
//!
//! - **heavy-tailed background**: honest users make few purchases; merchant
//!   popularity follows a (truncated) Zipf law, so a handful of merchants
//!   absorb a large share of honest traffic — the camouflage targets;
//! - **planted fraud groups**: disjoint near-complete bipartite blocks
//!   (`synchronized behavior`), each a group of accounts hammering a small
//!   merchant ring within a campaign window;
//! - **camouflage**: fraud accounts also buy from popular honest merchants,
//!   the attack Fraudar's log-weighted metric is designed to survive;
//! - **label noise**: the expert blacklist misses a fraction of fraud
//!   accounts and wrongly lists a few honest ones, putting a realistic
//!   ceiling on measurable precision/recall (the paper notes appeal-driven
//!   blacklist churn).
//!
//! [`presets`] mirrors Table I's node/edge/fraud *ratios* at a configurable
//! scale factor.
//!
//! ```
//! use ensemfdet_datagen::{presets, generate};
//!
//! let cfg = presets::jd_preset(presets::JdDataset::Jd1, 200, 7);
//! let ds = generate(&cfg);
//! assert!(ds.graph.num_edges() > 1000);
//! assert!(!ds.blacklist.is_empty());
//! ```

pub mod config;
pub mod dataset;
pub mod generator;
pub mod presets;
pub mod timeline;
pub mod translog;
pub mod zipf;

pub use config::{CamouflageTargeting, FraudGroupConfig, GeneratorConfig};
pub use dataset::Dataset;
pub use generator::generate;
pub use timeline::{
    generate_timeline, ramp_timeline, BehaviorDrift, IngestTimeline, TimelineConfig,
};
pub use translog::{
    save_transaction_log, transaction_log_string, write_transaction_log, LogSummary,
    TransactionLogConfig,
};
