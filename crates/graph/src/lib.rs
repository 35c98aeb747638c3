#![warn(missing_docs)]

//! Bipartite graph substrate for the EnsemFDet fraud-detection system.
//!
//! The paper operates on a *"who buy-from where"* graph `G = (U ∪ V, E)`:
//! user (PIN) nodes on one side, merchant nodes on the other, and an edge for
//! every purchase relationship. This crate provides the storage and
//! manipulation layer every other crate builds on:
//!
//! - [`BipartiteGraph`]: immutable CSR storage indexed from *both* sides, so
//!   peeling algorithms can walk `u → {v}` and `v → {u}` in O(degree).
//! - [`CsrView`]: a flat, immutable CSR snapshot of the alive subgraph with
//!   O(1) neighbor *slices* (neighbor ids, edge ids, and weights as parallel
//!   contiguous arrays) — the memory layout of the high-performance peeling
//!   engine in `ensemfdet::engine`.
//! - [`GraphBuilder`]: incremental, duplicate-merging construction.
//! - [`SampledGraph`]: a compacted subgraph plus index maps back to the
//!   parent graph, the unit of work for the ensemble.
//! - [`SampleSpec`] / [`SpecResolver`]: the zero-copy alternative — a
//!   sampler's raw selection resolved straight into a [`CsrView`] via
//!   [`CsrView::rebuild_from_spec`], with [`SampleMaps`] carrying the
//!   local↔parent id maps and no intermediate graph copy.
//! - [`io`]: plain-text edge-list and label-file round-trips.
//! - [`arena`]: allocation-lean string interning — [`ArenaInterner`] (byte
//!   arena + spans), one implementation shared by the loader and the
//!   service, which wraps it in one mutex as
//!   [`ConcurrentTransactionInterner`] and locks it once per ingest batch.
//! - [`loader`]: the one chunk scanner for `user,merchant[,amount]` logs
//!   ([`loader::scan_records`]), and chunked parallel log loading on top of
//!   it with worker-count-invariant ids and amount-summed edge weights.
//! - [`stats`]: the dataset statistics reported in Table I of the paper.
//!
//! # Example
//!
//! ```
//! use ensemfdet_graph::{GraphBuilder, UserId, MerchantId};
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge(UserId(0), MerchantId(0));
//! b.add_edge(UserId(0), MerchantId(1));
//! b.add_edge(UserId(1), MerchantId(1));
//! let g = b.build();
//! assert_eq!(g.num_users(), 2);
//! assert_eq!(g.num_merchants(), 2);
//! assert_eq!(g.num_edges(), 3);
//! assert_eq!(g.user_degree(UserId(0)), 2);
//! ```

pub mod arena;
pub mod builder;
pub mod csr;
pub mod delta;
pub mod error;
pub mod graph;
pub mod ids;
pub mod io;
pub mod kcore;
pub mod loader;
pub mod sampled;
pub mod spec;
pub mod stats;

pub use arena::{ArenaInterner, ArenaTransactionInterner, ConcurrentTransactionInterner};
pub use builder::GraphBuilder;
pub use csr::{CsrView, NeighborSlices};
pub use delta::{GraphDelta, GraphDims};
pub use error::GraphError;
pub use graph::{BipartiteGraph, EdgeId, NeighborIter};
pub use ids::{MerchantId, NodeRef, UserId};
pub use kcore::{core_decomposition, CoreDecomposition};
pub use loader::{
    load_transactions, load_transactions_path, read_transactions_csv, LoadOptions, LoadedLog,
};
pub use sampled::SampledGraph;
pub use spec::{SampleMaps, SampleSpec, SpecKind, SpecResolver};
pub use stats::GraphStats;
