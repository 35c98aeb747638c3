#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Structural sampling methods for bipartite graphs (Section IV-A of the
//! EnsemFDet paper).
//!
//! The ensemble decomposes one huge *who-buys-from-where* graph into `N`
//! small sampled subgraphs that FDET can attack independently and in
//! parallel. This crate provides the paper's three sampling families behind
//! one [`Sampler`] trait:
//!
//! - [`RandomEdgeSampling`] (RES, "Random Edge Bagging") — pick `S·|E|`
//!   edges uniformly without replacement; by Lemma 1 this over-represents
//!   high-degree nodes, biasing samples toward the dense (suspicious)
//!   components.
//! - [`OneSideNodeSampling`] (ONS, "Node PIN / Node Merchant Bagging") —
//!   pick `S·|side|` nodes of one side and keep *all* their edges; sampling
//!   the high-average-degree side retains dense topology (Section IV-A3's
//!   "retain topology" principle).
//! - [`TwoSideNodeSampling`] (TNS, "Two-sides Bagging") — pick nodes on both
//!   sides and keep the crossing edges; a ratio-`S` sample keeps ≈ `S²` of
//!   the edges, so `S` or `N` must grow to compensate (Section IV-A4).
//!
//! [`weighted::epsilon_approx_sample`] implements the Theorem 1
//! ε-approximation (edges kept independently with probability `p`, weights
//! rescaled by `1/p`), and [`theory`] provides the Eq. 3 expectations and
//! the Lemma 1 crossover degree used to validate the samplers empirically.
//!
//! All samplers are deterministic functions of `(graph, ratio, seed)` —
//! in fact of `(population sizes, ratio, seed)`, which is what lets
//! [`stability::spec_unaffected`] prove a cached draw identical across a
//! snapshot delta for incremental scans.
//! Each method emits its draw as a [`ensemfdet_graph::SampleSpec`]
//! (via [`Sampler::sample_spec`] into a reusable [`SamplerScratch`]),
//! which the engine resolves lazily against the shared parent snapshot;
//! [`Sampler::sample`] materializes the same spec into a
//! [`ensemfdet_graph::SampledGraph`] as the reference path.

pub mod method;
pub mod ons;
pub mod res;
pub mod scratch;
pub mod seed;
pub mod stability;
pub mod theory;
pub mod tns;
pub mod weighted;

pub use method::{Sampler, SamplingMethod};
pub use ons::{OneSideNodeSampling, Side};
pub use res::RandomEdgeSampling;
pub use scratch::SamplerScratch;
pub use stability::spec_unaffected;
pub use tns::TwoSideNodeSampling;
