//! SpokEn (Prakash et al., PAKDD 2010) adapted to fraud scoring, as in the
//! paper's comparison.
//!
//! EigenSpokes: in the scatter plots of pairs of singular vectors of a
//! graph's adjacency matrix, tightly-knit communities appear as "spokes" —
//! sets of nodes with exceptionally large components concentrated on one
//! vector. Fraud rings are exactly such communities. Following the paper we
//! run it with a fixed number of components (25) and, to obtain a sweepable
//! detector, score every user by the largest magnitude it attains across
//! the top-k left singular vectors. Nodes on a spoke score high; background
//! nodes, whose mass is spread thinly, score near zero.

use ensemfdet::adjacency_matrix;
use ensemfdet_graph::BipartiteGraph;
use ensemfdet_linalg::{randomized_svd, SvdOptions};
use serde::{Deserialize, Serialize};

/// SpokEn configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SpokenConfig {
    /// Number of SVD components; the paper uses 25.
    pub components: usize,
    /// Randomized-SVD power iterations.
    pub power_iters: usize,
    /// RNG seed for the SVD sketch.
    pub seed: u64,
}

impl Default for SpokenConfig {
    fn default() -> Self {
        SpokenConfig {
            components: 25,
            power_iters: 2,
            seed: 0x590C,
        }
    }
}

/// The SpokEn detector.
#[derive(Clone, Copy, Debug, Default)]
pub struct Spoken {
    /// Configuration.
    pub config: SpokenConfig,
}

impl Spoken {
    /// Builds a detector.
    pub fn new(config: SpokenConfig) -> Self {
        Spoken { config }
    }

    /// Scores every user: `max_i |U[u, i]|` over the top-k left singular
    /// vectors. Higher ⇒ more spoke-like ⇒ more suspicious.
    pub fn score_users(&self, g: &BipartiteGraph) -> Vec<f64> {
        let k = self.config.components.min(g.num_users()).min(g.num_merchants());
        if k == 0 || g.num_edges() == 0 {
            return vec![0.0; g.num_users()];
        }
        randomized_svd(
            &adjacency_matrix(g),
            k,
            SvdOptions {
                power_iters: self.config.power_iters,
                seed: self.config.seed,
                ..Default::default()
            },
        )
        .max_abs_u_per_row()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemfdet_graph::{GraphBuilder, MerchantId, UserId};

    /// Dense 8×4 block + sparse background: the block is the dominant
    /// spectral structure, so its users form the spoke of component 0.
    fn planted() -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        for u in 0..8u32 {
            for v in 0..4u32 {
                b.add_edge(UserId(u), MerchantId(v));
            }
        }
        for u in 8..60u32 {
            b.add_edge(UserId(u), MerchantId(4 + u % 29));
        }
        b.build()
    }

    #[test]
    fn block_users_outscore_background() {
        let g = planted();
        // Only the dominant component: the block owns it outright
        // (σ₀ = √32 vs √2 for the background's two-user stars). Deeper
        // components belong to those stars, whose exact singular vectors
        // have entries 1/√2 — larger than the block's 1/√8 — so a
        // max-over-many-components score would NOT separate the block.
        let scores = Spoken::new(SpokenConfig {
            components: 1,
            ..Default::default()
        })
        .score_users(&g);
        let block_min = (0..8).map(|u| scores[u]).fold(f64::INFINITY, f64::min);
        let bg_max = (8..60).map(|u| scores[u]).fold(0.0f64, f64::max);
        assert!(
            block_min > bg_max,
            "block min {block_min} vs background max {bg_max}"
        );
    }

    #[test]
    fn scores_are_bounded_by_one() {
        let g = planted();
        let scores = Spoken::default().score_users(&g);
        assert!(scores.iter().all(|&s| (0.0..=1.0 + 1e-9).contains(&s)));
        assert_eq!(scores.len(), g.num_users());
    }

    #[test]
    fn empty_graph_scores_zero() {
        let g = BipartiteGraph::from_edges(5, 5, vec![]).unwrap();
        let scores = Spoken::default().score_users(&g);
        assert_eq!(scores, vec![0.0; 5]);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = planted();
        let s1 = Spoken::default().score_users(&g);
        let s2 = Spoken::default().score_users(&g);
        assert_eq!(s1, s2);
    }
}
