//! FBox (Shah et al., ICDM 2014) adapted to fraud scoring.
//!
//! FBox's insight is the dual of SpokEn's: attacks of *small enough scale*
//! do not register in the top-k singular subspace, so a node whose observed
//! degree is much larger than what its projection onto that subspace
//! explains is suspicious. For a binary adjacency row `aᵤ` (‖aᵤ‖² = degree)
//! we compute the **spectral residual ratio**
//!
//! ```text
//! r(u) = 1 − ‖V_kᵀ aᵤ‖² / ‖aᵤ‖²      ∈ [0, 1]
//! ```
//!
//! and score `s(u) = r(u) · ln(1 + d(u))` for nodes above a minimum degree:
//! high-degree nodes that the reconstruction cannot explain. The degree
//! factor keeps trivial one-purchase users (whose rows are never well
//! reconstructed) from flooding the top of the ranking.

use ensemfdet::adjacency_matrix;
use ensemfdet_graph::{BipartiteGraph, UserId};
use ensemfdet_linalg::{randomized_svd, SvdOptions};
use serde::{Deserialize, Serialize};

/// FBox configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FBoxConfig {
    /// SVD rank `k` — "a determinant factor of the reconstruction error"
    /// (the paper sets it alongside SpokEn's 25).
    pub components: usize,
    /// Users below this degree score 0 (no evidence either way).
    pub min_degree: usize,
    /// Randomized-SVD power iterations.
    pub power_iters: usize,
    /// RNG seed for the SVD sketch.
    pub seed: u64,
}

impl Default for FBoxConfig {
    fn default() -> Self {
        FBoxConfig {
            components: 25,
            min_degree: 2,
            power_iters: 2,
            seed: 0xFB0C,
        }
    }
}

/// The FBox detector.
#[derive(Clone, Copy, Debug, Default)]
pub struct FBox {
    /// Configuration.
    pub config: FBoxConfig,
}

impl FBox {
    /// Builds a detector.
    pub fn new(config: FBoxConfig) -> Self {
        FBox { config }
    }

    /// Scores every user by degree-weighted spectral residual.
    pub fn score_users(&self, g: &BipartiteGraph) -> Vec<f64> {
        let nu = g.num_users();
        if g.num_edges() == 0 {
            return vec![0.0; nu];
        }
        let k = self.config.components.min(nu).min(g.num_merchants());
        if k == 0 {
            return vec![0.0; nu];
        }
        let svd = randomized_svd(
            &adjacency_matrix(g),
            k,
            SvdOptions {
                power_iters: self.config.power_iters,
                seed: self.config.seed,
                ..Default::default()
            },
        );

        let mut scores = vec![0.0f64; nu];
        let mut row = Vec::new();
        for (u, score) in scores.iter_mut().enumerate() {
            let degree = g.user_degree(UserId(u as u32));
            if degree < self.config.min_degree {
                continue;
            }
            // Assemble the (sparse) row densely once per user — rows are a
            // handful of entries, so project via the V columns directly.
            row.clear();
            row.extend(
                g.merchants_of(UserId(u as u32))
                    .map(|(v, _, w)| (v.index(), w)),
            );
            let norm_sq: f64 = row.iter().map(|&(_, w)| w * w).sum();
            let mut proj_sq = 0.0;
            for i in 0..svd.rank() {
                let dot: f64 = row.iter().map(|&(j, w)| svd.v[(j, i)] * w).sum();
                proj_sq += dot * dot;
            }
            let residual = (1.0 - proj_sq / norm_sq.max(f64::MIN_POSITIVE)).clamp(0.0, 1.0);
            *score = residual * (1.0 + degree as f64).ln();
        }
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemfdet_graph::{GraphBuilder, MerchantId};

    /// Big legitimate structure (captured by top components) + a small
    /// attack block (invisible to them) — FBox's home turf.
    fn small_attack_graph() -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        // Legit community 1: 30 users × 6 merchants, dense.
        for u in 0..30u32 {
            for v in 0..6u32 {
                if (u + v) % 2 == 0 {
                    b.add_edge(UserId(u), MerchantId(v));
                }
            }
        }
        // Legit community 2: 30 users × 6 merchants.
        for u in 30..60u32 {
            for v in 6..12u32 {
                if (u + v) % 2 == 1 {
                    b.add_edge(UserId(u), MerchantId(v));
                }
            }
        }
        // Small attack: 5 users × 3 fresh merchants, complete.
        for u in 60..65u32 {
            for v in 12..15u32 {
                b.add_edge(UserId(u), MerchantId(v));
            }
        }
        b.build()
    }

    #[test]
    fn small_attack_scores_above_legit_users() {
        let g = small_attack_graph();
        let scores = FBox::new(FBoxConfig {
            components: 2,
            ..Default::default()
        })
        .score_users(&g);
        let attack_min = (60..65).map(|u| scores[u]).fold(f64::INFINITY, f64::min);
        let legit_mean: f64 = (0..60).map(|u| scores[u]).sum::<f64>() / 60.0;
        assert!(
            attack_min > legit_mean,
            "attack min {attack_min} vs legit mean {legit_mean}"
        );
    }

    #[test]
    fn full_rank_svd_explains_everything() {
        // With k = min(m, n) the residual is ~0 for every node.
        let g = small_attack_graph();
        let scores = FBox::new(FBoxConfig {
            components: 15,
            min_degree: 1,
            power_iters: 6,
            ..Default::default()
        })
        .score_users(&g);
        let max = scores.iter().cloned().fold(0.0f64, f64::max);
        assert!(max < 0.2, "residuals should vanish at full rank, max {max}");
    }

    #[test]
    fn low_degree_users_score_zero() {
        let g = small_attack_graph();
        let cfg = FBoxConfig {
            components: 3,
            min_degree: 100, // nobody qualifies
            ..Default::default()
        };
        let scores = FBox::new(cfg).score_users(&g);
        assert!(scores.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn empty_graph_scores_zero() {
        let g = BipartiteGraph::from_edges(4, 4, vec![]).unwrap();
        assert_eq!(FBox::default().score_users(&g), vec![0.0; 4]);
    }

    #[test]
    fn scores_are_finite_and_nonnegative() {
        let g = small_attack_graph();
        let scores = FBox::default().score_users(&g);
        assert!(scores.iter().all(|s| s.is_finite() && *s >= 0.0));
        assert_eq!(scores.len(), g.num_users());
    }

    #[test]
    fn deterministic_given_seed() {
        let g = small_attack_graph();
        assert_eq!(
            FBox::default().score_users(&g),
            FBox::default().score_users(&g)
        );
    }
}
