//! HITS-based suspiciousness (Kleinberg \[19\], as used by the HITS-like
//! fraud detectors the paper's related work surveys — TrustRank, CatchSync
//! and friends).
//!
//! On a bipartite purchase graph the hub/authority recursion
//! `h = A a, a = Aᵀ h` converges to the dominant singular pair of `A`:
//! users whose purchases concentrate on the most "authoritative" (most
//! hammered) merchants earn high hub scores. Fraud rings — many users
//! synchronously hitting the same merchants — light up exactly this way.
//! CatchSync additionally normalizes by degree to expose *synchronized*
//! behaviour; we provide both the raw hub score and the degree-normalized
//! "HITSness" variant.

use ensemfdet_graph::{BipartiteGraph, UserId};
use serde::{Deserialize, Serialize};

/// HITS configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct HitsConfig {
    /// Maximum power iterations.
    pub max_iters: usize,
    /// Relative convergence tolerance on the hub vector.
    pub tol: f64,
    /// Divide each user's hub score by its degree (CatchSync-style
    /// synchronization normalization).
    pub normalize_by_degree: bool,
}

impl Default for HitsConfig {
    fn default() -> Self {
        HitsConfig {
            max_iters: 100,
            tol: 1e-10,
            normalize_by_degree: true,
        }
    }
}

/// The HITS-based detector.
#[derive(Clone, Copy, Debug, Default)]
pub struct Hits {
    /// Configuration.
    pub config: HitsConfig,
}

/// Converged hub/authority vectors.
#[derive(Clone, Debug)]
pub struct HitsScores {
    /// Hub score per user (ℓ₂-normalized before optional degree division).
    pub hubs: Vec<f64>,
    /// Authority score per merchant (ℓ₂-normalized).
    pub authorities: Vec<f64>,
    /// Iterations until convergence.
    pub iterations: usize,
}

impl Hits {
    /// Builds a detector.
    pub fn new(config: HitsConfig) -> Self {
        Hits { config }
    }

    /// Runs the hub/authority recursion to convergence.
    pub fn run(&self, g: &BipartiteGraph) -> HitsScores {
        let nu = g.num_users();
        let nv = g.num_merchants();
        let mut hubs = vec![1.0f64; nu];
        let mut authorities = vec![0.0f64; nv];
        let mut iterations = 0;
        if g.num_edges() == 0 || nu == 0 || nv == 0 {
            return HitsScores {
                hubs: vec![0.0; nu],
                authorities: vec![0.0; nv],
                iterations,
            };
        }
        normalize(&mut hubs);

        for it in 0..self.config.max_iters {
            iterations = it + 1;
            // a = Aᵀ h
            authorities.iter_mut().for_each(|a| *a = 0.0);
            for (_, u, v, w) in g.edges() {
                authorities[v.index()] += w * hubs[u.index()];
            }
            normalize(&mut authorities);
            // h' = A a
            let mut new_hubs = vec![0.0f64; nu];
            for (_, u, v, w) in g.edges() {
                new_hubs[u.index()] += w * authorities[v.index()];
            }
            normalize(&mut new_hubs);
            let delta = hubs
                .iter()
                .zip(&new_hubs)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            hubs = new_hubs;
            if delta < self.config.tol {
                break;
            }
        }

        HitsScores {
            hubs,
            authorities,
            iterations,
        }
    }

    /// Per-user fraud scores: the hub score, optionally degree-normalized.
    pub fn score_users(&self, g: &BipartiteGraph) -> Vec<f64> {
        let scores = self.run(g);
        if !self.config.normalize_by_degree {
            return scores.hubs;
        }
        (0..g.num_users())
            .map(|u| {
                let d = g.user_degree(UserId(u as u32));
                if d == 0 {
                    0.0
                } else {
                    scores.hubs[u] / d as f64
                }
            })
            .collect()
    }
}

fn normalize(x: &mut [f64]) {
    let n: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    if n > 0.0 {
        for v in x {
            *v /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemfdet_graph::{GraphBuilder, MerchantId};

    fn ring_graph() -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        // Synchronized ring: 10 users × 3 merchants, complete.
        for u in 0..10u32 {
            for v in 0..3u32 {
                b.add_edge(UserId(u), MerchantId(v));
            }
        }
        // Background: 50 users, 1 purchase each, spread over 25 merchants.
        for u in 10..60u32 {
            b.add_edge(UserId(u), MerchantId(3 + u % 25));
        }
        b.build()
    }

    #[test]
    fn converges_to_dominant_singular_pair() {
        let g = ring_graph();
        let scores = Hits::default().run(&g);
        assert!(scores.iterations < 100);
        // The ring dominates the dominant singular pair: its merchants get
        // the top authorities, its users the top hubs.
        for v in 0..3 {
            for bg in 3..28 {
                assert!(scores.authorities[v] > scores.authorities[bg]);
            }
        }
        for u in 0..10 {
            for bg in 10..60 {
                assert!(scores.hubs[u] > scores.hubs[bg]);
            }
        }
    }

    #[test]
    fn ring_users_outscore_background() {
        let g = ring_graph();
        let s = Hits::default().score_users(&g);
        let ring_min = (0..10).map(|u| s[u]).fold(f64::INFINITY, f64::min);
        let bg_max = (10..60).map(|u| s[u]).fold(0.0f64, f64::max);
        assert!(ring_min > bg_max, "ring {ring_min} vs bg {bg_max}");
    }

    #[test]
    fn scores_match_power_iteration_singular_vector() {
        let g = ring_graph();
        let scores = Hits::new(HitsConfig {
            normalize_by_degree: false,
            ..Default::default()
        })
        .run(&g);
        let a = ensemfdet::adjacency_matrix(&g);
        let triplet = ensemfdet_linalg::power::power_iteration(&a, 1000, 1e-13);
        // Hub vector ≈ dominant left singular vector (up to sign; both are
        // nonnegative here).
        for (h, u) in scores.hubs.iter().zip(&triplet.u) {
            assert!((h - u.abs()).abs() < 1e-5, "hub {h} vs u {u}");
        }
    }

    #[test]
    fn empty_graph_scores_zero() {
        let g = BipartiteGraph::from_edges(3, 3, vec![]).unwrap();
        let s = Hits::default().score_users(&g);
        assert_eq!(s, vec![0.0; 3]);
    }

    #[test]
    fn deterministic() {
        let g = ring_graph();
        assert_eq!(
            Hits::default().score_users(&g),
            Hits::default().score_users(&g)
        );
    }
}
