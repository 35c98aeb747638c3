//! Bipartite k-core decomposition.
//!
//! The `k`-core is the maximal subgraph in which every node has degree ≥ k;
//! a node's *core number* is the largest `k` whose core contains it. Dense
//! fraud blocks sit in high cores, which makes core numbers (a) a classic
//! dense-subgraph baseline and (b) a cheap pre-filter for the peeling
//! algorithms. Computed with the standard bucket-queue peeling in
//! `O(|E| + |U| + |V|)`.

use crate::graph::BipartiteGraph;
use crate::ids::{MerchantId, UserId};

/// Core numbers for both sides of a bipartite graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoreDecomposition {
    /// Core number per user.
    pub user_core: Vec<u32>,
    /// Core number per merchant.
    pub merchant_core: Vec<u32>,
    /// The largest core number present (0 for an edgeless graph).
    pub degeneracy: u32,
}

impl CoreDecomposition {
    /// Core number of user `u`.
    #[inline]
    pub fn of_user(&self, u: UserId) -> u32 {
        self.user_core[u.index()]
    }

    /// Core number of merchant `v`.
    #[inline]
    pub fn of_merchant(&self, v: MerchantId) -> u32 {
        self.merchant_core[v.index()]
    }
}

/// Computes the core decomposition by bucketed min-degree peeling.
pub fn core_decomposition(g: &BipartiteGraph) -> CoreDecomposition {
    let nu = g.num_users();
    let nv = g.num_merchants();
    let n = nu + nv;
    // Unified node ids: users then merchants.
    let mut degree: Vec<u32> = Vec::with_capacity(n);
    degree.extend(g.user_degrees().iter().map(|&d| d as u32));
    degree.extend(g.merchant_degrees().iter().map(|&d| d as u32));

    let max_deg = degree.iter().copied().max().unwrap_or(0) as usize;
    // Bucket sort nodes by degree.
    let mut bucket_start = vec![0usize; max_deg + 2];
    for &d in &degree {
        bucket_start[d as usize + 1] += 1;
    }
    for i in 0..=max_deg {
        bucket_start[i + 1] += bucket_start[i];
    }
    let mut order = vec![0usize; n];
    let mut pos = vec![0usize; n];
    {
        let mut cursor = bucket_start.clone();
        for node in 0..n {
            let d = degree[node] as usize;
            order[cursor[d]] = node;
            pos[node] = cursor[d];
            cursor[d] += 1;
        }
    }
    // bucket_start[d] = index of the first node with (current) degree ≥ d.
    let mut core = degree.clone();
    let mut current = vec![false; n]; // removed flag
    let mut edge_dead = vec![false; g.num_edges()];

    for i in 0..n {
        let node = order[i];
        current[node] = true;
        core[node] = degree[node];
        // Relax neighbors with higher current degree: the textbook
        // decrement-and-swap into the lower bucket.
        let relax = |other: usize,
                         degree: &mut Vec<u32>,
                         order: &mut Vec<usize>,
                         pos: &mut Vec<usize>,
                         bucket_start: &mut Vec<usize>| {
            let dv = degree[other] as usize;
            if dv > degree[node] as usize {
                // Swap `other` with the first node of its bucket, then
                // shrink the bucket boundary.
                let pw = bucket_start[dv];
                let w = order[pw];
                let pu = pos[other];
                order.swap(pu, pw);
                pos[other] = pw;
                pos[w] = pu;
                bucket_start[dv] += 1;
                degree[other] -= 1;
            }
        };
        if node < nu {
            for (v, e, _) in g.merchants_of(UserId(node as u32)) {
                if !edge_dead[e] {
                    edge_dead[e] = true;
                    relax(nu + v.index(), &mut degree, &mut order, &mut pos, &mut bucket_start);
                }
            }
        } else {
            for (u, e, _) in g.users_of(MerchantId((node - nu) as u32)) {
                if !edge_dead[e] {
                    edge_dead[e] = true;
                    relax(u.index(), &mut degree, &mut order, &mut pos, &mut bucket_start);
                }
            }
        }
    }

    // Core numbers are monotone along the peeling order; enforce the
    // prefix-max to absorb the usual bucket-boundary wrinkles.
    let mut running = 0u32;
    for &node in order.iter().take(n) {
        running = running.max(core[node]);
        core[node] = running;
    }

    let degeneracy = core.iter().copied().max().unwrap_or(0);
    CoreDecomposition {
        user_core: core[..nu].to_vec(),
        merchant_core: core[nu..].to_vec(),
        degeneracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force core numbers: repeatedly strip nodes with degree < k.
    fn brute_core(g: &BipartiteGraph) -> (Vec<u32>, Vec<u32>) {
        let nu = g.num_users();
        let nv = g.num_merchants();
        let mut ucore = vec![0u32; nu];
        let mut vcore = vec![0u32; nv];
        let max_k = g
            .user_degrees()
            .into_iter()
            .chain(g.merchant_degrees())
            .max()
            .unwrap_or(0) as u32;
        for k in 1..=max_k {
            // Compute the k-core by iterated stripping.
            let mut alive_u = vec![true; nu];
            let mut alive_v = vec![true; nv];
            loop {
                let mut changed = false;
                for (u, alive) in alive_u.iter_mut().enumerate() {
                    if *alive {
                        let d = g
                            .merchants_of(UserId(u as u32))
                            .filter(|(v, _, _)| alive_v[v.index()])
                            .count();
                        if (d as u32) < k {
                            *alive = false;
                            changed = true;
                        }
                    }
                }
                for (v, alive) in alive_v.iter_mut().enumerate() {
                    if *alive {
                        let d = g
                            .users_of(MerchantId(v as u32))
                            .filter(|(u, _, _)| alive_u[u.index()])
                            .count();
                        if (d as u32) < k {
                            *alive = false;
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            for u in 0..nu {
                if alive_u[u] {
                    ucore[u] = k;
                }
            }
            for v in 0..nv {
                if alive_v[v] {
                    vcore[v] = k;
                }
            }
        }
        (ucore, vcore)
    }

    fn planted() -> BipartiteGraph {
        let mut edges = Vec::new();
        // 4×3 complete block: its nodes are in the 3-core (users have
        // degree 3, merchants 4).
        for u in 0..4u32 {
            for v in 0..3u32 {
                edges.push((u, v));
            }
        }
        // A path: low core.
        edges.push((4, 3));
        edges.push((5, 3));
        edges.push((5, 4));
        BipartiteGraph::from_edges(6, 5, edges).unwrap()
    }

    #[test]
    fn matches_brute_force_on_planted() {
        let g = planted();
        let c = core_decomposition(&g);
        let (bu, bv) = brute_core(&g);
        assert_eq!(c.user_core, bu);
        assert_eq!(c.merchant_core, bv);
        assert_eq!(c.degeneracy, 3);
    }

    #[test]
    fn block_users_have_high_core() {
        let g = planted();
        let c = core_decomposition(&g);
        for u in 0..4 {
            assert_eq!(c.of_user(UserId(u)), 3);
        }
        assert!(c.of_user(UserId(4)) <= 1);
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in 0..12u64 {
            let mut edges = Vec::new();
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for _ in 0..60 {
                edges.push(((next() % 10) as u32, (next() % 8) as u32));
            }
            edges.sort_unstable();
            edges.dedup();
            let g = BipartiteGraph::from_edges(10, 8, edges).unwrap();
            let c = core_decomposition(&g);
            let (bu, bv) = brute_core(&g);
            assert_eq!(c.user_core, bu, "seed {seed}");
            assert_eq!(c.merchant_core, bv, "seed {seed}");
        }
    }

    #[test]
    fn edgeless_graph_is_zero_core() {
        let g = BipartiteGraph::from_edges(3, 3, vec![]).unwrap();
        let c = core_decomposition(&g);
        assert_eq!(c.degeneracy, 0);
        assert!(c.user_core.iter().all(|&k| k == 0));
    }

    #[test]
    fn star_is_one_core() {
        let g = BipartiteGraph::from_edges(5, 1, (0..5u32).map(|u| (u, 0)).collect()).unwrap();
        let c = core_decomposition(&g);
        assert!(c.user_core.iter().all(|&k| k == 1));
        assert_eq!(c.merchant_core, vec![1]);
    }
}
