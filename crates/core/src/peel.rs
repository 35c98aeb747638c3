//! Greedy densest-subgraph peeling (the inner loop of Algorithm 1).
//!
//! Following Charikar's greedy generalized to column-weighted edges
//! (Fraudar \[13\]): starting from the whole (current) graph, repeatedly
//! delete the node with the smallest incident suspiciousness and remember
//! the intermediate subgraph `H_i` with the highest density score
//! `φ(H) = f(H) / |H|`, where `f(H)` sums `w_e · cw(d_v)` over the edges of
//! `H` and `cw` is the metric's column weight evaluated at each merchant's
//! degree **in the graph being peeled** (fixed before peeling starts).
//!
//! With the indexed min-heap every deletion is `O(log(|U|+|V|))` and every
//! edge is touched once, giving `O((|U|+|V|+|E|) · log(|U|+|V|))` per call —
//! the paper's stated complexity.
//!
//! Guarantee: for the unweighted average-degree metric this greedy is a
//! 2-approximation of the densest subgraph (Charikar 2000); the property
//! tests check that bound against brute force on small graphs.

use crate::block::Block;
use crate::fdet::{iterate_blocks, FdetResult, Truncation};
use crate::heap::IndexedMinHeap;
use crate::metric::DensityMetric;
use ensemfdet_graph::{BipartiteGraph, EdgeId, MerchantId, UserId};

/// Peels the densest block out of the subgraph of `g` spanned by the edges
/// with `edge_alive[e] == true`.
///
/// Only nodes with at least one alive incident edge participate (isolated
/// nodes are not part of "the current graph" and would only dilute `φ`).
/// Returns `None` when no edge is alive.
///
/// # Panics
///
/// Panics if `edge_alive.len() != g.num_edges()`.
pub fn peel_densest(
    g: &BipartiteGraph,
    metric: &dyn DensityMetric,
    edge_alive: &[bool],
) -> Option<Block> {
    assert_eq!(
        edge_alive.len(),
        g.num_edges(),
        "edge_alive mask must cover every edge"
    );
    let nu = g.num_users();
    let nv = g.num_merchants();
    let n = nu + nv;

    // Merchant degrees over alive edges and the fixed column weights.
    let mut vdeg = vec![0.0f64; nv];
    for (e, _, v, w) in g.edges() {
        if edge_alive[e] {
            vdeg[v.index()] += w;
        }
    }
    let cw: Vec<f64> = vdeg.iter().map(|&d| metric.column_weight(d)).collect();

    // Node priorities: summed suspiciousness of alive incident edges.
    // Node ids: users are 0..nu, merchants are nu..nu+nv.
    let mut priority = vec![0.0f64; n];
    let mut f = 0.0f64; // total suspiciousness of alive edges
    for (e, u, v, w) in g.edges() {
        if edge_alive[e] {
            let s = w * cw[v.index()];
            priority[u.index()] += s;
            priority[nu + v.index()] += s;
            f += s;
        }
    }

    // Heap over participating (non-isolated) nodes.
    let mut heap = IndexedMinHeap::with_capacity(n);
    let mut participating = 0usize;
    for (node, &p) in priority.iter().enumerate() {
        if p > 0.0 {
            heap.push(node, p);
            participating += 1;
        }
    }
    if participating == 0 {
        return None;
    }

    // Peel, tracking the best prefix. removal_rank[node] = step at which the
    // node was removed (1-based); usize::MAX = survived to the end.
    let mut removal_rank = vec![usize::MAX; n];
    let mut edge_dead = vec![false; g.num_edges()];
    for (e, &alive) in edge_alive.iter().enumerate() {
        edge_dead[e] = !alive;
    }

    let mut size = participating;
    let mut best_phi = f / size as f64; // H_n: the whole current graph
    let mut best_step = 0usize;
    let mut step = 0usize;

    while let Some((node, p)) = heap.pop_min() {
        step += 1;
        removal_rank[node] = step;
        f -= p;
        size -= 1;

        // Kill the node's alive edges and relax the other endpoints.
        if node < nu {
            let u = UserId(node as u32);
            for (v, e, w) in g.merchants_of(u) {
                if !edge_dead[e] {
                    edge_dead[e] = true;
                    let s = w * cw[v.index()];
                    let other = nu + v.index();
                    if heap.contains(other) {
                        heap.update_key(other, (heap.key_of(other) - s).max(0.0));
                    }
                }
            }
        } else {
            let v = MerchantId((node - nu) as u32);
            for (u, e, w) in g.users_of(v) {
                if !edge_dead[e] {
                    edge_dead[e] = true;
                    let s = w * cw[v.index()];
                    let other = u.index();
                    if heap.contains(other) {
                        heap.update_key(other, (heap.key_of(other) - s).max(0.0));
                    }
                }
            }
        }

        if size > 0 {
            // Guard against tiny negative drift from floating cancellation.
            let phi = f.max(0.0) / size as f64;
            if phi > best_phi {
                best_phi = phi;
                best_step = step;
            }
        }
    }

    // The best subgraph = nodes removed strictly after `best_step`.
    let mut users = Vec::new();
    let mut merchants = Vec::new();
    for node in 0..n {
        let rank = removal_rank[node];
        let in_block = rank == usize::MAX || rank > best_step;
        // Nodes that never participated have rank MAX but priority 0 and
        // were never pushed; exclude them.
        if in_block && priority[node] > 0.0 {
            if node < nu {
                users.push(UserId(node as u32));
            } else {
                merchants.push(MerchantId((node - nu) as u32));
            }
        }
    }

    // Edges fully inside the block (among originally-alive edges).
    let in_block = |node: usize| {
        let rank = removal_rank[node];
        rank == usize::MAX || rank > best_step
    };
    let mut edges: Vec<EdgeId> = Vec::new();
    for (e, u, v, _) in g.edges() {
        if edge_alive[e] && in_block(u.index()) && in_block(nu + v.index()) {
            edges.push(e);
        }
    }

    Some(Block {
        users,
        merchants,
        score: best_phi,
        edges,
    })
}

/// FDET over the parent graph through an alive-edge mask — the
/// [`crate::Engine::Naive`] reference the bucket engine is gated against.
/// Each iteration peels with [`peel_densest`] and retires every edge
/// *incident* to the block's nodes, not only the internal ones:
/// Algorithm 1 removes the induced edges `E_i`, but the problem definition
/// (Eq. 1) requires the detected vertex sets to be disjoint, which plain
/// edge removal does not guarantee (a block node with an outside edge
/// could be re-detected). Retiring the nodes enforces `S_l ∩ S_m = ∅`.
pub fn fdet_naive(
    g: &BipartiteGraph,
    metric: &dyn DensityMetric,
    truncation: Truncation,
) -> FdetResult {
    let mut edge_alive = vec![true; g.num_edges()];
    iterate_blocks(truncation, |_| {
        let block = peel_densest(g, metric, &edge_alive)?;
        for &u in &block.users {
            for e in g.user_edge_ids(u) {
                edge_alive[e] = false;
            }
        }
        for &v in &block.merchants {
            for e in g.merchant_edge_ids(v) {
                edge_alive[e] = false;
            }
        }
        Some(block)
    })
}

/// Convenience: peel the densest block of the whole graph.
///
/// ```
/// use ensemfdet::peel::peel_densest_full;
/// use ensemfdet::metric::AverageDegreeMetric;
/// use ensemfdet_graph::{GraphBuilder, UserId, MerchantId};
///
/// let mut b = GraphBuilder::new();
/// for u in 0..4 {
///     for v in 0..2 {
///         b.add_edge(UserId(u), MerchantId(v)); // dense 4×2 block
///     }
/// }
/// b.add_edge(UserId(4), MerchantId(2)); // stray edge
/// let block = peel_densest_full(&b.build(), &AverageDegreeMetric).unwrap();
/// assert_eq!(block.users.len(), 4);
/// assert_eq!(block.merchants.len(), 2);
/// assert!((block.score - 8.0 / 6.0).abs() < 1e-12);
/// ```
pub fn peel_densest_full(g: &BipartiteGraph, metric: &dyn DensityMetric) -> Option<Block> {
    peel_densest(g, metric, &vec![true; g.num_edges()])
}

/// Density score `φ(S) = f(S)/|S|` of an explicit node subset — the oracle
/// the tests compare the peel against.
pub fn density_of_subset(
    g: &BipartiteGraph,
    metric: &dyn DensityMetric,
    users: &[UserId],
    merchants: &[MerchantId],
) -> f64 {
    let size = users.len() + merchants.len();
    if size == 0 {
        return 0.0;
    }
    // Column weights from the full graph, consistent with the peel.
    let mut vdeg = vec![0.0f64; g.num_merchants()];
    for (_, _, v, w) in g.edges() {
        vdeg[v.index()] += w;
    }
    let in_u: std::collections::HashSet<u32> = users.iter().map(|u| u.0).collect();
    let in_v: std::collections::HashSet<u32> = merchants.iter().map(|v| v.0).collect();
    let mut f = 0.0;
    for (_, u, v, w) in g.edges() {
        if in_u.contains(&u.0) && in_v.contains(&v.0) {
            f += w * metric.column_weight(vdeg[v.index()]);
        }
    }
    f / size as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{AverageDegreeMetric, LogWeightedMetric};
    use ensemfdet_graph::GraphBuilder;

    /// 5×3 dense block plus a sparse fringe.
    fn planted_graph() -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        for u in 0..5u32 {
            for v in 0..3u32 {
                b.add_edge(UserId(u), MerchantId(v));
            }
        }
        for u in 5..25u32 {
            b.add_edge(UserId(u), MerchantId(3 + u % 7));
        }
        b.build()
    }

    #[test]
    fn finds_planted_dense_block() {
        let g = planted_graph();
        let block = peel_densest_full(&g, &AverageDegreeMetric).unwrap();
        let mut us: Vec<u32> = block.users.iter().map(|u| u.0).collect();
        let mut vs: Vec<u32> = block.merchants.iter().map(|v| v.0).collect();
        us.sort();
        vs.sort();
        assert_eq!(us, vec![0, 1, 2, 3, 4]);
        assert_eq!(vs, vec![0, 1, 2]);
        // φ = 15 edges / 8 nodes.
        assert!((block.score - 15.0 / 8.0).abs() < 1e-12);
        assert_eq!(block.edges.len(), 15);
    }

    #[test]
    fn log_metric_also_finds_block() {
        let g = planted_graph();
        let block = peel_densest_full(&g, &LogWeightedMetric::paper_default()).unwrap();
        assert_eq!(block.users.len(), 5);
        assert_eq!(block.merchants.len(), 3);
    }

    #[test]
    fn score_matches_density_oracle() {
        let g = planted_graph();
        let m = LogWeightedMetric::paper_default();
        let block = peel_densest_full(&g, &m).unwrap();
        let oracle = density_of_subset(&g, &m, &block.users, &block.merchants);
        assert!((block.score - oracle).abs() < 1e-9);
    }

    #[test]
    fn empty_mask_returns_none() {
        let g = planted_graph();
        let mask = vec![false; g.num_edges()];
        assert!(peel_densest(&g, &AverageDegreeMetric, &mask).is_none());
    }

    #[test]
    fn edgeless_graph_returns_none() {
        let g = BipartiteGraph::from_edges(3, 3, vec![]).unwrap();
        assert!(peel_densest_full(&g, &AverageDegreeMetric).is_none());
    }

    #[test]
    fn respects_edge_mask() {
        // Kill the planted block's edges: the peel must find something else.
        let g = planted_graph();
        let mut mask = vec![true; g.num_edges()];
        for (e, u, _, _) in g.edges() {
            if u.0 < 5 {
                mask[e] = false;
            }
        }
        let block = peel_densest(&g, &AverageDegreeMetric, &mask).unwrap();
        assert!(block.users.iter().all(|u| u.0 >= 5));
    }

    #[test]
    fn single_edge_graph() {
        let g = BipartiteGraph::from_edges(1, 1, vec![(0, 0)]).unwrap();
        let block = peel_densest_full(&g, &AverageDegreeMetric).unwrap();
        assert_eq!(block.users, vec![UserId(0)]);
        assert_eq!(block.merchants, vec![MerchantId(0)]);
        assert!((block.score - 0.5).abs() < 1e-12);
    }

    #[test]
    fn camouflage_resistance_of_log_metric() {
        // Fraud block: 6 users × 3 fraud merchants (18 edges).
        // Camouflage: a popular merchant with 60 honest degree; fraud users
        // also hit it. Under the log metric the camouflage edges are cheap,
        // so the detected block should still be the fraud core, not the
        // popular merchant's star.
        let mut b = GraphBuilder::new();
        for u in 0..6u32 {
            for v in 0..3u32 {
                b.add_edge(UserId(u), MerchantId(v));
            }
            b.add_edge(UserId(u), MerchantId(3)); // camouflage
        }
        for u in 6..66u32 {
            b.add_edge(UserId(u), MerchantId(3)); // honest traffic
        }
        let g = b.build();
        let block = peel_densest_full(&g, &LogWeightedMetric::paper_default()).unwrap();
        let vs: Vec<u32> = block.merchants.iter().map(|v| v.0).collect();
        assert!(
            !vs.contains(&3) || vs.len() > 3,
            "popular merchant should not dominate: {vs:?}"
        );
        assert!(block.users.iter().filter(|u| u.0 < 6).count() >= 5);
    }

    #[test]
    fn weighted_edges_bias_the_peel() {
        // Two candidate blocks of equal shape; one has weight-3 edges.
        let mut edges = Vec::new();
        let mut weights = Vec::new();
        for u in 0..3u32 {
            for v in 0..2u32 {
                edges.push((u, v));
                weights.push(3.0);
                edges.push((u + 3, v + 2));
                weights.push(1.0);
            }
        }
        let g = BipartiteGraph::from_weighted_edges(6, 4, edges, weights).unwrap();
        let block = peel_densest_full(&g, &AverageDegreeMetric).unwrap();
        assert!(block.users.iter().all(|u| u.0 < 3));
        assert!(block.merchants.iter().all(|v| v.0 < 2));
    }

    #[test]
    fn deterministic_output() {
        let g = planted_graph();
        let b1 = peel_densest_full(&g, &LogWeightedMetric::paper_default()).unwrap();
        let b2 = peel_densest_full(&g, &LogWeightedMetric::paper_default()).unwrap();
        assert_eq!(b1, b2);
    }

    #[test]
    #[should_panic(expected = "edge_alive mask")]
    fn wrong_mask_length_panics() {
        let g = planted_graph();
        peel_densest(&g, &AverageDegreeMetric, &[true]);
    }
}
