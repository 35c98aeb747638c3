//! Dataset statistics in the shape of the paper's Table I, plus degree
//! distributions used by the sampling-theory module.

use crate::graph::BipartiteGraph;
use serde::{Deserialize, Serialize};

/// Summary statistics of a bipartite graph.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GraphStats {
    /// `|U|` — user (PIN) nodes.
    pub num_users: usize,
    /// `|V|` — merchant nodes.
    pub num_merchants: usize,
    /// `|E|`.
    pub num_edges: usize,
    /// `|E| / |U|`.
    pub avg_user_degree: f64,
    /// `|E| / |V|`.
    pub avg_merchant_degree: f64,
    /// Largest user degree.
    pub max_user_degree: usize,
    /// Largest merchant degree.
    pub max_merchant_degree: usize,
    /// Users with no incident edge.
    pub isolated_users: usize,
    /// Merchants with no incident edge.
    pub isolated_merchants: usize,
    /// Edge density `|E| / (|U| · |V|)`.
    pub density: f64,
}

impl GraphStats {
    /// Computes all statistics in one pass over the degree arrays.
    pub fn of(g: &BipartiteGraph) -> Self {
        let ud = g.user_degrees();
        let vd = g.merchant_degrees();
        let density = if g.num_users() == 0 || g.num_merchants() == 0 {
            0.0
        } else {
            g.num_edges() as f64 / (g.num_users() as f64 * g.num_merchants() as f64)
        };
        GraphStats {
            num_users: g.num_users(),
            num_merchants: g.num_merchants(),
            num_edges: g.num_edges(),
            avg_user_degree: g.avg_user_degree(),
            avg_merchant_degree: g.avg_merchant_degree(),
            max_user_degree: ud.iter().copied().max().unwrap_or(0),
            max_merchant_degree: vd.iter().copied().max().unwrap_or(0),
            isolated_users: ud.iter().filter(|&&d| d == 0).count(),
            isolated_merchants: vd.iter().filter(|&&d| d == 0).count(),
            density,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_on_small_graph() {
        let g =
            BipartiteGraph::from_edges(3, 3, vec![(0, 0), (0, 1), (1, 1), (2, 1), (2, 2)]).unwrap();
        let s = GraphStats::of(&g);
        assert_eq!(s.num_users, 3);
        assert_eq!(s.num_merchants, 3);
        assert_eq!(s.num_edges, 5);
        assert_eq!(s.max_merchant_degree, 3);
        assert_eq!(s.max_user_degree, 2);
        assert_eq!(s.isolated_users, 0);
        assert!((s.density - 5.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn stats_count_isolated_nodes() {
        let g = BipartiteGraph::from_edges(3, 4, vec![(0, 0)]).unwrap();
        let s = GraphStats::of(&g);
        assert_eq!(s.isolated_users, 2);
        assert_eq!(s.isolated_merchants, 3);
    }

    #[test]
    fn stats_on_empty_graph() {
        let g = BipartiteGraph::from_edges(0, 0, vec![]).unwrap();
        let s = GraphStats::of(&g);
        assert_eq!(s.num_edges, 0);
        assert_eq!(s.max_user_degree, 0);
        assert_eq!(s.density, 0.0);
    }

    #[test]
    fn stats_clone_and_eq() {
        let g = BipartiteGraph::from_edges(2, 2, vec![(0, 0), (1, 1)]).unwrap();
        let s = GraphStats::of(&g);
        assert_eq!(s.clone(), s);
    }
}
