//! Property tests for the baselines' native entry points: every method is
//! total (no panics) on arbitrary bipartite graphs, including degenerate
//! ones; the five score methods return one finite score per user, and
//! Fraudar's blocks reference only nodes that exist.

use ensemfdet_baselines::{DegreeBaseline, FBox, Fraudar, Hits, KCoreBaseline, Spoken};
use ensemfdet_graph::BipartiteGraph;
use proptest::prelude::*;

fn arb_graph(max_side: u32, max_edges: usize) -> impl Strategy<Value = BipartiteGraph> {
    (1..=max_side, 1..=max_side).prop_flat_map(move |(nu, nv)| {
        prop::collection::vec((0..nu, 0..nv), 1..=max_edges).prop_map(move |mut edges| {
            edges.sort_unstable();
            edges.dedup();
            BipartiteGraph::from_edges(nu as usize, nv as usize, edges).unwrap()
        })
    })
}

/// The five score methods' `score_users`, default-configured.
fn score_methods(g: &BipartiteGraph) -> [(&'static str, Vec<f64>); 5] {
    [
        ("spoken", Spoken::default().score_users(g)),
        ("fbox", FBox::default().score_users(g)),
        ("hits", Hits::default().score_users(g)),
        ("kcore", KCoreBaseline.score_users(g)),
        ("degree", DegreeBaseline.score_users(g)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every score method returns one finite score per user, and
    /// Fraudar's blocks only reference nodes that exist.
    #[test]
    fn detectors_are_finite_with_valid_blocks(g in arb_graph(12, 60)) {
        for (name, scores) in score_methods(&g) {
            prop_assert_eq!(scores.len(), g.num_users(), "{}", name);
            for &s in &scores {
                prop_assert!(s.is_finite(), "{} score {s}", name);
            }
        }
        for b in Fraudar::default().run(&g).blocks {
            prop_assert!(b.users.iter().all(|u| u.index() < g.num_users()));
            prop_assert!(b.merchants.iter().all(|v| v.index() < g.num_merchants()));
        }
    }
}

/// Empty, edgeless, and single-edge graphs go through every method
/// without panicking.
#[test]
fn detectors_survive_degenerate_graphs() {
    for g in [
        BipartiteGraph::from_edges(0, 0, vec![]).unwrap(),
        BipartiteGraph::from_edges(4, 3, vec![]).unwrap(),
        BipartiteGraph::from_edges(1, 1, vec![(0, 0)]).unwrap(),
    ] {
        for (name, scores) in score_methods(&g) {
            assert_eq!(scores.len(), g.num_users(), "{name}");
            assert!(scores.iter().all(|s| s.is_finite()), "{name}");
        }
        for b in Fraudar::default().run(&g).blocks {
            assert!(b.users.iter().all(|u| u.index() < g.num_users()));
            assert!(b.merchants.iter().all(|v| v.index() < g.num_merchants()));
        }
    }
}
