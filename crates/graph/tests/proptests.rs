//! Property-based tests for the graph substrate.

use ensemfdet_graph::{io, BipartiteGraph, GraphBuilder, MerchantId, SampledGraph, UserId};
use proptest::prelude::*;

/// Strategy: a random edge list over up to `nu × nv` node grid.
fn arb_edges(max_nodes: u32, max_edges: usize) -> impl Strategy<Value = (u32, u32, Vec<(u32, u32)>)> {
    (1..=max_nodes, 1..=max_nodes).prop_flat_map(move |(nu, nv)| {
        let edges = prop::collection::vec((0..nu, 0..nv), 0..=max_edges);
        (Just(nu), Just(nv), edges)
    })
}

proptest! {
    #[test]
    fn degrees_sum_to_edge_count((nu, nv, edges) in arb_edges(24, 120)) {
        let g = BipartiteGraph::from_edges(nu as usize, nv as usize, edges.clone()).unwrap();
        let u_sum: usize = g.user_degrees().iter().sum();
        let v_sum: usize = g.merchant_degrees().iter().sum();
        prop_assert_eq!(u_sum, edges.len());
        prop_assert_eq!(v_sum, edges.len());
    }

    #[test]
    fn adjacency_is_consistent_both_ways((nu, nv, edges) in arb_edges(16, 80)) {
        let g = BipartiteGraph::from_edges(nu as usize, nv as usize, edges).unwrap();
        // Every (u -> v) adjacency must appear as (v -> u) with the same edge id.
        for u in 0..g.num_users() as u32 {
            for (v, e, _) in g.merchants_of(UserId(u)) {
                let found = g.users_of(v).any(|(u2, e2, _)| u2 == UserId(u) && e2 == e);
                prop_assert!(found, "edge {} missing from reverse adjacency", e);
            }
        }
    }

    #[test]
    fn csr_runs_list_each_nodes_edges_in_ascending_id_order((nu, nv, edges) in arb_edges(16, 80)) {
        let g = BipartiteGraph::from_edges(nu as usize, nv as usize, edges.clone()).unwrap();
        for u in 0..nu {
            let expected: Vec<usize> = (0..edges.len()).filter(|&e| edges[e].0 == u).collect();
            prop_assert_eq!(g.user_edge_ids(UserId(u)).collect::<Vec<_>>(), expected);
        }
        for v in 0..nv {
            let expected: Vec<usize> = (0..edges.len()).filter(|&e| edges[e].1 == v).collect();
            prop_assert_eq!(g.merchant_edge_ids(MerchantId(v)).collect::<Vec<_>>(), expected);
        }
    }

    #[test]
    fn edge_list_io_round_trip((nu, nv, edges) in arb_edges(16, 60)) {
        let g = BipartiteGraph::from_edges(nu as usize, nv as usize, edges).unwrap();
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        let g2 = io::read_edge_list(&buf[..]).unwrap();
        prop_assert_eq!(g2.num_users(), g.num_users());
        prop_assert_eq!(g2.num_merchants(), g.num_merchants());
        prop_assert_eq!(g2.edge_slice(), g.edge_slice());
    }

    #[test]
    fn builder_dedup_total_weight_equals_record_count((nu, nv, edges) in arb_edges(12, 80)) {
        let mut b = GraphBuilder::with_min_sizes(nu as usize, nv as usize);
        b.extend_edges(edges.iter().map(|&(u, v)| (UserId(u), MerchantId(v))));
        let n = edges.len();
        let g = b.build_deduplicated();
        if n == 0 {
            prop_assert_eq!(g.num_edges(), 0);
        } else {
            prop_assert!((g.total_weight() - n as f64).abs() < 1e-9);
            prop_assert!(g.num_edges() <= n);
        }
    }

    #[test]
    fn edge_subset_sample_maps_back_correctly((nu, nv, edges) in arb_edges(16, 80), pick in prop::collection::vec(any::<prop::sample::Index>(), 0..20)) {
        let g = BipartiteGraph::from_edges(nu as usize, nv as usize, edges.clone()).unwrap();
        if edges.is_empty() { return Ok(()); }
        let ids: Vec<usize> = pick.iter().map(|i| i.index(edges.len())).collect();
        let s = SampledGraph::from_edge_subset(&g, &ids, 1.0);
        prop_assert_eq!(s.graph.num_edges(), ids.len());
        for (le, lu, lv, _) in s.graph.edges() {
            let pu = s.parent_user(lu);
            let pv = s.parent_merchant(lv);
            let (eu, ev) = g.edge_endpoints(ids[le]);
            prop_assert_eq!(pu, eu);
            prop_assert_eq!(pv, ev);
        }
    }
}
