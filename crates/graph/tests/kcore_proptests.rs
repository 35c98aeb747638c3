//! Property-based validation of the bucket-queue k-core decomposition
//! against the defining fixed-point (iterated stripping).

use ensemfdet_graph::{core_decomposition, BipartiteGraph, MerchantId, UserId};
use proptest::prelude::*;

/// Reference: the k-core by iterated stripping, per k.
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

fn arb_graph() -> impl Strategy<Value = BipartiteGraph> {
    (1u32..14, 1u32..12).prop_flat_map(|(nu, nv)| {
        prop::collection::vec((0..nu, 0..nv), 0..90).prop_map(move |mut edges| {
            edges.sort_unstable();
            edges.dedup();
            BipartiteGraph::from_edges(nu as usize, nv as usize, edges).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kcore_matches_iterated_stripping(g in arb_graph()) {
        let c = core_decomposition(&g);
        let (bu, bv) = brute_core(&g);
        prop_assert_eq!(&c.user_core, &bu);
        prop_assert_eq!(&c.merchant_core, &bv);
        prop_assert_eq!(
            c.degeneracy,
            bu.iter().chain(bv.iter()).copied().max().unwrap_or(0)
        );
    }

    #[test]
    fn core_numbers_bounded_by_degree(g in arb_graph()) {
        let c = core_decomposition(&g);
        for (u, &k) in c.user_core.iter().enumerate() {
            prop_assert!(k as usize <= g.user_degree(UserId(u as u32)));
        }
        for (v, &k) in c.merchant_core.iter().enumerate() {
            prop_assert!(k as usize <= g.merchant_degree(MerchantId(v as u32)));
        }
    }
}
