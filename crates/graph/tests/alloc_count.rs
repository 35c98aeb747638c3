//! Allocation-count regression tests for the graph layer.
//!
//! Pins the arena interner's amortized-doubling profile — no per-key
//! allocation — and the spec resolver's parent-sized scratch, using the
//! per-thread counting allocator in `common`. The tests live in their
//! own integration-test binary so the allocator swap cannot perturb any
//! other test.

mod common;

use common::counted;
use ensemfdet_graph::{
    ArenaInterner, BipartiteGraph, CsrView, SampleMaps, SampleSpec, SpecKind, SpecResolver,
};

#[test]
fn arena_interner_allocates_amortized_not_per_key() {
    const N: usize = 4096;
    let keys: Vec<String> = (0..N).map(|i| format!("PIN-{i:08}")).collect();

    let mut arena = ArenaInterner::new();
    let (calls, _bytes, ()) = counted(|| {
        for k in &keys {
            arena.intern(k);
        }
    });

    // Arena + offset vector + tagged probe table each double O(log N)
    // times (the table is re-placed from its stored tags); no
    // per-key allocation at all. Allow generous slack — the point is the
    // asymptotic gap to a one-alloc-per-key interner.
    assert!(
        calls < N / 4,
        "arena interner made {calls} allocations for {N} keys — \
         expected amortized doubling only"
    );
    assert_eq!(arena.len(), N);

    let (hit_calls, _, ()) = counted(|| {
        for k in &keys {
            arena.intern(k);
        }
    });
    assert_eq!(hit_calls, 0, "arena hits allocated");

    let (find_calls, _, found) = counted(|| arena.find(&keys[N / 2]));
    assert_eq!(found, Some((N / 2) as u32));
    assert_eq!(find_calls, 0, "borrow-keyed find allocated");
}

#[test]
fn spec_build_scratch_is_four_bytes_per_parent_node() {
    const USERS: usize = 1_000_000;
    const MERCHANTS: usize = 16;
    let edges: Vec<(u32, u32)> = (0..64u32)
        .map(|i| ((i * 15_485) % USERS as u32, i % MERCHANTS as u32))
        .collect();
    let parent = BipartiteGraph::from_edges(USERS, MERCHANTS, edges).unwrap();
    let mut spec = SampleSpec::new();
    spec.reset(SpecKind::EdgeSubset);
    spec.edges.extend((0..10).map(|i| i * 6));

    let (mut view, mut resolver, mut maps) =
        (CsrView::new(), SpecResolver::new(), SampleMaps::default());
    let (_, bytes, ()) =
        counted(|| view.rebuild_from_spec(&parent, &spec, &mut resolver, &mut maps));
    // The resolver's u32 slot per parent node, plus the 10-edge view and
    // maps.
    let bound = 4 * (USERS + MERCHANTS) + 4096;
    assert!(
        bytes <= bound,
        "first spec build requested {bytes} bytes, over the {bound}-byte budget"
    );
    assert_eq!(view.num_edges(), 10);

    let (calls, _, ()) =
        counted(|| view.rebuild_from_spec(&parent, &spec, &mut resolver, &mut maps));
    assert_eq!(calls, 0, "a steady-state spec build allocated");
}
