//! Sample *specs*: what a sampler chose, decoupled from materializing it.
//!
//! The ensemble's original data path copied the parent graph N times per
//! scan: every `Sampler::sample` call built a compacted
//! [`crate::SampledGraph`] (two O(parent)-sized intern maps plus fresh
//! edge/weight vectors), and the engine then converted that copy into a
//! [`crate::CsrView`]. A [`SampleSpec`] instead records only the sampler's
//! *selection* — parent edge ids or per-side node ids — so the engine can
//! compact straight from `(parent, spec)` into its reusable `CsrView` via
//! [`crate::CsrView::rebuild_from_spec`], skipping the intermediate
//! `BipartiteGraph` entirely.
//!
//! The two paths are interchangeable by construction:
//! [`SampleSpec::materialize`] routes to the original `SampledGraph`
//! constructors, and `rebuild_from_spec` interns endpoints in the same
//! first-seen order those constructors use, so the resulting views are
//! bit-identical (see the equivalence tests in `csr.rs` and
//! `tests/tests/spec_equivalence.rs`).

use crate::graph::{BipartiteGraph, EdgeId};
use crate::ids::{MerchantId, UserId};
use crate::sampled::SampledGraph;

/// Which selection a [`SampleSpec`] carries, mirroring the four
/// [`SampledGraph`] constructors.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SpecKind {
    /// The subgraph spanned by `edges` (Random Edge Sampling's shape).
    #[default]
    EdgeSubset,
    /// All edges incident to `users` (One-side Node Sampling, PIN side).
    UserSubset,
    /// All edges incident to `merchants` (One-side Node Sampling,
    /// merchant side).
    MerchantSubset,
    /// Crossing edges of `users` × `merchants` plus the chosen nodes
    /// themselves, isolated or not (Two-side Node Sampling's shape).
    NodeSubsets,
}

/// A sampler's selection against a fixed parent graph.
///
/// Only the vectors named by [`SampleSpec::kind`] are meaningful; the
/// others stay empty. The struct is designed to be reused across samples
/// ([`SampleSpec::reset`] keeps capacity), so a steady-state sampling run
/// allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct SampleSpec {
    /// Which constructor shape this spec resolves through.
    pub kind: SpecKind,
    /// Chosen parent edge ids (`EdgeSubset` only), in draw order.
    pub edges: Vec<EdgeId>,
    /// Chosen parent users (`UserSubset` / `NodeSubsets`), in draw order.
    pub users: Vec<UserId>,
    /// Chosen parent merchants (`MerchantSubset` / `NodeSubsets`), in
    /// draw order.
    pub merchants: Vec<MerchantId>,
    /// Multiplies every copied edge weight (`EdgeSubset` only); `1.0` for
    /// a plain subgraph, `1/p` for the ε-approximation of Theorem 1.
    pub weight_scale: f64,
}

impl SampleSpec {
    /// A fresh, empty spec (equivalent to `Default` but with the unit
    /// weight scale made explicit).
    pub fn new() -> Self {
        SampleSpec {
            weight_scale: 1.0,
            ..SampleSpec::default()
        }
    }

    /// Clears the selection for reuse, keeping vector capacity.
    pub fn reset(&mut self, kind: SpecKind) {
        self.kind = kind;
        self.edges.clear();
        self.users.clear();
        self.merchants.clear();
        self.weight_scale = 1.0;
    }

    /// Bytes held by the selection itself — the mask path's entire
    /// per-sample footprint beyond the reusable scratch.
    pub fn selection_bytes(&self) -> u64 {
        (self.edges.len() * std::mem::size_of::<EdgeId>()
            + self.users.len() * std::mem::size_of::<UserId>()
            + self.merchants.len() * std::mem::size_of::<MerchantId>()) as u64
    }

    /// Resolves the spec into a compacted [`SampledGraph`] via the
    /// reference constructors — the materializing path the mask path is
    /// checked against.
    pub fn materialize(&self, parent: &BipartiteGraph) -> SampledGraph {
        match self.kind {
            SpecKind::EdgeSubset => {
                SampledGraph::from_edge_subset(parent, &self.edges, self.weight_scale)
            }
            SpecKind::UserSubset => SampledGraph::from_user_subset(parent, &self.users),
            SpecKind::MerchantSubset => {
                SampledGraph::from_merchant_subset(parent, &self.merchants)
            }
            SpecKind::NodeSubsets => {
                SampledGraph::from_node_subsets(parent, &self.users, &self.merchants)
            }
        }
    }
}

/// Local↔parent id maps for a spec-built view: the piece of
/// [`SampledGraph`] that voting still needs once the compacted graph copy
/// is gone.
///
/// `orig_users[local] = parent user id`, in the same first-seen intern
/// order the materializing constructors produce.
#[derive(Clone, Debug, Default)]
pub struct SampleMaps {
    /// `orig_users[local_u] = parent user id`.
    pub orig_users: Vec<u32>,
    /// `orig_merchants[local_v] = parent merchant id`.
    pub orig_merchants: Vec<u32>,
}

impl SampleMaps {
    /// Clears both maps for reuse, keeping capacity.
    pub fn clear(&mut self) {
        self.orig_users.clear();
        self.orig_merchants.clear();
    }

    /// Number of distinct users in the sample.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.orig_users.len()
    }

    /// Number of distinct merchants in the sample.
    #[inline]
    pub fn num_merchants(&self) -> usize {
        self.orig_merchants.len()
    }

    /// Maps a local user id back to the parent graph.
    #[inline]
    pub fn parent_user(&self, local: UserId) -> UserId {
        UserId(self.orig_users[local.index()])
    }

    /// Maps a local merchant id back to the parent graph.
    #[inline]
    pub fn parent_merchant(&self, local: MerchantId) -> MerchantId {
        MerchantId(self.orig_merchants[local.index()])
    }
}

/// A resolver slot holding no local id. `begin` refuses sides that
/// could need it as a local id.
const UNSET: u32 = u32::MAX;

/// Reusable intern scratch for resolving specs.
///
/// The materializing constructors pay two `O(parent)` `u32::MAX` memsets
/// per sample for their intern maps. This scratch keeps the maps alive
/// across samples instead: each slot holds a parent node's local id, or
/// `UNSET`. A build resets exactly the slots it set by walking the
/// [`SampleMaps`] it filled, so a steady-state resolve touches only the
/// sampled rows, and the whole scratch is 4 bytes per parent node.
/// A build that never finished (it panicked) leaves the resolver dirty,
/// and the next `begin` clears every slot.
#[derive(Clone, Debug, Default)]
pub struct SpecResolver {
    /// Local id per parent user, `UNSET` when not interned.
    u_slot: Vec<u32>,
    /// Merchant-side twin of `u_slot`.
    v_slot: Vec<u32>,
    /// Set by `begin`, cleared by `finish`: whether some slot may hold a
    /// local id the maps no longer list.
    dirty: bool,
}

impl SpecResolver {
    /// A fresh resolver; buffers grow on first use.
    pub fn new() -> Self {
        SpecResolver::default()
    }

    /// Starts a new resolve against a parent with the given side sizes.
    ///
    /// # Panics
    ///
    /// Panics if a side has `u32::MAX` or more nodes, whose last local
    /// id would collide with `UNSET`.
    pub(crate) fn begin(&mut self, num_users: usize, num_merchants: usize) {
        assert!(
            num_users < UNSET as usize && num_merchants < UNSET as usize,
            "SpecResolver: sides of {num_users} × {num_merchants} exceed the u32 local-id space",
        );
        if self.dirty {
            self.u_slot.fill(UNSET);
            self.v_slot.fill(UNSET);
        }
        if self.u_slot.len() < num_users {
            self.u_slot.resize(num_users, UNSET);
        }
        if self.v_slot.len() < num_merchants {
            self.v_slot.resize(num_merchants, UNSET);
        }
        self.dirty = true;
    }

    /// Ends a resolve whose interns all went into `maps`, empty at
    /// `begin`: resets exactly the slots of the nodes `maps` lists.
    pub(crate) fn finish(&mut self, maps: &SampleMaps) {
        for &u in &maps.orig_users {
            self.u_slot[u as usize] = UNSET;
        }
        for &v in &maps.orig_merchants {
            self.v_slot[v as usize] = UNSET;
        }
        self.dirty = false;
    }

    /// Assigns `raw` the next dense local user index if unseen in this
    /// resolve; returns its local id. Mirrors `sampled.rs`'s `intern`.
    #[inline]
    pub(crate) fn intern_user(&mut self, raw: u32, originals: &mut Vec<u32>) -> u32 {
        intern(&mut self.u_slot[raw as usize], raw, originals)
    }

    /// Merchant-side twin of [`SpecResolver::intern_user`].
    #[inline]
    pub(crate) fn intern_merchant(&mut self, raw: u32, originals: &mut Vec<u32>) -> u32 {
        intern(&mut self.v_slot[raw as usize], raw, originals)
    }

    /// The local id of a merchant already interned in this resolve, if
    /// any.
    #[inline]
    pub(crate) fn merchant_local(&self, raw: u32) -> Option<u32> {
        let local = self.v_slot[raw as usize];
        (local != UNSET).then_some(local)
    }
}

/// Gives an unset `slot` the next local id (pushing `raw` onto
/// `originals`) and returns the slot's local id.
#[inline]
fn intern(slot: &mut u32, raw: u32, originals: &mut Vec<u32>) -> u32 {
    if *slot == UNSET {
        *slot = originals.len() as u32;
        originals.push(raw);
    }
    *slot
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parent() -> BipartiteGraph {
        BipartiteGraph::from_edges(4, 4, vec![(0, 0), (0, 1), (1, 1), (2, 1), (2, 2), (3, 3)])
            .unwrap()
    }

    #[test]
    fn materialize_routes_to_each_constructor() {
        let p = parent();

        let mut spec = SampleSpec::new();
        spec.reset(SpecKind::EdgeSubset);
        spec.edges.extend([1usize, 2, 3]);
        let s = spec.materialize(&p);
        assert_eq!(s.graph.num_edges(), 3);
        assert_eq!(s.graph.num_merchants(), 1);

        spec.reset(SpecKind::UserSubset);
        spec.users.extend([UserId(0), UserId(2)]);
        let s = spec.materialize(&p);
        assert_eq!(s.graph.num_edges(), 4);

        spec.reset(SpecKind::MerchantSubset);
        spec.merchants.push(MerchantId(1));
        let s = spec.materialize(&p);
        assert_eq!(s.graph.num_users(), 3);

        spec.reset(SpecKind::NodeSubsets);
        spec.users.extend([UserId(0), UserId(3)]);
        spec.merchants.extend([MerchantId(1), MerchantId(2)]);
        let s = spec.materialize(&p);
        assert_eq!(s.graph.num_edges(), 1);
        assert_eq!(s.graph.num_users(), 2);
        assert_eq!(s.graph.num_merchants(), 2);
    }

    #[test]
    fn reset_keeps_capacity_and_clears_state() {
        let mut spec = SampleSpec::new();
        spec.edges.extend([1usize, 2, 3]);
        spec.weight_scale = 4.0;
        let cap = spec.edges.capacity();
        spec.reset(SpecKind::UserSubset);
        assert_eq!(spec.kind, SpecKind::UserSubset);
        assert!(spec.edges.is_empty());
        assert_eq!(spec.weight_scale, 1.0);
        assert_eq!(spec.edges.capacity(), cap);
    }

    #[test]
    fn selection_bytes_counts_only_the_selection() {
        let mut spec = SampleSpec::new();
        spec.edges.extend([0usize, 1]);
        spec.users.push(UserId(0));
        assert_eq!(
            spec.selection_bytes(),
            (2 * std::mem::size_of::<EdgeId>() + 4) as u64
        );
    }

    #[test]
    fn resolver_interning_matches_first_seen_order() {
        let mut r = SpecResolver::new();
        let mut maps = SampleMaps::default();
        r.begin(8, 8);
        assert_eq!(r.intern_user(5, &mut maps.orig_users), 0);
        assert_eq!(r.intern_user(2, &mut maps.orig_users), 1);
        assert_eq!(r.intern_user(5, &mut maps.orig_users), 0);
        assert_eq!(maps.orig_users, vec![5, 2]);
        assert_eq!(r.merchant_local(3), None);
        assert_eq!(r.intern_merchant(3, &mut maps.orig_merchants), 0);
        assert_eq!(r.merchant_local(3), Some(0));

        // A new resolve forgets the last, whether the last one finished
        // (its slots reset through the maps) or not (a full clear).
        for finished in [true, false] {
            if finished {
                r.finish(&maps);
            }
            maps.clear();
            r.begin(8, 8);
            assert_eq!(r.intern_user(2, &mut maps.orig_users), 0);
            assert_eq!(maps.orig_users, vec![2]);
            assert_eq!(r.merchant_local(3), None);
            assert_eq!(r.intern_merchant(3, &mut maps.orig_merchants), 0);
        }
    }

    /// The packed-u32 layout an earlier resolver used capped each side
    /// (and every local id) at 2²⁴ − 1.
    const OLD_U32_CAP: usize = (1 << 24) - 1;

    #[test]
    fn begin_accepts_sides_beyond_the_old_packed_u32_cap() {
        // The retired 8-bit-epoch/24-bit-local layout panicked here;
        // plain u32 slots make a full-JD-sized side (and well beyond)
        // legal.
        let side = OLD_U32_CAP + 2;
        let mut r = SpecResolver::new();
        let mut orig = Vec::new();
        r.begin(side, 8);
        assert_eq!(r.intern_user(OLD_U32_CAP as u32 + 1, &mut orig), 0);
        assert_eq!(r.intern_user(7, &mut orig), 1);
        assert_eq!(r.intern_user(OLD_U32_CAP as u32 + 1, &mut orig), 0);
        assert_eq!(orig, vec![OLD_U32_CAP as u32 + 1, 7]);
    }

    #[test]
    fn locals_past_the_old_packed_cap_do_not_alias() {
        // Regression for the 2²⁴ boundary: under the packed-u32 layout a
        // local id of exactly 2²⁴ carried into the stamp bits, aliasing
        // unrelated parent ids across samples. Cross the boundary for
        // real — intern 2²⁴ + 64 distinct users — and verify every
        // mapping round-trips, then that a new resolve forgets them all.
        let side = OLD_U32_CAP + 65;
        let mut r = SpecResolver::new();
        let mut maps = SampleMaps::default();
        r.begin(side, 8);
        for raw in 0..side as u32 {
            assert_eq!(r.intern_user(raw, &mut maps.orig_users), raw);
        }
        assert_eq!(maps.orig_users.len(), side);
        // Re-probe a spread of ids either side of the old boundary: each
        // must return its original local, not an alias.
        for raw in [
            0u32,
            OLD_U32_CAP as u32 - 1,
            OLD_U32_CAP as u32,
            OLD_U32_CAP as u32 + 1,
            side as u32 - 1,
        ] {
            assert_eq!(r.intern_user(raw, &mut maps.orig_users), raw, "alias at {raw}");
        }
        assert_eq!(maps.orig_users.len(), side, "re-probes must not re-intern");

        // A new resolve invalidates every slot, including those whose
        // local ids exceeded the old cap.
        r.finish(&maps);
        maps.clear();
        r.begin(side, 8);
        assert_eq!(r.intern_user(side as u32 - 1, &mut maps.orig_users), 0);
        assert_eq!(maps.orig_users, vec![side as u32 - 1]);
    }

    #[test]
    #[should_panic(expected = "exceed the u32 local-id space")]
    fn begin_refuses_a_side_whose_last_local_would_read_as_unset() {
        // A side of 2³² − 1 nodes would give its last node the local id
        // `UNSET`. The check runs before any slot is allocated.
        SpecResolver::new().begin(UNSET as usize, 0);
    }
}
