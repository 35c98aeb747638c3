//! Monotone bucket queue for the linear-time peel engine.
//!
//! The greedy peel is a *monotone* priority workload: the key of every pop
//! is ≥ the key of the previous pop (keys only decrease down to the current
//! minimum, never below it — a decrease below the minimum clamps the popped
//! sequence, not the queue invariant; see Ban & Duan, arXiv:1810.06809, for
//! why monotone decrease-key workloads admit bucket queues). That lets the
//! global `O(log n)` sift of [`LazyMinHeap`] be
//! replaced by constant-time routing for the bulk of the traffic:
//!
//! - Entries are the same lazy `(key, id)` pairs the heap uses, packed into
//!   `u128` words (IEEE-754 key bits high, id low) so comparisons stay one
//!   integer op with the id tie-break built in.
//! - The *bucket index* of a key is its high 16 bits of `f64::to_bits` —
//!   sign + exponent + 4 mantissa bits. For non-negative finite keys this
//!   index is monotone in the key and spans fewer than 2¹⁵ values, giving
//!   logarithmically-spaced buckets ≈6% relative width each: exactly the
//!   resolution profile a power-law suspiciousness distribution wants, with
//!   no per-peel `Δ` calibration step. (Coarser routing — e.g. one bucket
//!   per exponent octave — was measured slower overall: it bloats the
//!   per-bucket working sets.)
//! - The structure is split at a *frontier* bucket that only ever advances.
//!   Buckets above the frontier are plain **unordered append logs** — a
//!   push there is one `Vec` append, no comparison, no sift — and
//!   [`fill`](BucketQueue::fill) is a pure distribution pass with no sorting at
//!   all. When the minimum reaches a bucket, the bucket is *absorbed*: its
//!   entries move (one sort) into a single small [`LazyMinHeap`] holding
//!   everything at or below the frontier. Pushes that land at or below the
//!   frontier — the decreases near the current minimum — go straight into
//!   that heap, whose working set is one bucket's worth of entries:
//!   shallow, cache-resident sifts instead of the global heap's deep ones.
//!   (The obvious alternative, keeping the minimum bucket sorted in place
//!   and splicing pushes in by binary search, was measured to shift ~100M
//!   slots per run on the JD3 workload — the memmove traffic dwarfed every
//!   other cost.)
//! - A two-level occupancy bitmap (one bit per bucket, one summary bit per
//!   64 buckets) finds the lowest non-empty log bucket in a handful of
//!   word scans, so an empty-bucket sweep never costs O(#buckets).
//!
//! Exactness needs no appeal to monotonicity: every log entry's bucket is
//! strictly above the frontier, every heap entry's is at or below it, and
//! the bucket index is monotone in the key — so whenever the heap is
//! non-empty its minimum is the global minimum, and the heap itself pops
//! in exact `(key, id)` lexicographic order. The pop sequence is therefore
//! identical to a single global heap's — not an approximation — which is
//! what lets the bucket engine keep the bit-identical equivalence gate
//! against the naive reference peel. Monotonicity is what keeps the *frontier* heap
//! small and the append logs dominant, i.e. it is a performance property,
//! not a correctness assumption.
//!
//! Cost: a push is O(1) (append) or one shallow sift (frontier heap); a
//! pop is a heap pop plus, when the heap drains, a bitmap scan and one
//! bucket absorption. Absorbed entries never leave the heap, so each entry
//! is sorted at most once: a full peel over `E` edges costs O(E) plus
//! Σ bᵢ log bᵢ over the small per-bucket working sets — the engine's
//! linear-peel claim.

use crate::heap::LazyMinHeap;

/// Bucket index = top 16 bits of the key's IEEE-754 representation.
const BUCKET_SHIFT: u32 = 48;
/// Finite non-negative doubles have `to_bits() >> 48 <= 0x7FEF < 2^15`.
const NUM_BUCKETS: usize = 1 << 15;
/// One occupancy bit per bucket.
const OCC_WORDS: usize = NUM_BUCKETS / 64;
/// One summary bit per occupancy word.
const SUP_WORDS: usize = OCC_WORDS / 64;

#[inline]
fn bucket_of(key: f64) -> usize {
    debug_assert!(
        key >= 0.0 && key.is_sign_positive() && key.is_finite(),
        "BucketQueue requires finite non-negative keys (got {key})"
    );
    (key.to_bits() >> BUCKET_SHIFT) as usize
}

/// Packs `(key, element)` into one word whose integer order is the queue's
/// pop order.
#[inline]
pub(crate) fn pack(element: u32, key: f64) -> u128 {
    debug_assert!(
        key >= 0.0 && key.is_sign_positive(),
        "BucketQueue requires non-negative keys (got {key} for element {element})"
    );
    ((key.to_bits() as u128) << 32) | element as u128
}

#[inline]
fn unpack(entry: u128) -> (f64, u32) {
    (f64::from_bits((entry >> 32) as u64), entry as u32)
}

/// A monotone bucket queue with the same lazy-entry semantics — and the
/// same total `(key, id)` pop order — as [`LazyMinHeap`].
///
/// Like the heap, it does not know which entries are current: callers push
/// a fresh entry on every key decrease and filter stale pops themselves.
/// Both structures pop *all* entries in ascending packed order, so a peel
/// driven by either sees byte-for-byte the same sequence.
#[derive(Clone, Debug, Default)]
pub struct BucketQueue {
    /// Append logs for buckets above the frontier. Lazily sized to
    /// [`NUM_BUCKETS`] on first use; untouched buckets never allocate.
    buckets: Vec<Vec<u128>>,
    /// Every pending entry whose bucket is at or below [`Self::frontier`]:
    /// the former minimum buckets (absorbed when the minimum reached them)
    /// plus the near-minimum decreases pushed since. Non-empty whenever
    /// the queue is (the invariant every mutating method restores), so
    /// peek and pop are direct heap operations.
    low: LazyMinHeap,
    /// Bit `b` set ⇔ log bucket `b` has pending entries (absorbed buckets
    /// are cleared; their entries are accounted to `low`).
    occ: Vec<u64>,
    /// Bit `w` set ⇔ occupancy word `w` is non-zero.
    sup: Vec<u64>,
    /// Buckets receiving log entries since the last [`clear`](Self::clear)
    /// (may contain duplicates); bounds the cost of clearing to the
    /// buckets actually used.
    touched: Vec<u32>,
    /// Total pending entries, stale included, across `low` and the logs.
    len: usize,
    /// Highest absorbed bucket. Entries with `bucket_of(key) <= frontier`
    /// route to `low`; all log entries sit strictly above. Only ever
    /// advances (to the next occupied bucket when `low` drains), so the
    /// occupancy scans sum to O(bitmap words) per drain.
    frontier: usize,
}

impl BucketQueue {
    /// An empty queue. Bucket storage is allocated on first use.
    pub fn new() -> Self {
        BucketQueue::default()
    }

    fn ensure_init(&mut self) {
        if self.buckets.is_empty() {
            self.buckets.resize_with(NUM_BUCKETS, Vec::new);
            self.occ.resize(OCC_WORDS, 0);
            self.sup.resize(SUP_WORDS, 0);
        }
    }

    #[inline]
    fn set_bit(&mut self, b: usize) {
        self.occ[b >> 6] |= 1u64 << (b & 63);
        self.sup[b >> 12] |= 1u64 << ((b >> 6) & 63);
    }

    #[inline]
    fn clear_bit(&mut self, b: usize) {
        let w = b >> 6;
        self.occ[w] &= !(1u64 << (b & 63));
        if self.occ[w] == 0 {
            self.sup[b >> 12] &= !(1u64 << (w & 63));
        }
    }

    /// Index of the lowest non-empty log bucket at or above `from`, or
    /// `None` when nothing is occupied there. One masked occupancy word,
    /// then a summary scan — at most `SUP_WORDS + 2` words touched.
    #[inline]
    fn first_occupied_from(&self, from: usize) -> Option<usize> {
        if from >= NUM_BUCKETS {
            return None;
        }
        let w0 = from >> 6;
        let bits = self.occ[w0] & (!0u64 << (from & 63));
        if bits != 0 {
            return Some((w0 << 6) + bits.trailing_zeros() as usize);
        }
        let next = w0 + 1;
        let mut mask = if next & 63 == 0 { !0u64 } else { !0u64 << (next & 63) };
        for sw in (next >> 6)..SUP_WORDS {
            let s = self.sup[sw] & mask;
            mask = !0;
            if s != 0 {
                let w = (sw << 6) + s.trailing_zeros() as usize;
                let bits = self.occ[w];
                debug_assert!(bits != 0, "summary bit set for empty occupancy word");
                return Some((w << 6) + bits.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Moves log bucket `b`'s entries into the frontier heap (one sort,
    /// inside [`LazyMinHeap::fill`]) and advances the frontier to `b`.
    /// Only called with the heap empty — absorbed entries never go back,
    /// so each entry is sorted at most once.
    fn absorb(&mut self, b: usize) {
        debug_assert!(self.low.is_empty(), "absorbing into a non-empty heap");
        debug_assert!(self.frontier <= b, "frontier only advances");
        let mut v = std::mem::take(&mut self.buckets[b]);
        self.low.fill(v.drain(..).map(|e| {
            let (k, id) = unpack(e);
            (id, k)
        }));
        self.buckets[b] = v; // keep the allocation for future appends
        self.clear_bit(b);
        self.frontier = b;
    }

    /// Restores the "heap non-empty unless the queue is" invariant by
    /// absorbing the lowest occupied log bucket, if any.
    #[inline]
    fn refill_low(&mut self) {
        if self.low.is_empty() && self.len > 0 {
            let b = self
                .first_occupied_from(self.frontier)
                .expect("pending entries but no occupied bucket");
            self.absorb(b);
        }
    }

    /// Drops every entry, keeping the allocations of touched buckets.
    pub fn clear(&mut self) {
        for &b in &self.touched {
            self.buckets[b as usize].clear();
        }
        self.touched.clear();
        self.low.clear();
        for w in &mut self.occ {
            *w = 0;
        }
        for w in &mut self.sup {
            *w = 0;
        }
        self.len = 0;
        self.frontier = 0;
    }

    /// Number of pending entries (including stale ones).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entries remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Replaces the contents with `entries`: one O(n) distribution pass
    /// routing each entry to its bucket log — no sorting; each bucket is
    /// sorted once, when the advancing minimum absorbs it.
    pub fn fill(&mut self, entries: impl IntoIterator<Item = (u32, f64)>) {
        self.clear();
        self.ensure_init();
        for (e, k) in entries {
            let b = bucket_of(k);
            let bucket = &mut self.buckets[b];
            if bucket.is_empty() {
                self.touched.push(b as u32);
                self.occ[b >> 6] |= 1u64 << (b & 63);
                self.sup[b >> 12] |= 1u64 << ((b >> 6) & 63);
            }
            bucket.push(pack(e, k));
            self.len += 1;
        }
        self.refill_low();
    }

    /// Pushes an entry for `element` with `key`: one append for a bucket
    /// above the frontier, one shallow sift into the frontier heap below.
    #[inline]
    pub fn push(&mut self, element: u32, key: f64) {
        self.ensure_init();
        let b = bucket_of(key);
        if b <= self.frontier {
            self.low.push(element, key);
            self.len += 1;
            return;
        }
        let bucket = &mut self.buckets[b];
        let was_empty = bucket.is_empty();
        bucket.push(pack(element, key));
        if was_empty {
            self.touched.push(b as u32);
            self.set_bit(b);
        }
        self.len += 1;
        // Only reachable when the queue was empty (any pending entry
        // keeps the heap non-empty): restore the invariant immediately.
        if self.low.is_empty() {
            self.absorb(b);
        }
    }

    /// Pushes a run of entries in order. Log routing is a random access
    /// into the bucket headers, so the batch first issues a prefetch sweep
    /// over every target header, then pushes; the entry sequence is
    /// exactly the equivalent [`push`](Self::push) loop's, only the misses
    /// overlap.
    pub fn push_all(&mut self, entries: &[(u32, f64)]) {
        self.ensure_init();
        for &(_, k) in entries {
            let b = bucket_of(k);
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `b < NUM_BUCKETS = self.buckets.len()` after
            // `ensure_init`, and prefetching has no side effects beyond
            // the cache.
            unsafe {
                std::arch::x86_64::_mm_prefetch(
                    self.buckets.as_ptr().add(b).cast::<i8>(),
                    std::arch::x86_64::_MM_HINT_T0,
                );
            }
            #[cfg(not(target_arch = "x86_64"))]
            let _ = b;
        }
        for &(e, k) in entries {
            self.push(e, k);
        }
    }

    /// The `(key, element)` entry the next [`pop`](Self::pop) will return
    /// (possibly stale), or `None` if empty. O(1): the frontier heap is
    /// non-empty whenever the queue is, and its front is the global
    /// minimum. Lets callers inspect the minimum before committing to the
    /// pop, mirroring the heap's API.
    #[inline]
    pub fn peek(&self) -> Option<(f64, u32)> {
        self.low.peek()
    }

    /// Removes and returns the smallest `(key, element)` entry, stale or
    /// not. Every log entry's bucket — hence key — is above the frontier
    /// heap's entire range, so the heap front is the exact `(key, id)`
    /// lexicographic minimum.
    #[inline]
    pub fn pop(&mut self) -> Option<(f64, u32)> {
        let out = self.low.pop()?;
        self.len -= 1;
        // Absorb eagerly when the heap drains so the next peek stays O(1).
        self.refill_low();
        Some(out)
    }

    /// Drops every entry that no longer carries its element's current key
    /// (an entry is stale when `current[element]`'s bits differ from its
    /// key; negative sentinels never match); pure pruning, the sequence of
    /// current pops is unchanged.
    pub fn retain_current(&mut self, current: &[f64]) {
        self.low.retain_current(current);
        self.touched.sort_unstable();
        self.touched.dedup();
        let mut len = self.low.len();
        for &b in &self.touched {
            let b = b as usize;
            let bucket = &mut self.buckets[b];
            if !bucket.is_empty() {
                bucket.retain(|&e| current[e as u32 as usize].to_bits() == (e >> 32) as u64);
            }
            if bucket.is_empty() {
                let w = b >> 6;
                self.occ[w] &= !(1u64 << (b & 63));
                if self.occ[w] == 0 {
                    self.sup[b >> 12] &= !(1u64 << (w & 63));
                }
            } else {
                len += bucket.len();
            }
        }
        self.len = len;
        // Pruning may have emptied the frontier heap while log entries
        // remain; restore the invariant.
        self.refill_low();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_in_key() {
        let keys = [0.0, 1e-300, 0.03125, 0.5, 0.99, 1.0, 1.5, 2.0, 1e18];
        for w in keys.windows(2) {
            assert!(bucket_of(w[0]) <= bucket_of(w[1]), "{:?}", w);
        }
        assert!(bucket_of(f64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn pops_in_key_then_id_order() {
        let mut q = BucketQueue::new();
        q.fill([(3, 2.5), (1, 0.5), (2, 0.5), (0, 7.0), (4, 0.0)]);
        q.push(9, 0.5); // same bucket and key as ids 1 and 2
        q.push(5, 1e-9); // far-below bucket, behind the frontier
        let mut out = Vec::new();
        while let Some((k, e)) = q.pop() {
            out.push((k, e));
        }
        assert_eq!(
            out,
            vec![
                (0.0, 4),
                (1e-9, 5),
                (0.5, 1),
                (0.5, 2),
                (0.5, 9),
                (2.5, 3),
                (7.0, 0)
            ]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn clear_and_refill_reuses_buckets() {
        let mut q = BucketQueue::new();
        q.fill([(0, 1.0), (1, 2.0)]);
        assert_eq!(q.pop(), Some((1.0, 0)));
        q.fill([(7, 3.0)]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((3.0, 7)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_matches_next_pop() {
        let mut q = BucketQueue::new();
        q.fill([(2, 4.0), (8, 0.25), (5, 0.25)]);
        while let Some(e) = q.peek() {
            assert_eq!(Some(e), q.pop());
        }
    }

    #[test]
    fn retain_current_drops_stale_entries_only() {
        let mut q = BucketQueue::new();
        let mut key = vec![5.0, 4.0, 3.0];
        q.fill([(0, 5.0), (1, 4.0), (2, 3.0)]);
        // Decrease id 1 twice: two stale entries accumulate.
        key[1] = 2.0;
        q.push(1, 2.0);
        key[1] = 1.0;
        q.push(1, 1.0);
        assert_eq!(q.len(), 5);
        q.retain_current(&key);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((1.0, 1)));
        assert_eq!(q.pop(), Some((3.0, 2)));
        assert_eq!(q.pop(), Some((5.0, 0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pushes_below_and_at_the_frontier_keep_order() {
        // Exercise the frontier-heap routing: pops absorb buckets, then
        // pushes land inside and below the absorbed region.
        let mut q = BucketQueue::new();
        q.fill([(0, 1.0), (1, 1.25), (2, 1.5), (3, 64.0)]);
        assert_eq!(q.pop(), Some((1.0, 0)));
        q.push(4, 1.25); // tie with id 1, same absorbed bucket
        q.push(5, 1.125); // below the frontier bucket's range
        assert_eq!(q.pop(), Some((1.125, 5)));
        assert_eq!(q.pop(), Some((1.25, 1)));
        assert_eq!(q.pop(), Some((1.25, 4)));
        assert_eq!(q.pop(), Some((1.5, 2)));
        assert_eq!(q.pop(), Some((64.0, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_onto_drained_queue_restores_invariants() {
        let mut q = BucketQueue::new();
        q.fill([(0, 2.0)]);
        assert_eq!(q.pop(), Some((2.0, 0)));
        assert_eq!(q.pop(), None);
        // Above the frontier: the log absorption must re-arm peek/pop.
        q.push(1, 8.0);
        assert_eq!(q.peek(), Some((8.0, 1)));
        assert_eq!(q.pop(), Some((8.0, 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn matches_lazy_heap_pop_sequence() {
        // Same deterministic workload shape as the heap's own cross-check:
        // interleaved fills, pushes with ties, and full drains.
        let mut rng = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..20 {
            let n = 1 + (next() % 64) as u32;
            let init: Vec<(u32, f64)> = (0..n)
                .map(|i| (i, ((next() % 32) as f64) * 0.125))
                .collect();
            let mut q = BucketQueue::new();
            let mut h = LazyMinHeap::new();
            q.fill(init.iter().copied());
            h.fill(init.iter().copied());
            for _ in 0..(next() % 96) {
                let e = (next() % n as u64) as u32;
                let k = ((next() % 32) as f64) * 0.125;
                q.push(e, k);
                h.push(e, k);
            }
            loop {
                let a = q.pop();
                let b = h.pop();
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
