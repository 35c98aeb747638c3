//! Priority structures for the greedy peel.
//!
//! The greedy peel removes, at every step, the node with the smallest
//! incident suspiciousness and *decreases* the keys of its neighbors. Two
//! structures support that contract, both `O(log n)` per operation and both
//! deterministic (ties break by element id):
//!
//! - [`IndexedMinHeap`] — a binary heap with a position index and in-place
//!   `update_key`. One entry per element; every decrease sifts the entry and
//!   maintains the `pos` index (three arrays touched per swap).
//! - [`LazyMinHeap`] — the lazy-deletion variant behind the bucket
//!   queue's frontier: a decrease simply *pushes a fresh entry* and the
//!   consumer skips stale entries on pop (an entry is stale when its key no
//!   longer matches the element's current key, or the element was already
//!   removed). No position index, no re-heapify; entries are `(key, id)`
//!   pairs bit-packed into single `u128` words sifted over one contiguous
//!   4-ary array, which is what makes the high pop volume of lazy deletion
//!   affordable.
//!
//! [`crate::bucket::BucketQueue`] keeps the lazy-entry contract but shards
//! the entries across exponent-indexed append logs, absorbing each bucket
//! into one small frontier `LazyMinHeap` only when the minimum reaches it —
//! trading the global `O(log n)` sift for near-constant routing (the
//! engine's linear-peel claim). `IndexedMinHeap` backs the naive reference
//! peel ([`crate::peel`]).
//!
//! Keys only ever decrease during a peel, so for every element the entry
//! carrying its *current* key is the element's minimum entry — the first
//! non-stale pop is exactly the pop [`IndexedMinHeap`] would deliver, which
//! is why the engines produce bit-identical peel orders.
//!
//! Keys are `f64` priorities (never NaN — asserted on insert in the indexed
//! heap, debug-asserted in the lazy one).

/// Slot value marking an element as not in the heap.
const ABSENT: usize = usize::MAX;

/// A min-heap over elements `0..capacity` with `f64` keys and O(log n)
/// arbitrary-element key updates.
#[derive(Clone, Debug)]
pub struct IndexedMinHeap {
    /// Heap array of element ids.
    heap: Vec<usize>,
    /// `pos[element] = index into heap`, or `ABSENT`.
    pos: Vec<usize>,
    /// `key[element]` — valid only while the element is in the heap.
    key: Vec<f64>,
}

impl IndexedMinHeap {
    /// An empty heap that can hold elements `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        IndexedMinHeap {
            heap: Vec::with_capacity(capacity),
            pos: vec![ABSENT; capacity],
            key: vec![0.0; capacity],
        }
    }

    /// Builds a heap containing every element with the given keys, in O(n).
    ///
    /// # Panics
    ///
    /// Panics if any key is NaN.
    pub fn from_keys(keys: &[f64]) -> Self {
        for (i, k) in keys.iter().enumerate() {
            assert!(!k.is_nan(), "NaN key for element {i}");
        }
        let n = keys.len();
        let mut h = IndexedMinHeap {
            heap: (0..n).collect(),
            pos: (0..n).collect(),
            key: keys.to_vec(),
        };
        if n > 1 {
            for i in (0..n / 2).rev() {
                h.sift_down(i);
            }
        }
        h
    }

    /// Number of elements currently in the heap.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when the heap holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// `true` when `element` is currently in the heap.
    #[inline]
    pub fn contains(&self, element: usize) -> bool {
        self.pos.get(element).is_some_and(|&p| p != ABSENT)
    }

    /// Current key of `element` (meaningful only if [`contains`](Self::contains)).
    #[inline]
    pub fn key_of(&self, element: usize) -> f64 {
        self.key[element]
    }

    /// Inserts `element` with `key`.
    ///
    /// # Panics
    ///
    /// Panics if the element is already present, out of capacity, or NaN-keyed.
    pub fn push(&mut self, element: usize, key: f64) {
        assert!(!key.is_nan(), "NaN key for element {element}");
        assert!(element < self.pos.len(), "element {element} out of capacity");
        assert!(!self.contains(element), "element {element} already in heap");
        self.key[element] = key;
        self.pos[element] = self.heap.len();
        self.heap.push(element);
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes and returns the minimum `(element, key)`.
    pub fn pop_min(&mut self) -> Option<(usize, f64)> {
        if self.heap.is_empty() {
            return None;
        }
        let min = self.heap[0];
        let key = self.key[min];
        self.remove_at(0);
        Some((min, key))
    }

    /// Peeks the minimum without removing it.
    pub fn peek_min(&self) -> Option<(usize, f64)> {
        self.heap.first().map(|&e| (e, self.key[e]))
    }

    /// Changes the key of a present element (up or down).
    ///
    /// # Panics
    ///
    /// Panics if the element is absent or the key is NaN.
    pub fn update_key(&mut self, element: usize, key: f64) {
        assert!(!key.is_nan(), "NaN key for element {element}");
        assert!(self.contains(element), "element {element} not in heap");
        let old = self.key[element];
        self.key[element] = key;
        let p = self.pos[element];
        if key < old {
            self.sift_up(p);
        } else if key > old {
            self.sift_down(p);
        }
    }

    /// Removes an arbitrary present element.
    ///
    /// # Panics
    ///
    /// Panics if the element is absent.
    pub fn remove(&mut self, element: usize) {
        assert!(self.contains(element), "element {element} not in heap");
        let p = self.pos[element];
        self.remove_at(p);
    }

    /// Heap-order comparison: by key, ties by element id (determinism).
    #[inline]
    fn less(&self, a: usize, b: usize) -> bool {
        let (ka, kb) = (self.key[a], self.key[b]);
        ka < kb || (ka == kb && a < b)
    }

    fn remove_at(&mut self, p: usize) {
        let last = self.heap.len() - 1;
        let removed = self.heap[p];
        self.heap.swap(p, last);
        self.pos[self.heap[p]] = p;
        self.heap.pop();
        self.pos[removed] = ABSENT;
        if p < self.heap.len() {
            self.sift_down(p);
            self.sift_up(p);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.less(self.heap[i], self.heap[parent]) {
                self.swap_slots(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && self.less(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && self.less(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap_slots(i, best);
            i = best;
        }
    }

    #[inline]
    fn swap_slots(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a]] = a;
        self.pos[self.heap[b]] = b;
    }
}

/// Branching factor of [`LazyMinHeap`]. Four children per node halves the
/// sift depth of a binary heap and keeps each node's children within two
/// cache lines of 16-byte packed entries.
const ARITY: usize = 4;

/// A lazy-deletion 4-ary min-heap over `(key, element)` entries.
///
/// Ordering is `(key, element)` lexicographic — smallest key first, ties by
/// element id — matching [`IndexedMinHeap`]'s pop order. The heap does not
/// know which entries are current: callers push a new entry on every key
/// decrease and filter stale pops themselves (see the module docs).
///
/// Entries are bit-packed into a single `u128` — the key's IEEE-754 bits in
/// the high word, the element id in the low 32 bits — so every heap
/// comparison is one integer compare with the id tie-break built in. The
/// packing requires keys to be **non-negative and not NaN** (debug-asserted
/// on insert): for such floats the bit pattern is monotone in the numeric
/// value. The peel loops only ever key on suspiciousness sums, which are
/// non-negative by construction.
///
/// Internally the entries live in two stores with one logical order:
///
/// - `base` — the [`fill`](Self::fill) entries, sorted ascending once and
///   consumed front-to-back by a cursor. In a greedy peel most nodes are
///   popped with their *initial* key (their neighborhood outlives them), so
///   the bulk of pops degenerate to a sequential array read.
/// - `entries` — a sifted 4-ary heap holding only the entries pushed
///   *after* the fill (the key decreases). This working set is far smaller
///   than one-entry-per-node, which keeps sift paths shallow and the hot
///   part of the array cache-resident.
///
/// [`pop`](Self::pop) takes whichever front is smaller; since the packed
/// order is total (distinct element ids), the merged sequence is exactly
/// the pop order of a single heap holding all entries.
#[derive(Clone, Debug, Default)]
pub struct LazyMinHeap {
    /// Fill entries, sorted ascending; `base[cursor..]` is still pending.
    base: Vec<u128>,
    /// Consumed prefix length of `base`.
    cursor: usize,
    /// 4-ary sifted heap over the entries pushed since the last fill.
    entries: Vec<u128>,
}

impl LazyMinHeap {
    /// An empty heap.
    pub fn new() -> Self {
        LazyMinHeap::default()
    }

    #[inline]
    fn pack(element: u32, key: f64) -> u128 {
        debug_assert!(
            key >= 0.0 && key.is_sign_positive(),
            "LazyMinHeap requires non-negative keys (got {key} for element {element})"
        );
        ((key.to_bits() as u128) << 32) | element as u128
    }

    #[inline]
    fn unpack(entry: u128) -> (f64, u32) {
        (f64::from_bits((entry >> 32) as u64), entry as u32)
    }

    /// Drops every entry, keeping the allocations.
    #[inline]
    pub fn clear(&mut self) {
        self.base.clear();
        self.cursor = 0;
        self.entries.clear();
    }

    /// Number of entries (including stale ones).
    #[inline]
    pub fn len(&self) -> usize {
        (self.base.len() - self.cursor) + self.entries.len()
    }

    /// `true` when no entries remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replaces the contents with `entries` in O(n log n) (one unstable
    /// sort of packed words) — cheaper in practice than a heap build plus
    /// n sifting pops, because the sorted run is consumed sequentially.
    pub fn fill(&mut self, entries: impl IntoIterator<Item = (u32, f64)>) {
        self.base.clear();
        self.cursor = 0;
        self.entries.clear();
        self.base
            .extend(entries.into_iter().map(|(e, k)| Self::pack(e, k)));
        self.base.sort_unstable();
    }

    /// Drops every entry that no longer carries its element's current key
    /// and restores the internal order invariants in O(n).
    ///
    /// `current[element]` is the element's live key, or any negative
    /// sentinel once it has been removed (entry keys are non-negative, so
    /// a sentinel never matches). Compacting is pure pruning: stale
    /// entries would have been skipped on pop anyway, so the sequence of
    /// *current* pops is unchanged — but the structure shrinks back to one
    /// entry per live element, which keeps sift paths shallow when a peel
    /// generates many decreases.
    pub fn retain_current(&mut self, current: &[f64]) {
        let live = |e: u128| current[e as u32 as usize].to_bits() == (e >> 32) as u64;
        // The pending tail of `base`: dropping entries keeps it sorted.
        let mut write = self.cursor;
        for read in self.cursor..self.base.len() {
            let e = self.base[read];
            if live(e) {
                self.base[write] = e;
                write += 1;
            }
        }
        self.base.truncate(write);
        // The pushed part needs a Floyd rebuild after the retain.
        self.entries.retain(|&e| live(e));
        let n = self.entries.len();
        if n > 1 {
            for i in (0..=(n - 2) / ARITY).rev() {
                self.sift_down(i);
            }
        }
    }

    /// The `(key, element)` entry the next [`pop`](Self::pop) will return
    /// (possibly stale), or `None` if empty. O(1); lets callers inspect the
    /// minimum before committing to the pop.
    #[inline]
    pub fn peek(&self) -> Option<(f64, u32)> {
        let front = match (self.base.get(self.cursor), self.entries.first()) {
            (Some(&b), Some(&h)) => b.min(h),
            (Some(&b), None) => b,
            (None, Some(&h)) => h,
            (None, None) => return None,
        };
        Some(Self::unpack(front))
    }

    /// Pushes an entry for `element` with `key` (O(log n)).
    #[inline]
    pub fn push(&mut self, element: u32, key: f64) {
        self.entries.push(Self::pack(element, key));
        self.sift_up(self.entries.len() - 1);
    }

    /// Removes and returns the smallest `(key, element)` entry, stale or not.
    ///
    /// Uses the bottom-up deletion strategy: the root hole walks to a leaf
    /// along minimum children (no comparison against the displaced last
    /// entry, which almost always belongs near the bottom anyway), then the
    /// last entry bubbles up from that leaf — usually zero or one steps.
    #[inline]
    pub fn pop(&mut self) -> Option<(f64, u32)> {
        // Merge point of the two stores: take whichever front is smaller.
        // Entries carry distinct ids, so the packed compare is strict and
        // the merged order equals a single heap's pop order.
        if let Some(&b) = self.base.get(self.cursor) {
            match self.entries.first() {
                Some(&h) if h < b => {}
                _ => {
                    self.cursor += 1;
                    return Some(Self::unpack(b));
                }
            }
        }
        let n = self.entries.len();
        if n == 0 {
            return None;
        }
        let min = self.entries[0];
        let last = self.entries.pop().expect("checked non-empty");
        let m = self.entries.len();
        if m > 0 {
            let mut hole = 0usize;
            loop {
                let first = ARITY * hole + 1;
                if first >= m {
                    break;
                }
                // The grandchildren of `hole` occupy one contiguous span
                // (`ARITY * first + 1` onward); whichever child wins, the
                // next level's reads land there, so warm it while the
                // children are being compared.
                #[cfg(target_arch = "x86_64")]
                {
                    let gfirst = ARITY * first + 1;
                    if gfirst < m {
                        let base = self.entries.as_ptr();
                        let glast = (gfirst + ARITY * ARITY - 1).min(m - 1);
                        let mut g = gfirst;
                        while g <= glast {
                            // SAFETY: `g` is in bounds and prefetch has no
                            // side effects beyond the cache.
                            unsafe {
                                std::arch::x86_64::_mm_prefetch(
                                    base.add(g).cast::<i8>(),
                                    std::arch::x86_64::_MM_HINT_T0,
                                );
                            }
                            g += 4; // one 64-byte line holds four u128 entries
                        }
                    }
                }
                let mut best = first;
                let mut best_entry = self.entries[first];
                for c in first + 1..(first + ARITY).min(m) {
                    let e = self.entries[c];
                    if e < best_entry {
                        best = c;
                        best_entry = e;
                    }
                }
                self.entries[hole] = best_entry;
                hole = best;
            }
            self.entries[hole] = last;
            self.sift_up(hole);
        }
        Some(Self::unpack(min))
    }



    fn sift_up(&mut self, mut i: usize) {
        let item = self.entries[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            let p = self.entries[parent];
            if item < p {
                self.entries[i] = p;
                i = parent;
            } else {
                break;
            }
        }
        self.entries[i] = item;
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.entries.len();
        let item = self.entries[i];
        loop {
            let first = ARITY * i + 1;
            if first >= n {
                break;
            }
            let mut best = first;
            let mut best_entry = self.entries[first];
            for c in first + 1..(first + ARITY).min(n) {
                let e = self.entries[c];
                if e < best_entry {
                    best = c;
                    best_entry = e;
                }
            }
            if best_entry < item {
                self.entries[i] = best_entry;
                i = best;
            } else {
                break;
            }
        }
        self.entries[i] = item;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_keys_pops_in_order() {
        let mut h = IndexedMinHeap::from_keys(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        let mut out = Vec::new();
        while let Some((e, k)) = h.pop_min() {
            out.push((e, k));
        }
        assert_eq!(
            out,
            vec![(1, 1.0), (3, 2.0), (2, 3.0), (4, 4.0), (0, 5.0)]
        );
    }

    #[test]
    fn push_and_pop_interleaved() {
        let mut h = IndexedMinHeap::with_capacity(4);
        h.push(0, 2.0);
        h.push(1, 1.0);
        assert_eq!(h.pop_min(), Some((1, 1.0)));
        h.push(2, 0.5);
        h.push(3, 3.0);
        assert_eq!(h.pop_min(), Some((2, 0.5)));
        assert_eq!(h.pop_min(), Some((0, 2.0)));
        assert_eq!(h.pop_min(), Some((3, 3.0)));
        assert_eq!(h.pop_min(), None);
        assert!(h.is_empty());
    }

    #[test]
    fn update_key_decrease_moves_to_front() {
        let mut h = IndexedMinHeap::from_keys(&[5.0, 6.0, 7.0]);
        h.update_key(2, 0.0);
        assert_eq!(h.peek_min(), Some((2, 0.0)));
    }

    #[test]
    fn update_key_increase_moves_back() {
        let mut h = IndexedMinHeap::from_keys(&[1.0, 2.0, 3.0]);
        h.update_key(0, 10.0);
        assert_eq!(h.pop_min(), Some((1, 2.0)));
        assert_eq!(h.pop_min(), Some((2, 3.0)));
        assert_eq!(h.pop_min(), Some((0, 10.0)));
    }

    #[test]
    fn remove_arbitrary_element() {
        let mut h = IndexedMinHeap::from_keys(&[4.0, 1.0, 3.0, 2.0]);
        h.remove(3);
        assert!(!h.contains(3));
        assert_eq!(h.len(), 3);
        assert_eq!(h.pop_min(), Some((1, 1.0)));
        assert_eq!(h.pop_min(), Some((2, 3.0)));
        assert_eq!(h.pop_min(), Some((0, 4.0)));
    }

    #[test]
    fn ties_break_by_element_id() {
        let mut h = IndexedMinHeap::from_keys(&[1.0, 1.0, 1.0]);
        assert_eq!(h.pop_min(), Some((0, 1.0)));
        assert_eq!(h.pop_min(), Some((1, 1.0)));
        assert_eq!(h.pop_min(), Some((2, 1.0)));
    }

    #[test]
    fn contains_and_key_of() {
        let h = IndexedMinHeap::from_keys(&[2.0, 9.0]);
        assert!(h.contains(1));
        assert_eq!(h.key_of(1), 9.0);
        assert!(!h.contains(5));
    }

    #[test]
    #[should_panic(expected = "already in heap")]
    fn double_push_panics() {
        let mut h = IndexedMinHeap::with_capacity(2);
        h.push(0, 1.0);
        h.push(0, 2.0);
    }

    #[test]
    #[should_panic(expected = "NaN key")]
    fn nan_key_panics() {
        let mut h = IndexedMinHeap::with_capacity(1);
        h.push(0, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "not in heap")]
    fn update_absent_panics() {
        let mut h = IndexedMinHeap::with_capacity(2);
        h.push(0, 1.0);
        h.update_key(1, 2.0);
    }

    #[test]
    fn empty_heap_behaves() {
        let mut h = IndexedMinHeap::with_capacity(0);
        assert!(h.is_empty());
        assert_eq!(h.pop_min(), None);
        assert_eq!(h.peek_min(), None);
        let mut h2 = IndexedMinHeap::from_keys(&[]);
        assert_eq!(h2.pop_min(), None);
    }

    #[test]
    fn lazy_heap_pops_in_key_then_id_order() {
        let mut h = LazyMinHeap::new();
        for (e, k) in [(0u32, 5.0), (1, 1.0), (2, 3.0), (3, 1.0), (4, 4.0)] {
            h.push(e, k);
        }
        let mut out = Vec::new();
        while let Some((k, e)) = h.pop() {
            out.push((e, k));
        }
        assert_eq!(out, vec![(1, 1.0), (3, 1.0), (2, 3.0), (4, 4.0), (0, 5.0)]);
    }

    #[test]
    fn lazy_heap_duplicates_surface_smallest_first() {
        let mut h = LazyMinHeap::new();
        h.push(7, 9.0);
        h.push(7, 4.0); // "decrease-key" = push the new key
        h.push(7, 6.0);
        assert_eq!(h.pop(), Some((4.0, 7)));
        assert_eq!(h.pop(), Some((6.0, 7)));
        assert_eq!(h.pop(), Some((9.0, 7)));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn lazy_heap_fill_matches_pushes() {
        // Floyd build and sifting pushes must expose the same pop order,
        // including zero keys and id tie-breaks.
        let entries = [(9u32, 2.5), (3, 0.0), (7, 2.5), (1, 0.0), (4, 1.0)];
        let mut filled = LazyMinHeap::new();
        filled.fill(entries);
        filled.push(2, 0.5);
        let mut pushed = LazyMinHeap::new();
        for (e, k) in entries {
            pushed.push(e, k);
        }
        pushed.push(2, 0.5);
        for _ in 0..entries.len() + 1 {
            assert_eq!(filled.pop(), pushed.pop());
        }
        assert!(filled.is_empty() && pushed.is_empty());
    }

    #[test]
    fn lazy_heap_clear_keeps_working() {
        let mut h = LazyMinHeap::new();
        h.push(0, 2.0);
        h.clear();
        assert!(h.is_empty());
        h.push(1, 1.0);
        assert_eq!(h.len(), 1);
        assert_eq!(h.pop(), Some((1.0, 1)));
    }

    #[test]
    fn lazy_matches_indexed_on_decrease_key_workload() {
        // Same decrease-key script through both structures: the sequence of
        // valid pops must be identical (the engine-equivalence argument in
        // miniature).
        let keys = [9.0, 7.0, 8.0, 6.0, 5.0, 9.5];
        let decreases: &[(usize, f64)] = &[(0, 4.0), (2, 4.0), (5, 0.5), (2, 2.0)];

        let mut indexed = IndexedMinHeap::from_keys(&keys);
        let mut current = keys.to_vec();
        let mut lazy = LazyMinHeap::new();
        for (e, &k) in keys.iter().enumerate() {
            lazy.push(e as u32, k);
        }
        for &(e, k) in decreases {
            indexed.update_key(e, k);
            current[e] = k;
            lazy.push(e as u32, k);
        }

        let mut from_indexed = Vec::new();
        while let Some(pair) = indexed.pop_min() {
            from_indexed.push(pair);
        }
        let mut removed = vec![false; keys.len()];
        let mut from_lazy = Vec::new();
        while let Some((k, e)) = lazy.pop() {
            let e = e as usize;
            if removed[e] || k != current[e] {
                continue; // stale
            }
            removed[e] = true;
            from_lazy.push((e, k));
        }
        assert_eq!(from_lazy, from_indexed);
    }
}
