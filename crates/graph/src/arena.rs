//! Arena-backed string interning.
//!
//! A twin-map interner stores every key twice (`HashMap<String, u32>` +
//! `Vec<String>`), which means two heap allocations per distinct key and
//! pointer-chasing on every probe. At the 60M-transaction regime the paper
//! targets, interning is the ingest bottleneck, so this module builds it
//! around a byte arena instead:
//!
//! - [`ArenaInterner`]: one contiguous byte arena plus `(offset, len)` spans
//!   per key, with an open-addressing index of dense ids probed directly
//!   against the arena. One amortized allocation per *arena doubling*, not
//!   per key, and borrow-keyed lookup with no temporary `String`.
//! - [`ShardedInterner`]: a concurrent variant routing keys by hash to
//!   independent [`ArenaInterner`]-style shards so threads interning
//!   disjoint keys never contend, while a global reverse map keeps ids
//!   **dense and arrival-ordered** — single-threaded use assigns exactly
//!   the ids the serial interner would.
//! - [`ArenaTransactionInterner`] / [`ConcurrentTransactionInterner`]:
//!   the two-namespace (user + merchant) wrappers the loader and service
//!   use.

use crate::ids::{MerchantId, UserId};
use std::sync::RwLock;

/// FNV-1a, 64-bit: deterministic across runs and platforms (unlike the
/// std `RandomState`), cheap on the short keys transaction logs carry.
#[inline]
fn fnv1a(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Number of shards in [`ShardedInterner`]. Sixteen keeps per-shard table
/// sizes reasonable while making same-shard collisions rare for typical
/// worker counts (≤ 16).
const NUM_SHARDS: usize = 16;

/// A single-namespace interner: one byte arena, `(offset, len)` spans, and
/// an open-addressing table of dense ids compared straight against the
/// arena. Exactly one amortized byte-copy per distinct key.
#[derive(Clone, Debug, Default)]
pub struct ArenaInterner {
    arena: Vec<u8>,
    spans: Vec<(u32, u32)>,
    /// Open-addressing slots holding `id + 1` (`0` = empty). Capacity is a
    /// power of two; resized at 3/4 load.
    table: Vec<u32>,
}

impl ArenaInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty interner sized for roughly `keys` distinct keys.
    pub fn with_capacity(keys: usize) -> Self {
        let cap = (keys * 4 / 3 + 1).next_power_of_two().max(16);
        ArenaInterner {
            arena: Vec::new(),
            spans: Vec::with_capacity(keys),
            table: vec![0; cap],
        }
    }

    /// Number of distinct keys interned.
    #[inline]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no key has been interned yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Bytes held by the key arena (the dominant term of interner memory).
    #[inline]
    pub fn arena_bytes(&self) -> usize {
        self.arena.len()
    }

    /// The key stored under `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never returned by [`Self::intern`].
    #[inline]
    pub fn key(&self, id: u32) -> &str {
        let (off, len) = self.spans[id as usize];
        // Spans are only ever created from `&str` input, so the slice is
        // valid UTF-8 by construction.
        std::str::from_utf8(&self.arena[off as usize..(off + len) as usize])
            .expect("arena spans are UTF-8 by construction")
    }

    #[inline]
    fn span_bytes(&self, id: u32) -> &[u8] {
        let (off, len) = self.spans[id as usize];
        &self.arena[off as usize..(off + len) as usize]
    }

    /// Looks up an existing key without allocating.
    #[inline]
    pub fn find(&self, key: &str) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut slot = (fnv1a(key.as_bytes()) as usize) & mask;
        loop {
            match self.table[slot] {
                0 => return None,
                stored => {
                    let id = stored - 1;
                    if self.span_bytes(id) == key.as_bytes() {
                        return Some(id);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Interns `key`, returning its dense id (assigned in first-appearance
    /// order: the n-th distinct key gets id `n - 1`).
    pub fn intern(&mut self, key: &str) -> u32 {
        if self.table.is_empty() {
            self.table = vec![0; 16];
        }
        let hash = fnv1a(key.as_bytes());
        let mask = self.table.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            match self.table[slot] {
                0 => break,
                stored => {
                    let id = stored - 1;
                    if self.span_bytes(id) == key.as_bytes() {
                        return id;
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
        let id = self.push_key(key);
        self.table[slot] = id + 1;
        if (self.spans.len() + 1) * 4 > self.table.len() * 3 {
            self.grow_table();
        }
        id
    }

    /// Appends `key` to the arena and records its span. Caller owns table
    /// insertion.
    fn push_key(&mut self, key: &str) -> u32 {
        let off = u32::try_from(self.arena.len()).expect("interner arena exceeds 4 GiB");
        let len = u32::try_from(key.len()).expect("interner key exceeds 4 GiB");
        assert!(
            off.checked_add(len).is_some(),
            "interner arena exceeds 4 GiB"
        );
        self.arena.extend_from_slice(key.as_bytes());
        let id = self.spans.len() as u32;
        self.spans.push((off, len));
        id
    }

    fn grow_table(&mut self) {
        let new_cap = self.table.len() * 2;
        let mask = new_cap - 1;
        let mut table = vec![0u32; new_cap];
        for id in 0..self.spans.len() as u32 {
            let mut slot = (fnv1a(self.span_bytes(id)) as usize) & mask;
            while table[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            table[slot] = id + 1;
        }
        self.table = table;
    }

    /// Iterates keys in id order (first-appearance order).
    pub fn keys(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.spans.len() as u32).map(move |id| self.key(id))
    }
}

/// Two-namespace (user + merchant) arena interner: what the parallel
/// loader and the serial [`read_transactions_csv`](crate::read_transactions_csv)
/// return.
#[derive(Clone, Debug, Default)]
pub struct ArenaTransactionInterner {
    users: ArenaInterner,
    merchants: ArenaInterner,
}

impl ArenaTransactionInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (possibly allocating) the dense id of a user key.
    #[inline]
    pub fn user(&mut self, key: &str) -> UserId {
        UserId(self.users.intern(key))
    }

    /// Returns (possibly allocating) the dense id of a merchant key.
    #[inline]
    pub fn merchant(&mut self, key: &str) -> MerchantId {
        MerchantId(self.merchants.intern(key))
    }

    /// Looks up an existing user key without allocating.
    pub fn find_user(&self, key: &str) -> Option<UserId> {
        self.users.find(key).map(UserId)
    }

    /// Looks up an existing merchant key without allocating.
    pub fn find_merchant(&self, key: &str) -> Option<MerchantId> {
        self.merchants.find(key).map(MerchantId)
    }

    /// The original key of a user id.
    pub fn user_key(&self, u: UserId) -> &str {
        self.users.key(u.0)
    }

    /// The original key of a merchant id.
    pub fn merchant_key(&self, v: MerchantId) -> &str {
        self.merchants.key(v.0)
    }

    /// Number of distinct users seen.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Number of distinct merchants seen.
    pub fn num_merchants(&self) -> usize {
        self.merchants.len()
    }

    /// Translates a detected user set back to keys.
    pub fn user_keys_of(&self, detected: &[UserId]) -> Vec<&str> {
        detected.iter().map(|&u| self.user_key(u)).collect()
    }

    /// Total arena bytes across both namespaces.
    pub fn arena_bytes(&self) -> usize {
        self.users.arena_bytes() + self.merchants.arena_bytes()
    }

    /// The user-side namespace (for tests and merging).
    pub fn users(&self) -> &ArenaInterner {
        &self.users
    }

    /// The merchant-side namespace (for tests and merging).
    pub fn merchants(&self) -> &ArenaInterner {
        &self.merchants
    }
}

/// One shard of a [`ShardedInterner`]: a local arena plus a table mapping
/// keys to *local* indexes, and the local→global id translation.
#[derive(Debug, Default)]
struct Shard {
    local: ArenaInterner,
    /// `globals[local_index]` is the dense global id.
    globals: Vec<u32>,
}

/// Recovers a read guard even if a writer panicked; the interner's
/// invariants hold at every await-free step, so the data is still usable.
fn read_recover<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write_recover<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// A concurrent interner: keys route by hash to `NUM_SHARDS` (16) independent
/// shards, so threads interning disjoint keys take disjoint locks. Hits —
/// the overwhelming majority on real logs — need only a shard *read* lock.
///
/// Global ids stay **dense and arrival-ordered**: a miss takes the shard
/// write lock, then a global reverse-map lock (always in that order) to
/// allocate the next id. Used single-threaded, the assigned ids are
/// identical to [`ArenaInterner`]'s.
#[derive(Debug)]
pub struct ShardedInterner {
    shards: Vec<RwLock<Shard>>,
    /// `reverse[global_id] = (shard, local_index)`.
    reverse: RwLock<Vec<(u32, u32)>>,
}

impl Default for ShardedInterner {
    fn default() -> Self {
        ShardedInterner {
            shards: (0..NUM_SHARDS).map(|_| RwLock::new(Shard::default())).collect(),
            reverse: RwLock::new(Vec::new()),
        }
    }
}

impl ShardedInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn shard_of(key: &str) -> usize {
        // High bits pick the shard so the low bits the shard table uses
        // stay independent of the routing decision.
        (fnv1a(key.as_bytes()) >> 57) as usize & (NUM_SHARDS - 1)
    }

    /// Interns `key`, returning its dense global id (arrival order).
    pub fn intern(&self, key: &str) -> u32 {
        let shard = &self.shards[Self::shard_of(key)];
        {
            let guard = read_recover(shard);
            if let Some(local) = guard.local.find(key) {
                return guard.globals[local as usize];
            }
        }
        let mut guard = write_recover(shard);
        // Re-check under the write lock: another thread may have won the
        // race between our read probe and here.
        if let Some(local) = guard.local.find(key) {
            return guard.globals[local as usize];
        }
        // Lock order is always shard → reverse, so two misses on different
        // shards serialize only on the id allocation itself.
        let mut reverse = write_recover(&self.reverse);
        let global = u32::try_from(reverse.len()).expect("interner exceeds u32 ids");
        let local = guard.local.intern(key);
        reverse.push((Self::shard_of(key) as u32, local));
        guard.globals.push(global);
        global
    }

    /// Looks up an existing key without allocating.
    pub fn find(&self, key: &str) -> Option<u32> {
        let guard = read_recover(&self.shards[Self::shard_of(key)]);
        guard.local.find(key).map(|l| guard.globals[l as usize])
    }

    /// The key stored under `id`, as an owned `String` (the backing arena
    /// lives behind a shard lock, so a borrow cannot escape).
    ///
    /// # Panics
    ///
    /// Panics if `id` was never returned by [`Self::intern`].
    pub fn key(&self, id: u32) -> String {
        let (shard, local) = read_recover(&self.reverse)[id as usize];
        read_recover(&self.shards[shard as usize]).local.key(local).to_string()
    }

    /// Number of distinct keys interned.
    pub fn len(&self) -> usize {
        read_recover(&self.reverse).len()
    }

    /// Whether no key has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes held by the key arenas across all shards.
    pub fn arena_bytes(&self) -> usize {
        self.shards.iter().map(|s| read_recover(s).local.arena_bytes()).sum()
    }
}

/// Two-namespace concurrent interner for the service's bulk-ingest path:
/// `&self` methods and internal sharding, so concurrent parse workers
/// never serialize on one interner lock.
#[derive(Debug, Default)]
pub struct ConcurrentTransactionInterner {
    users: ShardedInterner,
    merchants: ShardedInterner,
}

impl ConcurrentTransactionInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (possibly allocating) the dense id of a user key.
    #[inline]
    pub fn user(&self, key: &str) -> UserId {
        UserId(self.users.intern(key))
    }

    /// Returns (possibly allocating) the dense id of a merchant key.
    #[inline]
    pub fn merchant(&self, key: &str) -> MerchantId {
        MerchantId(self.merchants.intern(key))
    }

    /// Looks up an existing user key without allocating.
    pub fn find_user(&self, key: &str) -> Option<UserId> {
        self.users.find(key).map(UserId)
    }

    /// Looks up an existing merchant key without allocating.
    pub fn find_merchant(&self, key: &str) -> Option<MerchantId> {
        self.merchants.find(key).map(MerchantId)
    }

    /// The original key of a user id, as an owned `String`.
    pub fn user_key(&self, u: UserId) -> String {
        self.users.key(u.0)
    }

    /// The original key of a merchant id, as an owned `String`.
    pub fn merchant_key(&self, v: MerchantId) -> String {
        self.merchants.key(v.0)
    }

    /// Number of distinct users seen.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Number of distinct merchants seen.
    pub fn num_merchants(&self) -> usize {
        self.merchants.len()
    }

    /// Translates a detected user set back to keys.
    pub fn user_keys_of(&self, detected: &[UserId]) -> Vec<String> {
        detected.iter().map(|&u| self.user_key(u)).collect()
    }

    /// Total arena bytes across both namespaces and all shards.
    pub fn arena_bytes(&self) -> usize {
        self.users.arena_bytes() + self.merchants.arena_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn arena_ids_are_first_appearance_order() {
        let mut a = ArenaInterner::new();
        assert_eq!(a.intern("alice"), 0);
        assert_eq!(a.intern("bob"), 1);
        assert_eq!(a.intern("alice"), 0);
        assert_eq!(a.intern("carol"), 2);
        assert_eq!(a.len(), 3);
        assert_eq!(a.key(1), "bob");
        assert_eq!(a.find("carol"), Some(2));
        assert_eq!(a.find("dave"), None);
        assert_eq!(a.keys().collect::<Vec<_>>(), vec!["alice", "bob", "carol"]);
    }

    #[test]
    fn arena_survives_table_growth() {
        let mut a = ArenaInterner::new();
        let n = 10_000u32;
        for i in 0..n {
            assert_eq!(a.intern(&format!("key-{i}")), i);
        }
        for i in 0..n {
            assert_eq!(a.find(&format!("key-{i}")), Some(i), "key-{i} lost in resize");
            assert_eq!(a.key(i), format!("key-{i}"));
        }
        assert_eq!(a.len(), n as usize);
        assert!(a.arena_bytes() > 0);
    }

    #[test]
    fn arena_handles_empty_and_colliding_keys() {
        let mut a = ArenaInterner::new();
        let empty = a.intern("");
        let ab = a.intern("ab");
        // "a" + "b" concatenated in the arena must not alias "ab".
        let a1 = a.intern("a");
        let b1 = a.intern("b");
        assert_eq!(a.intern(""), empty);
        assert_eq!(a.intern("ab"), ab);
        assert_eq!(HashSet::from([empty, ab, a1, b1]).len(), 4);
        assert_eq!(a.key(empty), "");
    }

    #[test]
    fn with_capacity_matches_default_ids() {
        let mut a = ArenaInterner::new();
        let mut b = ArenaInterner::with_capacity(100);
        for key in ["x", "y", "x", "z"] {
            assert_eq!(a.intern(key), b.intern(key));
        }
    }

    #[test]
    fn sharded_single_thread_matches_serial_ids() {
        let serial = {
            let mut a = ArenaInterner::new();
            (0..500).map(|i| a.intern(&format!("u{}", i % 173))).collect::<Vec<_>>()
        };
        let sharded = ShardedInterner::new();
        let got: Vec<u32> = (0..500).map(|i| sharded.intern(&format!("u{}", i % 173))).collect();
        assert_eq!(serial, got);
        assert_eq!(sharded.len(), 173);
        for id in 0..173u32 {
            let key = sharded.key(id);
            assert_eq!(sharded.find(&key), Some(id));
        }
    }

    #[test]
    fn sharded_concurrent_interning_is_consistent() {
        let interner = ShardedInterner::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let interner = &interner;
                scope.spawn(move || {
                    for i in 0..1000 {
                        // Heavy overlap across threads to exercise the
                        // double-checked miss path.
                        interner.intern(&format!("key-{}", (i * 7 + t) % 311));
                    }
                });
            }
        });
        assert_eq!(interner.len(), 311);
        // Every id round-trips and ids are dense 0..n.
        let mut seen = HashSet::new();
        for id in 0..311u32 {
            let key = interner.key(id);
            assert_eq!(interner.find(&key), Some(id));
            assert!(seen.insert(key));
        }
    }

    #[test]
    fn concurrent_transaction_interner_has_disjoint_namespaces() {
        let i = ConcurrentTransactionInterner::new();
        let u = i.user("same-key");
        let v = i.merchant("same-key");
        assert_eq!(u.0, 0);
        assert_eq!(v.0, 0);
        assert_eq!(i.num_users(), 1);
        assert_eq!(i.num_merchants(), 1);
        assert_eq!(i.user_key(u), "same-key");
        assert_eq!(i.merchant_key(v), "same-key");
        assert_eq!(i.user_keys_of(&[u]), vec!["same-key".to_string()]);
        assert!(i.arena_bytes() >= 16);
        assert_eq!(i.find_user("same-key"), Some(u));
        assert_eq!(i.find_merchant("other"), None);
    }

    #[test]
    fn arena_transaction_interner_mirrors_legacy_surface() {
        let mut i = ArenaTransactionInterner::new();
        let a = i.user("PIN-alice");
        let b = i.user("PIN-bob");
        assert_eq!(i.user("PIN-alice"), a);
        assert_ne!(a, b);
        assert_eq!(i.user_key(a), "PIN-alice");
        assert_eq!(i.num_users(), 2);
        let m = i.merchant("store-1");
        assert_eq!(i.merchant_key(m), "store-1");
        assert_eq!(i.find_user("PIN-bob"), Some(b));
        assert_eq!(i.find_merchant("store-1"), Some(m));
        assert_eq!(i.user_keys_of(&[a, b]), vec!["PIN-alice", "PIN-bob"]);
        // Separate id spaces: a merchant key equal to a user key collides
        // with nothing.
        let same = i.merchant("PIN-alice");
        assert_eq!(same.0, 1);
        assert_eq!(i.num_merchants(), 2);
    }
}
