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
//! - [`ArenaTransactionInterner`]: the two-namespace (user + merchant)
//!   interner the loader, the CLI and the service all use.
//! - [`ConcurrentTransactionInterner`]: the service's shared instance, one
//!   [`ArenaTransactionInterner`] behind one mutex. Ingest takes the lock
//!   once per batch and a scan once to translate its flagged ids. One
//!   arena under one lock is also the faster design: `BENCH_PR10.json`
//!   (jd3/4, 3.17M records) timed interning at 0.79 s (103.5 MB
//!   allocated) for the arena against 1.70 s and 1.80 s (153.6 MB) for a
//!   16-shard lock-striped interner on one and two workers.

use crate::ids::{MerchantId, UserId};
use std::sync::{Mutex, MutexGuard, PoisonError};

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
/// return, and what the service shares behind
/// [`ConcurrentTransactionInterner`].
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

/// The service's shared interner: one [`ArenaTransactionInterner`] behind
/// one mutex. Callers that intern a whole batch take [`Self::lock`] once
/// and intern through the guard; the per-key `&self` methods each take the
/// lock for one call. Ids stay dense and arrival-ordered, so interning a
/// log's records in file order assigns exactly the ids the loader's
/// [`ArenaTransactionInterner`] does.
#[derive(Debug, Default)]
pub struct ConcurrentTransactionInterner {
    inner: Mutex<ArenaTransactionInterner>,
}

impl ConcurrentTransactionInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the interner, recovering from poisoning: every
    /// [`ArenaTransactionInterner`] method leaves it valid at each step, so
    /// a thread that panicked while holding the lock left usable data.
    pub fn lock(&self) -> MutexGuard<'_, ArenaTransactionInterner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns (possibly allocating) the dense id of a user key.
    pub fn user(&self, key: &str) -> UserId {
        self.lock().user(key)
    }

    /// Returns (possibly allocating) the dense id of a merchant key.
    pub fn merchant(&self, key: &str) -> MerchantId {
        self.lock().merchant(key)
    }

    /// The original key of a user id, as an owned `String` (the arena
    /// lives behind the lock, so a borrow cannot escape).
    pub fn user_key(&self, u: UserId) -> String {
        self.lock().user_key(u).to_string()
    }

    /// Number of distinct users seen.
    pub fn num_users(&self) -> usize {
        self.lock().num_users()
    }

    /// Number of distinct merchants seen.
    pub fn num_merchants(&self) -> usize {
        self.lock().num_merchants()
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
    fn concurrent_single_thread_matches_serial_ids() {
        let keys: Vec<String> = (0..500).map(|i| format!("k{}", i % 173)).collect();
        let mut serial = ArenaTransactionInterner::new();
        let concurrent = ConcurrentTransactionInterner::new();
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(concurrent.user(key), serial.user(key), "user {key}");
            // Merchants arrive in a different order: namespaces stay apart.
            let m = &keys[keys.len() - 1 - i];
            assert_eq!(concurrent.merchant(m), serial.merchant(m), "merchant {m}");
        }
        assert_eq!(concurrent.num_users(), 173);
        assert_eq!(concurrent.num_merchants(), 173);
        for id in 0..173u32 {
            assert_eq!(concurrent.user_key(UserId(id)), serial.user_key(UserId(id)));
        }
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let interner = ConcurrentTransactionInterner::new();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (interner, start) = (&interner, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..1000 {
                        // Heavy overlap across threads: most calls race on
                        // keys another thread may have just added.
                        interner.user(&format!("key-{}", (i * 7 + t) % 311));
                    }
                });
            }
        });
        assert_eq!(interner.num_users(), 311);
        // Ids are dense 0..n and every id round-trips to a distinct key.
        let mut seen = HashSet::new();
        for id in 0..311u32 {
            let key = interner.user_key(UserId(id));
            assert_eq!(interner.user(&key), UserId(id));
            assert!(seen.insert(key));
        }
        assert_eq!(interner.num_users(), 311);
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
        assert_eq!(i.lock().merchant_key(v), "same-key");
        assert!(i.lock().arena_bytes() >= 16);
    }

    #[test]
    fn concurrent_lock_recovers_from_poisoning() {
        let i = ConcurrentTransactionInterner::new();
        i.user("before");
        let _ = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let mut guard = i.lock();
                    guard.user("during");
                    panic!("poison the interner");
                })
                .join()
        });
        assert!(i.inner.is_poisoned());
        assert_eq!(i.user("after"), UserId(2));
        assert_eq!(i.user_key(UserId(1)), "during");
        assert_eq!(i.num_users(), 3);
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
