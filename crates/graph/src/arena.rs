//! Arena-backed string interning.
//!
//! A twin-map interner stores every key twice (`HashMap<String, u32>` +
//! `Vec<String>`), which means two heap allocations per distinct key and
//! pointer-chasing on every probe. At the 60M-transaction regime the paper
//! targets, interning is the ingest bottleneck, so this module builds it
//! around a byte arena instead:
//!
//! - [`ArenaInterner`]: one contiguous arena of self-describing records
//!   `[id u32][len u32][key bytes]`, and an open-addressing table of
//!   `u64` words `(32-bit hash tag << 32) | (record offset + 1)`. A probe
//!   compares tags and reads the arena only when a tag matches, and that
//!   one record holds both the id and the key bytes, so a hit costs one
//!   table miss plus one arena miss. Table growth re-places words from
//!   their stored tags without reading a key. `key(id)` goes through a
//!   `Vec<u32>` of record offsets. One amortized allocation per
//!   *doubling*, not per key, and borrow-keyed lookup with no temporary
//!   `String`.
//! - [`Key`]: a key with its [`key_hash`], so the hash can be computed
//!   outside the interner (the service's CSV parse workers do) and the
//!   serial interning section only probes and inserts.
//! - [`ArenaTransactionInterner`]: the two-namespace (user + merchant)
//!   interner the loader, the CLI and the service all use.
//! - [`ConcurrentTransactionInterner`]: the service's shared instance, one
//!   [`ArenaTransactionInterner`] behind one mutex. Ingest takes the lock
//!   once per batch and a scan once to translate its flagged ids.

use crate::ids::{MerchantId, UserId};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// FNV-1a, 64-bit, of a key's bytes: deterministic across runs and
/// platforms (unlike the std `RandomState`), cheap on the short keys
/// transaction logs carry. Its low 32 bits are the key's table tag.
#[inline]
pub fn key_hash(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A key and its [`key_hash`]. Building one hashes the key, so callers
/// that parse in parallel build their keys there and hand the interner
/// pre-hashed keys. Every interner method that takes a key accepts a
/// `&str` or `&String` as well and hashes it on the spot.
#[derive(Clone, Copy, Debug)]
pub struct Key<'a> {
    text: &'a str,
    hash: u64,
}

impl<'a> Key<'a> {
    /// Hashes `text`.
    #[inline]
    pub fn new(text: &'a str) -> Self {
        Key {
            text,
            hash: key_hash(text.as_bytes()),
        }
    }

    /// The tag stored in the key's table word: the hash's low 32 bits.
    #[inline]
    fn tag(self) -> u32 {
        self.hash as u32
    }
}

impl<'a> From<&'a str> for Key<'a> {
    #[inline]
    fn from(text: &'a str) -> Self {
        Key::new(text)
    }
}

impl<'a> From<&'a String> for Key<'a> {
    #[inline]
    fn from(text: &'a String) -> Self {
        Key::new(text)
    }
}

/// Bytes of a record header: the id, then the key length, each a
/// little-endian `u32`.
const HEADER: usize = 8;

/// The home slot of `tag` in a table of `cap` (a power of two) slots: the
/// tag's low bits, the slot the span-table layout used too. FNV-1a's
/// final multiply moves a key's last byte only into bits 40–47 and
/// below, so a home taken from the top bits would crowd keys that differ
/// in their last byte onto neighbouring slots.
#[inline]
fn home(tag: u32, cap: usize) -> usize {
    tag as usize & (cap - 1)
}

/// A single-namespace interner: one arena of `[id][len][bytes]` records,
/// their offsets by id, and an open-addressing table of tagged record
/// offsets. Exactly one amortized byte-copy per distinct key.
#[derive(Clone, Debug, Default)]
pub struct ArenaInterner {
    /// Records back to back: `[id u32][len u32][key bytes]`.
    arena: Vec<u8>,
    /// `offsets[id]`: where `id`'s record starts in the arena.
    offsets: Vec<u32>,
    /// Open-addressing slots holding `(tag << 32) | (offset + 1)` (`0` =
    /// empty). Capacity is a power of two; resized at 3/4 load.
    table: Vec<u64>,
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
            offsets: Vec::with_capacity(keys),
            table: vec![0; cap],
        }
    }

    /// Number of distinct keys interned.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether no key has been interned yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Bytes held by the arena: every key's bytes plus its 8-byte record
    /// header (the dominant term of interner memory).
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
        let (_, bytes) = self.record(self.offsets[id as usize] as usize);
        // Records are only ever created from `&str` input, so the bytes
        // are valid UTF-8 by construction.
        std::str::from_utf8(bytes).expect("arena records are UTF-8 by construction")
    }

    /// The id and the key bytes of the record at `offset`.
    #[inline]
    fn record(&self, offset: usize) -> (u32, &[u8]) {
        let word = |at: usize| {
            u32::from_le_bytes(self.arena[at..at + 4].try_into().expect("four bytes"))
        };
        let (id, len) = (word(offset), word(offset + 4) as usize);
        let start = offset + HEADER;
        (id, &self.arena[start..start + len])
    }

    /// The id of `key`, or the empty slot where it belongs. The table must
    /// be non-empty.
    #[inline]
    fn probe(&self, key: Key<'_>) -> Result<u32, usize> {
        debug_assert_eq!(key.hash, key_hash(key.text.as_bytes()), "stale key hash");
        let tag = key.tag();
        let mask = self.table.len() - 1;
        let mut slot = home(tag, self.table.len());
        loop {
            let word = self.table[slot];
            if word == 0 {
                return Err(slot);
            }
            if (word >> 32) as u32 == tag {
                let (id, bytes) = self.record(word as u32 as usize - 1);
                if bytes == key.text.as_bytes() {
                    return Ok(id);
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Looks up an existing key without allocating.
    #[inline]
    pub fn find(&self, key: &str) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        self.probe(Key::new(key)).ok()
    }

    /// Interns `key`, returning its dense id (assigned in first-appearance
    /// order: the n-th distinct key gets id `n - 1`). A pre-hashed [`Key`]
    /// skips hashing; a `&str` is hashed here.
    ///
    /// # Panics
    ///
    /// Panics, leaving the interner unchanged, if the new record would
    /// take the arena past 4 GiB.
    pub fn intern<'k>(&mut self, key: impl Into<Key<'k>>) -> u32 {
        let key = key.into();
        if self.table.is_empty() {
            self.table = vec![0; 16];
        }
        let slot = match self.probe(key) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let (id, offset) = self.push_record(key.text);
        self.table[slot] = u64::from(key.tag()) << 32 | u64::from(offset + 1);
        if (self.offsets.len() + 1) * 4 > self.table.len() * 3 {
            self.grow_table();
        }
        id
    }

    /// Appends `key`'s record to the arena and its offset to `offsets`,
    /// returning `(id, offset)`. Caller owns table insertion.
    fn push_record(&mut self, key: &str) -> (u32, u32) {
        // Checked before anything is mutated: a refused key leaves the
        // interner as it was. Record ends within `u32::MAX` also keep
        // `offset + 1` from overflowing.
        assert!(
            self.arena.len() + HEADER + key.len() <= u32::MAX as usize,
            "interner arena exceeds 4 GiB"
        );
        let offset = self.arena.len() as u32;
        let id = self.offsets.len() as u32;
        self.arena.extend_from_slice(&id.to_le_bytes());
        self.arena.extend_from_slice(&(key.len() as u32).to_le_bytes());
        self.arena.extend_from_slice(key.as_bytes());
        self.offsets.push(offset);
        (id, offset)
    }

    /// Doubles the table, re-placing every word from its stored tag.
    fn grow_table(&mut self) {
        let cap = self.table.len() * 2;
        let mask = cap - 1;
        let mut table = vec![0u64; cap];
        for &word in self.table.iter().filter(|&&w| w != 0) {
            let mut slot = home((word >> 32) as u32, cap);
            while table[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            table[slot] = word;
        }
        self.table = table;
    }

    /// Iterates keys in id order (first-appearance order).
    pub fn keys(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.offsets.len() as u32).map(move |id| self.key(id))
    }
}

/// Two-namespace (user + merchant) arena interner: what
/// [`load_transactions`](crate::load_transactions) returns, and what the
/// service shares behind [`ConcurrentTransactionInterner`].
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
    pub fn user<'k>(&mut self, key: impl Into<Key<'k>>) -> UserId {
        UserId(self.users.intern(key))
    }

    /// Returns (possibly allocating) the dense id of a merchant key.
    #[inline]
    pub fn merchant<'k>(&mut self, key: impl Into<Key<'k>>) -> MerchantId {
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

    /// Total arena bytes (keys plus record headers) across both
    /// namespaces.
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
    pub fn user<'k>(&self, key: impl Into<Key<'k>>) -> UserId {
        self.lock().user(key)
    }

    /// Returns (possibly allocating) the dense id of a merchant key.
    pub fn merchant<'k>(&self, key: impl Into<Key<'k>>) -> MerchantId {
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
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    /// One generated key: empty, multibyte UTF-8, a prefix of one shared
    /// string (so keys overlap each other's bytes), one of four keys over
    /// 64 KiB, or a short ASCII key.
    fn generated_key((kind, n): (u8, u32)) -> String {
        match kind {
            0 => String::new(),
            1 => format!("{}{n}", "é漢🦀".repeat(n as usize % 5 + 1)),
            2 => "abcdefghijklmnopqrstuvwxyz0123456789"[..n as usize % 37].to_string(),
            3 => format!("L{}{}", n % 4, "x".repeat(70_000)),
            _ => format!("k{n}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Ids, `find` and `key` agree with a `HashMap` first-appearance
        /// oracle, whichever path (`&str` or pre-hashed [`Key`]) interned
        /// a key, across at least three table growths.
        #[test]
        fn interner_matches_a_first_appearance_oracle(
            draws in prop::collection::vec((0u8..8, 0u32..400), 300..800)
        ) {
            let keys: Vec<String> = draws.into_iter().map(generated_key).collect();
            let mut a = ArenaInterner::new();
            let mut oracle: HashMap<&str, u32> = HashMap::new();
            for (i, k) in keys.iter().enumerate() {
                let next = oracle.len() as u32;
                let expected = *oracle.entry(k.as_str()).or_insert(next);
                let id = if i % 2 == 0 { a.intern(k) } else { a.intern(Key::new(k)) };
                prop_assert_eq!(id, expected, "key #{}", i);
            }
            prop_assert_eq!(a.len(), oracle.len());
            prop_assert!(oracle.len() >= 96, "only {} distinct keys", oracle.len());
            // 16 slots at first; 96 keys force 16 → 32 → 64 → 128 at least.
            prop_assert!(a.table.len() >= 128, "table of {} slots", a.table.len());
            for (&k, &id) in &oracle {
                prop_assert_eq!(a.find(k), Some(id));
                prop_assert_eq!(a.key(id), k);
            }
            let mut by_id: Vec<(u32, &str)> = oracle.iter().map(|(&k, &id)| (id, k)).collect();
            by_id.sort_unstable();
            prop_assert!(a.keys().eq(by_id.into_iter().map(|(_, k)| k)));
            prop_assert_eq!(a.find("absent"), None);
            prop_assert_eq!(a.find("abcdefghijklmnopqrstuvwxyz0123456789!"), None);
        }
    }

    #[test]
    fn keys_with_equal_tags_intern_apart() {
        // FNV-1a is fixed, so the first colliding pair is too; the
        // birthday bound finds one within a few hundred thousand keys.
        let mut seen: HashMap<u32, String> = HashMap::new();
        let (first, second) = (0u32..)
            .map(|i| format!("k{i}"))
            .find_map(|k| seen.insert(Key::new(&k).tag(), k.clone()).map(|earlier| (earlier, k)))
            .expect("a 32-bit tag collision");
        assert_ne!(first, second);
        assert_eq!(Key::new(&first).tag(), Key::new(&second).tag());

        let mut a = ArenaInterner::new();
        assert_eq!(a.intern(&first), 0);
        assert_eq!(a.intern(&second), 1);
        assert_eq!(a.intern(&first), 0);
        assert_eq!(a.find(&first), Some(0));
        assert_eq!(a.find(&second), Some(1));
        assert_eq!(a.key(1), second);
    }

    #[test]
    fn intern_and_the_pre_hashed_path_assign_identical_ids() {
        let keys: Vec<String> = (0..3000).map(|i| format!("u{}", i * 7 % 1009)).collect();
        let mut plain = ArenaTransactionInterner::new();
        let mut hashed = ArenaTransactionInterner::new();
        for k in &keys {
            assert_eq!(plain.user(k.as_str()), hashed.user(Key::new(k)));
            assert_eq!(plain.merchant(k), hashed.merchant(Key::new(k)));
        }
        assert_eq!(plain.num_users(), 1009);
        assert_eq!(plain.arena_bytes(), hashed.arena_bytes());
        assert!(plain.users().keys().eq(hashed.users().keys()));
    }

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
