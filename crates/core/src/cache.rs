//! Stamped-LRU bounded maps — the one cache type of this crate. The join
//! graph's histogram and partial-sum caches and the MCMC engine's per-walk
//! pair-selection handles are [`StampedLru`]s (single owner); the join
//! graph's selection, projection/price and evaluation-memo caches are
//! [`ShardedLru`]s (shared by every search, chain and request on the graph).
//! Every read bumps a monotone use-stamp, inserts trim the map back to its
//! cap by evicting the smallest stamp first, and a miss simply means the
//! caller recomputes. Stamps are unique, so eviction order is deterministic
//! for a deterministic access sequence.
//!
//! Shard locks are **poison-tolerant**. Every cached value is a pure,
//! recomputable function of its key, and update closures only fill in
//! lazily computed fields, so a panic while a shard lock was held (e.g.
//! inside a [`ShardedLru::update_or_insert`] closure) leaves every entry a
//! valid cache state. The next caller takes the lock over instead of
//! panicking for the rest of the graph's life.

use dance_relation::hash::stable_hash64;
use dance_relation::FxHashMap;
use std::borrow::Borrow;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A capacity-bounded map with monotone use-stamps and evict-least-stamped
/// overflow. A cap of 0 disables the cache (every insert is immediately
/// evicted, every get misses).
#[derive(Debug)]
pub(crate) struct StampedLru<K, V> {
    map: FxHashMap<K, (V, u64)>,
    clock: u64,
    cap: usize,
}

impl<K: Eq + Hash + Clone, V> StampedLru<K, V> {
    pub fn new(cap: usize) -> StampedLru<K, V> {
        StampedLru {
            map: FxHashMap::default(),
            clock: 0,
            cap,
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Look up `k`, bumping its use-stamp on a hit.
    pub fn get<Q>(&mut self, k: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(k).map(|e| {
            e.1 = clock;
            &e.0
        })
    }

    /// Mutable lookup (also bumps the stamp) — for entries whose fields fill
    /// in lazily.
    pub fn get_mut<Q>(&mut self, k: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(k).map(|e| {
            e.1 = clock;
            &mut e.0
        })
    }

    /// Insert (replacing any previous value), then trim back to the cap by
    /// evicting least-recently-stamped entries. The caps here are small
    /// enough that the linear min-stamp scan is noise next to what a single
    /// cache miss costs to recompute.
    pub fn insert(&mut self, k: K, v: V) {
        self.clock += 1;
        self.map.insert(k, (v, self.clock));
        while self.map.len() > self.cap {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
                .expect("non-empty map over cap");
            self.map.remove(&oldest);
        }
    }

    /// Non-stamping read: look up `k` without bumping its use-stamp. For
    /// shared read-only passes (e.g. a parallel fold over `&self`) where a
    /// stamp bump would need `&mut self` — the entry's LRU age is left to the
    /// deterministic sequential accesses around the pass.
    pub fn peek<Q>(&self, k: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.get(k).map(|e| &e.0)
    }

    /// Remove `k`'s entry, returning its value.
    pub fn remove<Q>(&mut self, k: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.remove(k).map(|e| e.0)
    }

    /// Keep only the entries whose key satisfies `f` (staleness eviction —
    /// e.g. dropping everything that references a refreshed sample).
    pub fn retain(&mut self, mut f: impl FnMut(&K) -> bool) {
        self.map.retain(|k, _| f(k));
    }

    /// Remove and return every entry whose key satisfies `f`, ordered by
    /// use-stamp ascending (oldest first). Delta maintenance drains the
    /// entries touching a patched instance with this, patches them, and
    /// re-`insert`s them under their new generation key — the ascending
    /// order preserves their relative LRU age across the round trip.
    pub fn take_matching(&mut self, mut f: impl FnMut(&K) -> bool) -> Vec<(K, V)> {
        let mut keys: Vec<(u64, K)> = self
            .map
            .iter()
            .filter(|(k, _)| f(k))
            .map(|(k, (_, stamp))| (*stamp, k.clone()))
            .collect();
        keys.sort_unstable_by_key(|e| e.0);
        keys.into_iter()
            .map(|(_, k)| {
                let (v, _) = self.map.remove(&k).expect("key was just enumerated");
                (k, v)
            })
            .collect()
    }
}

/// Maximum shard count of a [`ShardedLru`]; small caps use fewer shards so
/// the per-shard caps still sum exactly to the configured total.
pub(crate) const MAX_CACHE_SHARDS: usize = 16;

/// Seed for the shard-selection hash (any fixed value works; shard placement
/// never affects results, only which lock a key contends on).
const SHARD_HASH_SEED: u64 = 0x5AD5_ED1A_0C0F_FEE5;

/// A concurrent stamped-LRU: [`MAX_CACHE_SHARDS`]-way sharded over
/// [`StampedLru`]s, one mutex per shard, shard chosen by key hash. Concurrent
/// readers (e.g. parallel MCMC chains) only contend when their keys collide
/// on a shard, instead of serializing on one big lock.
///
/// Semantics per shard are exactly [`StampedLru`]'s: reads bump a monotone
/// use-stamp, inserts evict the least-stamped entry past the shard cap. The
/// per-shard caps split the configured total **exactly** (remainder to the
/// first shards), so the total entry count can never exceed the configured
/// cap — the same invariant callers relied on with the unsharded cache. A
/// total cap of 0 disables the cache. Under concurrency, which entries
/// survive eviction depends on access interleaving — safe for these caches
/// because a hit and a recomputed miss produce identical bits.
#[derive(Debug)]
pub(crate) struct ShardedLru<K, V> {
    shards: Box<[Mutex<StampedLru<K, V>>]>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Clone> ShardedLru<K, V> {
    /// A cache holding at most `cap` entries in total, spread over
    /// `min(MAX_CACHE_SHARDS, cap).max(1)` shards.
    pub fn new(cap: usize) -> ShardedLru<K, V> {
        let n = cap.clamp(1, MAX_CACHE_SHARDS);
        let base = cap / n;
        let rem = cap % n;
        let shards = (0..n)
            .map(|s| Mutex::new(StampedLru::new(base + usize::from(s < rem))))
            .collect();
        ShardedLru {
            shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The locked shard responsible for `k`. `Borrow` guarantees a borrowed
    /// key hashes like its owned form, so lookups land on the insert's shard.
    fn shard_for<Q>(&self, k: &Q) -> MutexGuard<'_, StampedLru<K, V>>
    where
        Q: Hash + ?Sized,
    {
        let h = stable_hash64(SHARD_HASH_SEED, k) as usize;
        lock(&self.shards[h % self.shards.len()])
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// The configured total entry bound (the per-shard caps sum to exactly
    /// the `cap` the cache was constructed with).
    pub fn cap(&self) -> usize {
        self.shards.iter().map(|s| lock(s).cap()).sum()
    }

    /// Lifetime totals of `(hits, misses)` observed by [`Self::get`]
    /// (relaxed counters — observability only, never consistency).
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Clone-out lookup, bumping the entry's use-stamp on a hit. Values are
    /// cheap handles (`Arc`s, small structs), so cloning out of the shard
    /// lock keeps the critical section to a hash probe.
    pub fn get<Q>(&self, k: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let v = self.shard_for(k).get(k).cloned();
        match v {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        v
    }

    /// Insert (replacing any previous value), evicting the shard's
    /// least-recently-stamped entries past its cap.
    pub fn insert(&self, k: K, v: V) {
        self.shard_for(&k).insert(k, v);
    }

    /// Update `k`'s entry in place under the shard lock if present (bumping
    /// its stamp), else insert `make()` — the read-modify-write entries with
    /// lazily-filled fields need, without a racing get/insert window growing
    /// the shard past its cap.
    pub fn update_or_insert(&self, k: K, update: impl FnOnce(&mut V), make: impl FnOnce() -> V) {
        let mut shard = self.shard_for(&k);
        match shard.get_mut(&k) {
            Some(v) => update(v),
            None => shard.insert(k, make()),
        }
    }

    /// Keep only the entries whose key satisfies `f`, in every shard.
    pub fn retain(&self, f: impl Fn(&K) -> bool) {
        for shard in &self.shards {
            lock(shard).retain(|k| f(k));
        }
    }

    /// Remove and return every entry whose key satisfies `f`: per shard
    /// oldest-first, shards concatenated in index order. Delta maintenance
    /// re-keys the drained entries, which generally re-hashes them onto
    /// different shards — relative LRU age is preserved within each shard's
    /// contribution, which is all per-shard eviction can observe anyway.
    pub fn take_matching(&self, f: impl Fn(&K) -> bool) -> Vec<(K, V)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(lock(shard).take_matching(|k| f(k)));
        }
        out
    }
}

/// Take a shard lock, recovering it if an earlier holder panicked (see the
/// module docs: every entry is recomputable, so a poisoned shard is still a
/// valid cache).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_holds_and_lru_evicts_least_recent() {
        let mut c: StampedLru<u32, u32> = StampedLru::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(&10)); // 1 is now fresher than 2
        c.insert(3, 30);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&2), None, "least-recently-used entry evicted");
        assert_eq!(c.get(&1), Some(&10));
        assert_eq!(c.get(&3), Some(&30));
    }

    #[test]
    fn zero_cap_disables_the_cache() {
        let mut c: StampedLru<u32, u32> = StampedLru::new(0);
        c.insert(1, 10);
        assert_eq!(c.len(), 0);
        assert_eq!(c.get(&1), None);
    }

    #[test]
    fn retain_drops_stale_keys() {
        let mut c: StampedLru<(u32, u32), u32> = StampedLru::new(8);
        c.insert((0, 1), 1);
        c.insert((1, 2), 2);
        c.insert((2, 0), 3);
        c.retain(|&(a, b)| a != 0 && b != 0);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&(1, 2)), Some(&2));
    }

    #[test]
    fn replacing_insert_does_not_grow() {
        let mut c: StampedLru<u32, u32> = StampedLru::new(2);
        c.insert(1, 10);
        c.insert(1, 11);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&1), Some(&11));
    }

    #[test]
    fn take_matching_drains_oldest_first() {
        let mut c: StampedLru<(u32, u32), u32> = StampedLru::new(8);
        c.insert((0, 1), 1);
        c.insert((1, 2), 2);
        c.insert((0, 3), 3);
        c.get(&(0, 1)); // (0, 1) is now the freshest 0-entry
        let taken = c.take_matching(|&(a, _)| a == 0);
        assert_eq!(taken, vec![((0, 3), 3), ((0, 1), 1)]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&(1, 2)), Some(&2));
        assert!(c.take_matching(|_| false).is_empty());
    }

    #[test]
    fn borrowed_key_lookup_works() {
        let mut c: StampedLru<Box<[u32]>, u32> = StampedLru::new(4);
        c.insert(Box::from([1u32, 2, 3].as_slice()), 7);
        let probe: &[u32] = &[1, 2, 3];
        assert_eq!(c.get(probe), Some(&7));
    }

    #[test]
    fn peek_does_not_bump_stamps() {
        let mut c: StampedLru<u32, u32> = StampedLru::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.peek(&1), Some(&10)); // read without refreshing 1
        c.insert(3, 30);
        assert_eq!(c.get(&1), None, "peek left 1 the least-recently-stamped");
        assert_eq!(c.peek(&9), None);
        assert_eq!(c.remove(&2), Some(20));
        assert_eq!(c.remove(&2), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn sharded_cap_sums_exactly_to_total() {
        for cap in [0usize, 1, 2, 7, 8, 16, 17, 256] {
            let c: ShardedLru<u64, u64> = ShardedLru::new(cap);
            assert_eq!(c.cap(), cap);
            let shard_sum: usize = c.shards.iter().map(|s| s.lock().unwrap().cap()).sum();
            assert_eq!(shard_sum, cap, "shard caps must sum to the total");
            for k in 0..200u64 {
                c.insert(k, k * 3);
            }
            assert!(c.len() <= cap, "cap {cap} violated: len {}", c.len());
        }
    }

    #[test]
    fn sharded_get_insert_round_trip_and_stats() {
        let c: ShardedLru<u64, u64> = ShardedLru::new(256);
        for k in 0..40u64 {
            c.insert(k, k + 100);
        }
        for k in 0..40u64 {
            assert_eq!(c.get(&k), Some(k + 100));
        }
        assert_eq!(c.get(&999), None);
        let (hits, misses) = c.stats();
        assert_eq!((hits, misses), (40, 1));
    }

    #[test]
    fn sharded_borrowed_key_hits_the_insert_shard() {
        let c: ShardedLru<Box<[u32]>, u32> = ShardedLru::new(256);
        for k in 0..32u32 {
            c.insert(Box::from([k, k + 1].as_slice()), k);
        }
        for k in 0..32u32 {
            let probe: &[u32] = &[k, k + 1];
            assert_eq!(c.get(probe), Some(k));
        }
    }

    #[test]
    fn sharded_retain_and_take_matching_cover_all_shards() {
        let c: ShardedLru<(u32, u32), u32> = ShardedLru::new(256);
        for k in 0..32u32 {
            c.insert((k % 2, k), k);
        }
        let taken = c.take_matching(|&(p, _)| p == 0);
        assert_eq!(taken.len(), 16);
        assert!(taken.iter().all(|&((p, _), _)| p == 0));
        assert_eq!(c.len(), 16);
        c.retain(|&(p, _)| p != 1);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn sharded_update_or_insert_fills_lazily() {
        let c: ShardedLru<u32, (Option<u32>, Option<u32>)> = ShardedLru::new(8);
        c.update_or_insert(1, |_| unreachable!(), || (Some(10), None));
        c.update_or_insert(1, |e| e.1 = Some(20), || unreachable!());
        assert_eq!(c.get(&1), Some((Some(10), Some(20))));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn panicking_closure_leaves_the_cache_usable() {
        let c: ShardedLru<u32, u32> = ShardedLru::new(8);
        c.insert(1, 10);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.update_or_insert(1, |_| panic!("update closure panics"), || 0);
        }));
        assert!(panicked.is_err());
        assert!(
            c.shards.iter().any(|s| s.is_poisoned()),
            "a shard was poisoned"
        );
        // Every entry point still works on the poisoned shard.
        assert_eq!(c.get(&1), Some(10));
        c.update_or_insert(1, |v| *v = 11, || unreachable!());
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(11));
        assert_eq!((c.len(), c.cap()), (2, 8));
        assert_eq!(c.take_matching(|&k| k == 2), vec![(2, 20)]);
        c.retain(|_| false);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn sharded_concurrent_hammer_holds_caps() {
        let c: ShardedLru<u64, u64> = ShardedLru::new(32);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..500u64 {
                        let k = (t * 131 + i) % 64;
                        c.insert(k, k);
                        if let Some(v) = c.get(&k) {
                            assert_eq!(v, k);
                        }
                    }
                });
            }
        });
        assert!(c.len() <= 32);
    }
}
