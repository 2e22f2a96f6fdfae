//! Stamped-LRU bounded maps — the one cache type of this crate. The join
//! graph's histogram and partial-sum caches (mutated only under
//! `&mut JoinGraph`) and the MCMC engine's per-walk pair-selection handles
//! are bare [`StampedLru`]s; the selection, projection/price, evaluation-memo
//! and full-tier caches, filled through `&JoinGraph` by every search and
//! request on the graph, are each one `Mutex<StampedLru>`, taken with
//! [`lock`]. Every read bumps a monotone use-stamp, inserts trim the map
//! back to its cap by evicting the smallest stamp first, and a miss simply
//! means the caller recomputes. Stamps are unique, so eviction order is
//! deterministic for a deterministic access sequence.
//!
//! Cache locks are **poison-tolerant**. Every cached value is a pure,
//! recomputable function of its key, and update closures only fill in
//! lazily computed fields, so a panic while a cache lock was held (e.g.
//! inside a [`StampedLru::update_or_insert`] closure) leaves every entry a
//! valid cache state. The next caller takes the lock over instead of
//! panicking for the rest of the graph's life.

use dance_relation::FxHashMap;
use std::borrow::Borrow;
use std::hash::Hash;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A capacity-bounded map with monotone use-stamps and evict-least-stamped
/// overflow. A cap of 0 disables the cache (every insert is immediately
/// evicted, every get misses).
#[derive(Debug)]
pub(crate) struct StampedLru<K, V> {
    map: FxHashMap<K, (V, u64)>,
    clock: u64,
    cap: usize,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash + Clone, V> StampedLru<K, V> {
    pub fn new(cap: usize) -> StampedLru<K, V> {
        StampedLru {
            map: FxHashMap::default(),
            clock: 0,
            cap,
            hits: 0,
            misses: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Lifetime totals of `(hits, misses)` observed by [`Self::get`] — the
    /// only counting lookup; [`Self::get_mut`], [`Self::update_or_insert`]
    /// and [`Self::peek`] fill or inspect entries without counting.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Look up `k`, bumping its use-stamp on a hit.
    pub fn get<Q>(&mut self, k: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.clock += 1;
        let clock = self.clock;
        match self.map.get_mut(k) {
            Some(e) => {
                self.hits += 1;
                e.1 = clock;
                Some(&e.0)
            }
            None => {
                self.misses += 1;
                None
            }
        }
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

    /// Update `k`'s entry in place if present (bumping its stamp), else
    /// insert `make()` — the read-modify-write entries with lazily filled
    /// fields need, in one critical section when the map sits behind a lock.
    pub fn update_or_insert(
        &mut self,
        k: K,
        update: impl FnOnce(&mut V),
        make: impl FnOnce() -> V,
    ) {
        match self.get_mut(&k) {
            Some(v) => update(v),
            None => self.insert(k, make()),
        }
    }

    /// Non-stamping read: look up `k` without bumping its use-stamp. For
    /// read-only passes over `&self` (e.g. the re-weigh round's JI fold)
    /// where a stamp bump would need `&mut self` — the entry's LRU age is
    /// left to the deterministic sequential accesses around the pass.
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

/// Take a cache lock, recovering it if an earlier holder panicked (see the
/// module docs: every entry is recomputable, so a poisoned cache is still
/// valid).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock`] for an owner holding `&mut`: no locking, same poison tolerance.
pub(crate) fn lock_mut<T>(m: &mut Mutex<T>) -> &mut T {
    m.get_mut().unwrap_or_else(PoisonError::into_inner)
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
    fn stats_count_get_only() {
        let mut c: StampedLru<u64, u64> = StampedLru::new(256);
        for k in 0..40u64 {
            c.insert(k, k + 100);
        }
        for k in 0..40u64 {
            assert_eq!(c.get(&k), Some(&(k + 100)));
        }
        assert_eq!(c.get(&999), None);
        // Filling and inspecting entries does not count.
        c.update_or_insert(0, |v| *v += 1, || unreachable!());
        c.update_or_insert(500, |_| unreachable!(), || 5);
        *c.get_mut(&1).unwrap() += 1;
        assert!(c.get_mut(&998).is_none());
        assert_eq!(c.peek(&2), Some(&102));
        assert_eq!(c.stats(), (40, 1));
    }

    #[test]
    fn update_or_insert_fills_lazily() {
        let mut c: StampedLru<u32, (Option<u32>, Option<u32>)> = StampedLru::new(8);
        c.update_or_insert(1, |_| unreachable!(), || (Some(10), None));
        c.update_or_insert(1, |e| e.1 = Some(20), || unreachable!());
        assert_eq!(c.get(&1), Some(&(Some(10), Some(20))));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn panicking_closure_leaves_the_cache_usable() {
        let c: Mutex<StampedLru<u32, u32>> = Mutex::new(StampedLru::new(8));
        lock(&c).insert(1, 10);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lock(&c).update_or_insert(1, |_| panic!("update closure panics"), || 0);
        }));
        assert!(panicked.is_err());
        assert!(c.is_poisoned(), "the lock was poisoned");
        // Every entry point still works through the poisoned lock.
        assert_eq!(lock(&c).get(&1), Some(&10));
        lock(&c).update_or_insert(1, |v| *v = 11, || unreachable!());
        lock(&c).insert(2, 20);
        let mut c = lock(&c);
        assert_eq!(c.get(&1), Some(&11));
        assert_eq!((c.len(), c.cap()), (2, 8));
        assert_eq!(c.take_matching(|&k| k == 2), vec![(2, 20)]);
        c.retain(|_| false);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn concurrent_hammer_holds_cap() {
        let c: Mutex<StampedLru<u64, u64>> = Mutex::new(StampedLru::new(32));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..500u64 {
                        let k = (t * 131 + i) % 64;
                        lock(c).insert(k, k);
                        if let Some(&v) = lock(c).get(&k) {
                            assert_eq!(v, k);
                        }
                    }
                });
            }
        });
        let c = lock(&c);
        assert!(c.len() <= 32);
        assert_eq!(c.stats().0 + c.stats().1, 4 * 500);
    }
}
