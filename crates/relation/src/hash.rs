//! In-house FxHash-style hashing: one seeded stream, two finalizers.
//!
//! The standard library's SipHash is robust against HashDoS but measurably slow
//! for the short integer/byte keys that dominate this workspace (attribute ids,
//! dictionary codes, canonical float bits, packed `(id, code)` pairs). This
//! module implements the FxHash multiply–xor scheme (the hasher used inside
//! rustc) in a few dozen lines rather than pulling an external crate, and
//! finishes it two ways, each with its own contract:
//!
//! * **The stable hash** — [`FxHasher`] started from a caller's seed
//!   ([`FxHasher::with_seed`]) and finalized by [`splitmix64`], exposed as
//!   [`stable_hash64`] / [`unit_interval`]. It backs the paper's *correlated
//!   sampling* (§3): a tuple is kept iff the hash of its join key, mapped
//!   uniformly into `[0, 1)`, is below the sampling rate. Datagen and memo
//!   fingerprints use it too. It must be identical across tables and process
//!   runs and well mixed, so it is **bit-exact**: any change to [`FxHasher`]'s
//!   stream or to [`splitmix64`] moves samples, plans and prices. The golden
//!   tests below pin it.
//! * **The map hasher** — [`FxMapHasher`], behind [`FxBuildHasher`] and so
//!   behind every [`FxHashMap`] / [`FxHashSet`]. It feeds the same stream but
//!   finishes by rotating the well-mixed high bits down: hashbrown picks the
//!   bucket from a hash's *low* bits, and a multiply fills those only from the
//!   key's low bits, so the raw state sent every packed `id << 32 | code` pair
//!   with equal `code` to one bucket, and cent-rounded float bits to a few
//!   dozen. Nothing persists or compares map hashes, so this finalizer is
//!   **free to change** for speed.
//!
//! Neither hasher resists HashDoS. Seller listing values are hashed here, and
//! a wire server accepts client input; a party who chose keys to collide could
//! slow the maps down. The server's client-keyed maps (tokens, sessions, rate
//! buckets) therefore stay on std's SipHash.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash: fast, non-cryptographic 64-bit hasher. Its `finish` is the raw
/// multiply–xor state — the seeded stream [`stable_hash64`] finalizes, kept
/// bit-for-bit. Hash maps use [`FxMapHasher`] instead.
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    /// Hasher starting from an explicit seed state — the streaming form of
    /// [`stable_hash64`]. Feeding this hasher the exact write sequence a
    /// `Hash` impl would produce, then finalizing with [`splitmix64`], yields
    /// bit-identical output to `stable_hash64(seed, value)`; the correlated
    /// sampler uses this to score dictionary-encoded rows without
    /// materializing `Value`s.
    #[inline]
    pub fn with_seed(seed: u64) -> FxHasher {
        FxHasher { state: seed }
    }

    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut last = [0u8; 8];
            last[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(last));
        }
        self.add_to_hash(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// The hash-map hasher: [`FxHasher`]'s stream with a finalizer that rotates
/// the high product bits into the low bits hashbrown indexes buckets by.
#[derive(Default, Clone)]
pub struct FxMapHasher(FxHasher);

impl Hasher for FxMapHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.state.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.0.write_u8(i);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.0.write_u32(i);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0.write_u64(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.0.write_usize(i);
    }
}

/// `BuildHasher` for [`FxMapHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxMapHasher>;
/// `HashMap` keyed with [`FxMapHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// `HashSet` keyed with [`FxMapHasher`].
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

/// Hash `value` with [`FxHasher`] under a caller-supplied seed and finalize with
/// a SplitMix64 avalanche so every output bit depends on every input bit.
///
/// This is the stable hash used by correlated sampling: the same (seed, value)
/// pair always produces the same output, across tables and across runs.
pub fn stable_hash64<T: Hash + ?Sized>(seed: u64, value: &T) -> u64 {
    let mut h = FxHasher { state: seed };
    value.hash(&mut h);
    splitmix64(h.finish())
}

/// SplitMix64 finalizer; full-avalanche bijection on `u64`.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map a 64-bit hash uniformly onto `[0, 1)` (53 mantissa bits are used).
#[inline]
pub fn unit_interval(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_across_calls() {
        assert_eq!(stable_hash64(7, "abc"), stable_hash64(7, "abc"));
        assert_ne!(stable_hash64(7, "abc"), stable_hash64(8, "abc"));
        assert_ne!(stable_hash64(7, "abc"), stable_hash64(7, "abd"));
    }

    #[test]
    fn unit_interval_in_range_and_spread() {
        let mut lo = f64::MAX;
        let mut hi = f64::MIN;
        let mut sum = 0.0;
        let n = 10_000;
        for i in 0..n {
            let u = unit_interval(stable_hash64(42, &i));
            assert!((0.0..1.0).contains(&u));
            lo = lo.min(u);
            hi = hi.max(u);
            sum += u;
        }
        // Uniformity sanity: mean near 0.5, extremes near the ends.
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
        assert!(lo < 0.01 && hi > 0.99);
    }

    #[test]
    fn splitmix_is_bijective_on_sample() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(splitmix64(i)));
        }
    }

    /// Golden outputs of the seeded stream: correlated samples, datagen and
    /// memo fingerprints all derive from it, so these words must never move.
    #[test]
    fn stable_hash64_is_pinned() {
        use crate::Value;
        assert_eq!(stable_hash64(7, &42u64), 0x0171_8774_ab41_06f7);
        assert_eq!(stable_hash64(7, "dance"), 0xe7fb_c32f_d8a9_c164);
        assert_eq!(
            stable_hash64(7, &(3u32, "custkey", -5i64)),
            0x7c92_04b9_0503_4a8c
        );
        let key = [
            Value::Int(5),
            Value::str("BUILDING"),
            Value::Float(1234.56),
            Value::Null,
        ];
        assert_eq!(stable_hash64(7, &key[..]), 0xc990_8eea_cec5_3233);
    }

    /// Map hashes must spread keys that differ only in high bits over the
    /// low bits buckets are picked by: packed `(id, code)` pairs with one
    /// `code`, and cent-rounded float bits. The raw FxHash state gives 1 and
    /// 25 distinct low-12-bit values here.
    #[test]
    fn map_hashes_spread_over_low_bits() {
        fn low12(keys: impl Iterator<Item = u64>) -> usize {
            use std::hash::BuildHasher;
            let b = FxBuildHasher::default();
            keys.map(|k| b.hash_one(k) & 0xfff)
                .collect::<HashSet<_>>()
                .len()
        }
        let pairs = low12((0..4096u64).map(|i| i << 32 | 7));
        let cents = low12(
            (0..4096u64).map(|i| crate::Value::canonical_bits((100_000 + 7 * i) as f64 / 100.0)),
        );
        assert!(pairs >= 1024, "packed pairs hit {pairs} low-12-bit values");
        assert!(cents >= 1024, "float bits hit {cents} low-12-bit values");
    }

    #[test]
    fn fxhasher_handles_unaligned_tails() {
        // 1..=16 byte strings exercise the chunked + remainder paths.
        let mut outputs = std::collections::HashSet::new();
        for len in 1..=16 {
            let s: String = "x".repeat(len);
            outputs.insert(stable_hash64(0, s.as_str()));
        }
        assert_eq!(outputs.len(), 16);
    }
}
