//! A fast, non-cryptographic hasher for integer-keyed and short-string maps.
//!
//! This is the well-known "Fx" multiply-rotate hash used by rustc. The
//! standard library's SipHash is HashDoS-resistant but slow for the hot
//! interning and adjacency maps in this workspace, so they use Fx.
//!
//! Fx is not collision-resistant, and not every key it hashes is the
//! program's own. The term dictionary ([`crate::Dictionary`]) interns
//! terms from outside: N-Triples input, `POST /admin/update` deltas
//! (`apply_delta`), and the terms that `read_snapshot` and
//! `SnapshotView::to_graph` decode from a file. A crafted set of colliding
//! terms makes interning them quadratic. The snapshot walker's own
//! uniqueness check uses SipHash, but that guards only the check, not the
//! dictionary the terms go into next (ROADMAP item 15).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Firefox/rustc Fx hash (64-bit).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hasher state.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_basic_operations() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.get(&1), Some(&"a"));
        assert_eq!(m.len(), 2);
        m.remove(&1);
        assert!(!m.contains_key(&1));
    }

    #[test]
    fn string_keys_hash_consistently() {
        let mut s: FxHashSet<String> = FxHashSet::default();
        s.insert("hello".to_string());
        assert!(s.contains("hello"));
        assert!(!s.contains("world"));
    }

    #[test]
    fn distinct_inputs_rarely_collide() {
        // Sanity: hashing 10k sequential ints produces 10k distinct hashes.
        let mut seen = HashSet::new();
        for i in 0u64..10_000 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn unaligned_tail_bytes_are_hashed() {
        let mut a = FxHasher::default();
        a.write(b"abcdefgh_tail");
        let mut b = FxHasher::default();
        b.write(b"abcdefgh_tail2");
        assert_ne!(a.finish(), b.finish());
    }
}
