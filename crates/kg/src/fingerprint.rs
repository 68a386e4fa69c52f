//! Stable content fingerprints of a [`KnowledgeGraph`].
//!
//! The fingerprint is the FNV-1a 64-bit hash of the graph's canonical
//! snapshot byte stream (see [`crate::snapshot`]): dictionaries in id
//! order plus the ascending triples. Because the snapshot layout is
//! deterministic, two graphs with the same dictionaries and triple set
//! always hash equal — regardless of the order triples were inserted in —
//! and the hash can be folded incrementally while a snapshot
//! is being written, or taken over a validated snapshot's bytes
//! ([`crate::snapshot::SnapshotView::fingerprint`]), so obtaining it
//! alongside normal snapshot I/O costs nothing beyond the hash arithmetic
//! itself.
//!
//! The extraction cache (`kgtosa-cache`) keys artifacts on this value.

use std::io::{self, Write};

use crate::triples::KnowledgeGraph;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher over a byte stream.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot FNV-1a of a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// Folds every byte written through it into an [`Fnv64`] before
/// forwarding to the inner writer.
pub struct HashingWriter<W> {
    inner: W,
    hash: Fnv64,
}

impl<W: Write> HashingWriter<W> {
    pub fn new(inner: W) -> Self {
        HashingWriter { inner, hash: Fnv64::new() }
    }

    pub fn finish(&self) -> u64 {
        self.hash.finish()
    }

    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for HashingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hash.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// The content fingerprint of `kg`: FNV-1a over its canonical snapshot
/// bytes, produced by streaming the snapshot into a hash-only sink (no
/// buffer is materialized).
pub fn fingerprint(kg: &KnowledgeGraph) -> u64 {
    // write_snapshot only fails on I/O errors; io::sink() has none.
    crate::snapshot::write_snapshot_fingerprinted(kg, io::sink())
        .expect("hashing into a sink cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insertion_order_does_not_matter() {
        let mut a = KnowledgeGraph::new();
        a.add_triple_terms("x", "T", "r", "y", "T");
        a.add_triple_terms("x", "T", "r", "z", "T");
        let mut b = KnowledgeGraph::new();
        // Same dictionaries and triple multiset, triples added reversed.
        b.add_node("x", "T");
        b.add_node("y", "T");
        b.add_node("z", "T");
        b.add_triple_terms("x", "T", "r", "z", "T");
        b.add_triple_terms("x", "T", "r", "y", "T");
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn content_changes_change_fingerprint() {
        let mut a = KnowledgeGraph::new();
        a.add_triple_terms("x", "T", "r", "y", "T");
        let base = fingerprint(&a);
        let mut b = KnowledgeGraph::new();
        b.add_triple_terms("x", "T", "r", "y", "U");
        assert_ne!(base, fingerprint(&b), "object class should matter");
        let mut c = KnowledgeGraph::new();
        c.add_triple_terms("x", "T", "r2", "y", "T");
        assert_ne!(base, fingerprint(&c), "relation term should matter");
    }

    #[test]
    fn write_and_read_agree_with_direct_fingerprint() {
        let mut kg = KnowledgeGraph::new();
        for i in 0..40 {
            kg.add_triple_terms(
                &format!("n{i}"),
                "Paper",
                "cites",
                &format!("n{}", i / 3),
                "Paper",
            );
        }
        let direct = fingerprint(&kg);
        let mut buf = Vec::new();
        let written = crate::snapshot::write_snapshot_fingerprinted(&kg, &mut buf).unwrap();
        let view = crate::snapshot::SnapshotView::parse(&buf).unwrap();
        assert_eq!(direct, written);
        assert_eq!(direct, view.fingerprint());
        assert_eq!(direct, fingerprint(&view.to_graph()));
        assert_eq!(fnv64(&buf), direct);
    }
}
