//! Compact binary snapshots of a [`KnowledgeGraph`].
//!
//! N-Triples (in `kgtosa-rdf`) is the interchange format; this is the fast
//! path — the equivalent of an RDF engine's bulk-load image. Layout:
//!
//! ```text
//! magic "KGTOSA1\n"
//! u32 num_classes    then length-prefixed class terms
//! u32 num_relations  then length-prefixed relation terms
//! u32 num_nodes      then (u32 class_id, length-prefixed term) per node
//! u64 num_triples    then (varint s, varint p, varint o) per triple,
//!                    with subjects delta-encoded over the ascending list
//! ```
//!
//! Varint + delta encoding makes triples ~3–5 bytes each instead of 12.
//!
//! ## Canonical form
//!
//! [`write_snapshot`] emits exactly one byte stream per graph content, and
//! [`SnapshotView::parse`] accepts nothing else:
//!
//! - every varint (term lengths, deltas, ids) is minimal LEB128 — no
//!   trailing `0x00` continuation group, nothing beyond 64 bits;
//! - class terms, relation terms and node terms are each unique;
//! - every node's class id and every triple id is in range;
//! - triples are strictly ascending by `(s, p, o)`: sorted, and no triple
//!   twice, because the triple list is a set.
//!
//! That is the order [`KnowledgeGraph::triples`] always has, so the writer
//! emits the vector as it is, with no sort. For every snapshot the view
//! accepts, re-writing the decoded graph reproduces the accepted bytes, and
//! [`SnapshotView::fingerprint`] — FNV-1a over those bytes, folded in by
//! the validating walk as it consumes each byte — equals
//! [`crate::fingerprint::fingerprint`] of the graph without building it or
//! reading the bytes a second time. One private walker is the only code
//! that reads the layout: the view, [`read_snapshot`] and every consumer
//! of a view's contents go through it.

use std::collections::HashSet;
use std::io::{self, Read, Write};

use crate::fingerprint::{Fnv64, HashingWriter};
use crate::ids::{Cid, Rid, Vid};
use crate::triples::{KnowledgeGraph, Triple};

const MAGIC: &[u8; 8] = b"KGTOSA1\n";

/// Cap on preallocation driven by header counts: a hostile header must
/// not be able to force a multi-gigabyte allocation before any payload
/// byte has been validated. Real data beyond the cap still loads — the
/// collections just grow normally.
const MAX_PREALLOC: usize = 1 << 16;

/// Writes a snapshot of `kg`.
pub fn write_snapshot(kg: &KnowledgeGraph, mut w: impl Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    // Class dictionary.
    write_u32(&mut w, kg.num_classes() as u32)?;
    for (_, term) in kg.classes() {
        write_str(&mut w, term)?;
    }
    // Relation dictionary.
    write_u32(&mut w, kg.num_relations() as u32)?;
    for (_, term) in kg.relations() {
        write_str(&mut w, term)?;
    }
    // Nodes.
    write_u32(&mut w, kg.num_nodes() as u32)?;
    for v in 0..kg.num_nodes() as u32 {
        let vid = Vid(v);
        write_u32(&mut w, kg.class_of(vid).raw())?;
        write_str(&mut w, kg.node_term(vid))?;
    }
    // Triples, ascending and delta-encoded on subject.
    w.write_all(&(kg.num_triples() as u64).to_le_bytes())?;
    let mut prev_s = 0u32;
    for [s, p, o] in kg.triples().iter().map(|t| t.raw()) {
        write_varint(&mut w, (s - prev_s) as u64)?;
        write_varint(&mut w, p as u64)?;
        write_varint(&mut w, o as u64)?;
        prev_s = s;
    }
    Ok(())
}

/// Writes a snapshot of `kg` while folding every emitted byte into an
/// FNV-1a hash; returns the graph's content fingerprint. This is the
/// "free" way to obtain [`crate::fingerprint::fingerprint`] when a
/// snapshot is being persisted anyway.
pub fn write_snapshot_fingerprinted(kg: &KnowledgeGraph, w: impl Write) -> io::Result<u64> {
    let mut hw = HashingWriter::new(w);
    write_snapshot(kg, &mut hw)?;
    Ok(hw.finish())
}

/// Reads a snapshot produced by [`write_snapshot`]: reads `r` to the end,
/// then builds the graph from the snapshot at the start of those bytes
/// (anything after it is ignored). Bytes that are not a canonical snapshot
/// are an error.
pub fn read_snapshot(mut r: impl Read) -> io::Result<KnowledgeGraph> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    let mut build = Materialise::default();
    walk(&bytes, &mut build, true)?;
    Ok(build.kg)
}

/// Receives a snapshot's contents, in stream order, as the walker behind
/// [`SnapshotView`] validates them. Every method ignores its argument
/// unless overridden.
pub trait SnapshotVisitor<'a> {
    /// The next class term; ids count up from 0.
    fn class(&mut self, _term: &'a str) {}
    /// The next relation term; ids count up from 0.
    fn relation(&mut self, _term: &'a str) {}
    /// The next node; ids count up from 0.
    fn node(&mut self, _class: Cid, _term: &'a str) {}
    /// The next triple, strictly ascending by `(s, p, o)`.
    fn triple(&mut self, _t: Triple) {}
}

/// Validation only.
impl SnapshotVisitor<'_> for () {}

/// A validated, borrowed snapshot: the bytes of one canonical snapshot,
/// its section counts and its fingerprint. Nothing is decoded into owned
/// structures until a caller asks ([`Self::to_graph`], [`Self::visit`]).
#[derive(Debug, Clone, Copy)]
pub struct SnapshotView<'a> {
    bytes: &'a [u8],
    fingerprint: u64,
    num_classes: usize,
    num_relations: usize,
    num_nodes: usize,
    num_triples: usize,
}

impl<'a> SnapshotView<'a> {
    /// Validates the snapshot at the start of `bytes` — every check
    /// [`read_snapshot`] makes, canonical form included. Bytes after the
    /// snapshot are not part of the view ([`Self::bytes`] ends where the
    /// snapshot does).
    pub fn parse(bytes: &'a [u8]) -> io::Result<Self> {
        Self::parse_with(bytes, &mut ())
    }

    /// [`Self::parse`], handing the contents to `visitor` as the validating
    /// walk passes them, so a caller that needs them reads the bytes once.
    /// On an error the visitor has seen a prefix of the contents.
    pub fn parse_with(bytes: &'a [u8], visitor: &mut impl SnapshotVisitor<'a>) -> io::Result<Self> {
        walk(bytes, visitor, true)
    }

    /// Exactly the snapshot's bytes.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// The content fingerprint of the snapshot's graph — FNV-1a over
    /// [`Self::bytes`], taken while they were validated, and equal to
    /// [`crate::fingerprint::fingerprint`] of [`Self::to_graph`] because
    /// the bytes are canonical.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    pub fn num_relations(&self) -> usize {
        self.num_relations
    }

    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    pub fn num_triples(&self) -> usize {
        self.num_triples
    }

    /// Walks the snapshot again, handing its contents to `visitor`. The
    /// terms were proven unique and the fingerprint taken when the view
    /// was parsed, so this walk does neither again.
    pub fn visit(&self, visitor: &mut impl SnapshotVisitor<'a>) {
        walk(self.bytes, visitor, false).expect("a parsed snapshot walks again");
    }

    /// Builds the graph the snapshot describes.
    pub fn to_graph(&self) -> KnowledgeGraph {
        let mut build = Materialise::default();
        self.visit(&mut build);
        build.kg
    }
}

/// Builds a [`KnowledgeGraph`] from a walk. Every walk it takes part in
/// has validated (or, re-walking a view, had validated) that the terms of
/// each dictionary are unique, so they are appended without lookups.
#[derive(Default)]
struct Materialise {
    kg: KnowledgeGraph,
}

impl SnapshotVisitor<'_> for Materialise {
    fn class(&mut self, term: &str) {
        self.kg.push_class(term);
    }

    fn relation(&mut self, term: &str) {
        self.kg.push_relation(term);
    }

    fn node(&mut self, class: Cid, term: &str) {
        self.kg.push_node(term, class);
    }

    fn triple(&mut self, t: Triple) {
        self.kg.add_triple(t.s, t.p, t.o);
    }
}

/// Validates the snapshot at the start of `bytes`, handing each class,
/// relation, node and triple to `visitor` once it has passed its checks,
/// and folds every byte it consumes into the view's fingerprint. This is
/// the format's only reader. `first: false` skips the term-uniqueness
/// check and the fingerprint, for re-walking bytes that already passed
/// the one and produced the other; the view it returns is then not
/// fingerprinted.
fn walk<'a>(
    bytes: &'a [u8],
    visitor: &mut impl SnapshotVisitor<'a>,
    first: bool,
) -> io::Result<SnapshotView<'a>> {
    let mut r = Bytes { rest: bytes, hash: first.then(Fnv64::new) };
    if r.take(MAGIC.len())? != MAGIC {
        return Err(bad("bad magic: not a KGTOSA snapshot"));
    }
    // Terms come from outside the program: the default hasher keeps
    // crafted collisions from making this set quadratic.
    let mut seen: HashSet<&str> = HashSet::new();
    let num_classes = r.u32()? as usize;
    for _ in 0..num_classes {
        let term = r.str()?;
        if first && !seen.insert(term) {
            return Err(bad("duplicate class term in snapshot"));
        }
        visitor.class(term);
    }
    seen.clear();
    let num_relations = r.u32()? as usize;
    for _ in 0..num_relations {
        let term = r.str()?;
        if first && !seen.insert(term) {
            return Err(bad("duplicate relation term in snapshot"));
        }
        visitor.relation(term);
    }
    seen.clear();
    let num_nodes = r.u32()? as usize;
    if first {
        seen.reserve(num_nodes.min(MAX_PREALLOC));
    }
    for _ in 0..num_nodes {
        let class = r.u32()?;
        let term = r.str()?;
        if class as usize >= num_classes {
            return Err(bad("node references unknown class"));
        }
        if first && !seen.insert(term) {
            return Err(bad("duplicate node term in snapshot"));
        }
        visitor.node(Cid(class), term);
    }
    let num_triples = r.u64()?;
    // With ids bounded by num_nodes/num_relations there can be at most
    // nodes² · relations distinct triples; a count beyond that is a
    // forged header.
    let max_triples = (num_nodes as u64)
        .saturating_mul(num_nodes as u64)
        .saturating_mul(num_relations.max(1) as u64);
    if num_triples > max_triples {
        return Err(bad("triple count exceeds what the dictionaries allow"));
    }
    let mut prev = [0u32; 3];
    for i in 0..num_triples {
        let ds = r.varint_u32()?;
        let p = r.varint_u32()?;
        let o = r.varint_u32()?;
        let s = prev[0]
            .checked_add(ds)
            .ok_or_else(|| bad("subject delta overflows u32"))?;
        if s as usize >= num_nodes || o as usize >= num_nodes || p as usize >= num_relations {
            return Err(bad("triple id out of range"));
        }
        // The first triple has no predecessor (`prev` is only a zero).
        if i > 0 && ds == 0 && (p, o) <= (prev[1], prev[2]) {
            return Err(bad("triples not strictly ascending"));
        }
        prev = [s, p, o];
        visitor.triple(Triple::new(Vid(s), Rid(p), Vid(o)));
    }
    Ok(SnapshotView {
        bytes: &bytes[..bytes.len() - r.rest.len()],
        fingerprint: r.hash.map_or(0, |h| h.finish()),
        num_classes,
        num_relations,
        num_nodes,
        num_triples: num_triples as usize,
    })
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn truncated() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "snapshot truncated")
}

/// A cursor over borrowed bytes: `rest` is what is still unread. Running
/// past the end is `UnexpectedEof`. With a `hash`, every byte it hands out
/// is folded in as it goes.
struct Bytes<'a> {
    rest: &'a [u8],
    hash: Option<Fnv64>,
}

impl<'a> Bytes<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if n > self.rest.len() {
            return Err(truncated());
        }
        Ok(self.advance(n))
    }

    /// Consumes the first `n <= rest.len()` bytes.
    fn advance(&mut self, n: usize) -> &'a [u8] {
        let (head, rest) = self.rest.split_at(n);
        if let Some(hash) = &mut self.hash {
            hash.update(head);
        }
        self.rest = rest;
        head
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn str(&mut self) -> io::Result<&'a str> {
        let len = self.varint()?;
        if len > 1 << 24 {
            return Err(bad("unreasonable string length"));
        }
        std::str::from_utf8(self.take(len as usize)?).map_err(|_| bad("invalid UTF-8 in snapshot"))
    }

    /// A varint that must fit in a `u32` (an id or delta): a wider value
    /// is an error, never truncated to a small in-range id.
    fn varint_u32(&mut self) -> io::Result<u32> {
        u32::try_from(self.varint()?).map_err(|_| bad("id varint exceeds u32 range"))
    }

    /// A minimal LEB128 varint of at most 64 bits (ten 7-bit groups, the
    /// last carrying one bit).
    fn varint(&mut self) -> io::Result<u64> {
        // Most ids and deltas fit one group, and a lone group is always
        // minimal (`0x00` is the canonical zero).
        if let Some(&byte) = self.rest.first().filter(|&&b| b < 0x80) {
            self.advance(1);
            return Ok(u64::from(byte));
        }
        let mut out = 0u64;
        for (i, &byte) in self.rest.iter().take(10).enumerate() {
            let low = u64::from(byte & 0x7f);
            if i == 9 && low > 1 {
                return Err(bad("varint overflow"));
            }
            out |= low << (7 * i);
            if byte & 0x80 == 0 {
                if byte == 0 && i > 0 {
                    return Err(bad("non-minimal varint"));
                }
                self.advance(i + 1);
                return Ok(out);
            }
        }
        Err(if self.rest.len() < 10 {
            truncated()
        } else {
            bad("varint overflow")
        })
    }
}

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    write_varint(w, s.len() as u64)?;
    w.write_all(s.as_bytes())
}

/// LEB128 unsigned varint.
fn write_varint(w: &mut impl Write, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        for i in 0..50 {
            kg.add_triple_terms(
                &format!("p{i}"),
                "Paper",
                "cites",
                &format!("p{}", i / 2),
                "Paper",
            );
            kg.add_triple_terms(
                &format!("a{}", i % 7),
                "Author",
                "writes",
                &format!("p{i}"),
                "Paper",
            );
        }
        kg.add_node("isolated", "Misc");
        kg
    }

    fn snapshot(kg: &KnowledgeGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        write_snapshot(kg, &mut buf).unwrap();
        buf
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let kg = sample();
        let buf = snapshot(&kg);
        let back = read_snapshot(Cursor::new(&buf)).unwrap();
        assert_eq!(back.num_nodes(), kg.num_nodes());
        assert_eq!(back.num_relations(), kg.num_relations());
        assert_eq!(back.num_classes(), kg.num_classes());
        assert_eq!(back.num_triples(), kg.num_triples());
        // Node terms and classes survive by id.
        for v in 0..kg.num_nodes() as u32 {
            assert_eq!(back.node_term(Vid(v)), kg.node_term(Vid(v)));
            assert_eq!(
                back.class_term(back.class_of(Vid(v))),
                kg.class_term(kg.class_of(Vid(v)))
            );
        }
        assert_eq!(back.triples(), kg.triples());
    }

    #[test]
    fn fingerprinted_roundtrip_matches() {
        let kg = sample();
        let mut buf = Vec::new();
        let fp = write_snapshot_fingerprinted(&kg, &mut buf).unwrap();
        let len = buf.len();
        buf.extend_from_slice(b"trailing");
        let view = SnapshotView::parse(&buf).unwrap();
        assert_eq!(
            view.bytes().len(),
            len,
            "the view ends where the snapshot does"
        );
        assert_eq!(view.num_classes(), kg.num_classes());
        assert_eq!(view.num_relations(), kg.num_relations());
        assert_eq!(view.num_nodes(), kg.num_nodes());
        assert_eq!(view.num_triples(), kg.num_triples());
        assert_eq!(view.fingerprint(), fp);
        assert_eq!(fp, crate::fingerprint::fingerprint(&kg));
        assert_eq!(snapshot(&view.to_graph()), &buf[..len]);
    }

    #[test]
    fn snapshot_is_compact() {
        let kg = sample();
        let bin = snapshot(&kg);
        // Compare with a naive 12-bytes-per-triple + strings layout.
        let naive = kg.num_triples() * 12;
        assert!(
            bin.len() < naive + kg.num_nodes() * 16,
            "binary {} should beat naive {}",
            bin.len(),
            naive
        );
    }

    #[test]
    fn rejects_corruption() {
        let buf = snapshot(&sample());
        // Bad magic.
        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert!(read_snapshot(Cursor::new(&bad_magic)).is_err());
        // Truncation at any point errors rather than panics.
        for cut in [8usize, 20, buf.len() / 2, buf.len() - 1] {
            assert!(
                read_snapshot(Cursor::new(&buf[..cut])).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_eq!(Bytes { rest: &buf, hash: None }.varint().unwrap(), v);
        }
    }

    /// The one-group path at its edges: a lone group below `0x80` is the
    /// whole varint, `0x80` needs the next group, and either way the
    /// cursor hashes exactly the bytes it consumed.
    #[test]
    fn one_byte_varints_are_read_and_hashed_alone() {
        for (bytes, value, used) in
            [(&[0x00, 0xff][..], 0, 1), (&[0x7f, 0x00], 0x7f, 1), (&[0x80, 0x01, 0x05], 0x80, 2)]
        {
            let mut r = Bytes { rest: bytes, hash: Some(Fnv64::new()) };
            assert_eq!(r.varint().unwrap(), value, "{bytes:?}");
            assert_eq!(r.rest, &bytes[used..], "{bytes:?}");
            assert_eq!(r.hash.unwrap().finish(), crate::fnv64(&bytes[..used]), "{bytes:?}");
        }
        let err = Bytes { rest: &[0x80], hash: None }.varint().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn rejects_non_canonical_varints() {
        for bytes in [
            &[0x80, 0x00][..],
            &[0x81, 0x80, 0x00],
            // 11 groups, and 10 groups carrying more than 64 bits.
            &[
                0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x81, 0x00,
            ],
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02],
        ] {
            let err = Bytes { rest: bytes, hash: None }.varint().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bytes:?}");
        }
    }

    /// Byte offset of the `u64` triple-count header in a snapshot of
    /// [`sample`]: the last place its little-endian count appears.
    fn triple_count_offset(buf: &[u8]) -> usize {
        let needle = (sample().num_triples() as u64).to_le_bytes();
        buf.windows(8)
            .rposition(|w| w == needle)
            .expect("triple count header present")
    }

    /// A snapshot of [`sample`] whose triple section is replaced by
    /// `triples`, written raw (delta, p, o) — no ordering, no checks.
    fn with_raw_triples(triples: &[[u64; 3]]) -> Vec<u8> {
        let mut buf = snapshot(&sample());
        let off = triple_count_offset(&buf);
        buf.truncate(off);
        buf.extend_from_slice(&(triples.len() as u64).to_le_bytes());
        for t in triples {
            for &v in t {
                write_varint(&mut buf, v).unwrap();
            }
        }
        buf
    }

    fn assert_invalid(buf: &[u8]) {
        let err = read_snapshot(Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(SnapshotView::parse(buf).is_err());
    }

    #[test]
    fn rejects_forged_triple_count() {
        let mut buf = snapshot(&sample());
        let off = triple_count_offset(&buf);
        // A count far beyond nodes² · relations must be rejected up
        // front instead of looping until EOF on garbage.
        buf[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_invalid(&buf);
    }

    #[test]
    fn rejects_oversized_id_varint() {
        // A subject delta of u32::MAX + 2 — an unchecked `as u32` cast
        // would silently truncate it to 1 and produce a wrong (but
        // valid-looking) graph.
        assert_invalid(&with_raw_triples(&[[u64::from(u32::MAX) + 2, 0, 0]]));
    }

    #[test]
    fn rejects_subject_delta_overflow() {
        // Two deltas summing past u32::MAX must error on the checked add,
        // not wrap around to a small subject id.
        let max = u64::from(u32::MAX);
        assert_invalid(&with_raw_triples(&[[max, 0, 0], [max, 0, 0]]));
    }

    #[test]
    fn rejects_unsorted_and_duplicate_triples() {
        assert_invalid(&with_raw_triples(&[[1, 1, 0], [0, 0, 5]]));
        assert_invalid(&with_raw_triples(&[[1, 0, 5], [0, 0, 4]]));
        assert_invalid(&with_raw_triples(&[[1, 0, 5], [0, 0, 5], [1, 0, 0]]));
        // The all-zero triple is a duplicate too, though it equals the
        // first triple's zero predecessor.
        assert_invalid(&with_raw_triples(&[[0, 0, 0], [0, 0, 0]]));
        let ok = with_raw_triples(&[[0, 0, 0], [0, 0, 1], [1, 0, 0]]);
        let kg = read_snapshot(Cursor::new(&ok)).unwrap();
        assert_eq!(kg.num_triples(), 3);
        assert_eq!(snapshot(&kg), ok);
    }

    #[test]
    fn rejects_duplicate_dictionary_terms() {
        let mut kg = KnowledgeGraph::new();
        kg.add_triple_terms("n1", "AA", "r1", "n2", "BB");
        kg.add_triple_terms("n2", "BB", "r2", "n1", "AA");
        let buf = snapshot(&kg);
        for (first, second) in [("AA", "BB"), ("r1", "r2"), ("n1", "n2")] {
            // Same length, so only the term changes; the first occurrence
            // of `second`'s length-prefixed bytes is its dictionary entry.
            let mut needle = vec![second.len() as u8];
            needle.extend_from_slice(second.as_bytes());
            let at = buf.windows(needle.len()).position(|w| w == needle).unwrap();
            let mut dup = buf.clone();
            dup[at + 1..at + needle.len()].copy_from_slice(first.as_bytes());
            assert_invalid(&dup);
        }
    }

    #[test]
    fn hostile_dictionary_count_does_not_preallocate() {
        // magic + num_classes = u32::MAX, then nothing: must fail on
        // the missing class terms, not abort in an allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_snapshot(Cursor::new(&buf)).is_err());
    }

    #[test]
    fn visit_reports_contents_in_stream_order() {
        #[derive(Default)]
        struct Collect<'a> {
            relations: Vec<&'a str>,
            nodes: usize,
            triples: Vec<Triple>,
        }
        impl<'a> SnapshotVisitor<'a> for Collect<'a> {
            fn relation(&mut self, term: &'a str) {
                self.relations.push(term);
            }
            fn node(&mut self, _class: Cid, _term: &'a str) {
                self.nodes += 1;
            }
            fn triple(&mut self, t: Triple) {
                self.triples.push(t);
            }
        }
        let kg = sample();
        let buf = snapshot(&kg);
        let mut seen = Collect::default();
        SnapshotView::parse(&buf).unwrap().visit(&mut seen);
        assert_eq!(seen.relations, ["cites", "writes"]);
        assert_eq!(seen.nodes, kg.num_nodes());
        assert_eq!(seen.triples, kg.triples());
    }

    #[test]
    fn empty_graph_roundtrips() {
        let kg = KnowledgeGraph::new();
        let back = read_snapshot(Cursor::new(snapshot(&kg))).unwrap();
        assert_eq!(back.num_nodes(), 0);
        assert_eq!(back.num_triples(), 0);
    }
}
