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
//!                    with subjects delta-encoded over the sorted list
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
//! - triples are sorted by `(s, p, o)` (duplicates are kept: the triple
//!   list is a multiset).
//!
//! So for every snapshot the view accepts, re-writing the decoded graph
//! reproduces the accepted bytes, and [`SnapshotView::fingerprint`] — FNV-1a
//! over those bytes — equals [`crate::fingerprint::fingerprint`] of the
//! graph without building it. One private walker is the only code that
//! reads the layout: the view, [`read_snapshot`] and every consumer of a
//! view's contents go through it.

use std::collections::HashSet;
use std::io::{self, Read, Write};

use crate::fingerprint::{fnv64, HashingWriter};
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
    // Triples, sorted + delta-encoded on subject.
    let mut triples: Vec<[u32; 3]> = kg.triples().iter().map(|t| t.raw()).collect();
    triples.sort_unstable();
    w.write_all(&(triples.len() as u64).to_le_bytes())?;
    let mut prev_s = 0u32;
    for [s, p, o] in triples {
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
    walk(&bytes, &mut build)?;
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
    /// The next triple, in `(s, p, o)` order.
    fn triple(&mut self, _t: Triple) {}
}

/// Validation only.
impl SnapshotVisitor<'_> for () {}

/// A validated, borrowed snapshot: the bytes of one canonical snapshot and
/// its section counts. Nothing is decoded into owned structures until a
/// caller asks ([`Self::to_graph`], [`Self::visit`]).
#[derive(Debug, Clone, Copy)]
pub struct SnapshotView<'a> {
    bytes: &'a [u8],
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
        walk(bytes, &mut ())
    }

    /// Exactly the snapshot's bytes.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// The content fingerprint of the snapshot's graph — equal to
    /// [`crate::fingerprint::fingerprint`] of [`Self::to_graph`], because
    /// the bytes are canonical.
    pub fn fingerprint(&self) -> u64 {
        fnv64(self.bytes)
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

    /// Walks the snapshot again, handing its contents to `visitor`.
    pub fn visit(&self, visitor: &mut impl SnapshotVisitor<'a>) {
        walk(self.bytes, visitor).expect("a parsed snapshot walks again");
    }

    /// Builds the graph the snapshot describes.
    pub fn to_graph(&self) -> KnowledgeGraph {
        let mut build = Materialise::default();
        self.visit(&mut build);
        build.kg
    }
}

/// Builds a [`KnowledgeGraph`] from a walk.
#[derive(Default)]
struct Materialise<'a> {
    kg: KnowledgeGraph,
    classes: Vec<&'a str>,
}

impl<'a> SnapshotVisitor<'a> for Materialise<'a> {
    fn class(&mut self, term: &'a str) {
        self.kg.add_class(term);
        self.classes.push(term);
    }

    fn relation(&mut self, term: &'a str) {
        self.kg.add_relation(term);
    }

    fn node(&mut self, class: Cid, term: &'a str) {
        self.kg.add_node(term, self.classes[class.idx()]);
    }

    fn triple(&mut self, t: Triple) {
        self.kg.add_triple(t.s, t.p, t.o);
    }
}

/// Validates the snapshot at the start of `bytes`, handing each class,
/// relation, node and triple to `visitor` once it has passed its checks.
/// This is the format's only reader.
fn walk<'a>(
    bytes: &'a [u8],
    visitor: &mut impl SnapshotVisitor<'a>,
) -> io::Result<SnapshotView<'a>> {
    let mut r = Bytes { rest: bytes };
    if r.take(MAGIC.len())? != MAGIC {
        return Err(bad("bad magic: not a KGTOSA snapshot"));
    }
    // Terms come from outside the program: the default hasher keeps
    // crafted collisions from making this set quadratic.
    let mut seen: HashSet<&str> = HashSet::new();
    let num_classes = r.u32()? as usize;
    for _ in 0..num_classes {
        let term = r.str()?;
        if !seen.insert(term) {
            return Err(bad("duplicate class term in snapshot"));
        }
        visitor.class(term);
    }
    seen.clear();
    let num_relations = r.u32()? as usize;
    for _ in 0..num_relations {
        let term = r.str()?;
        if !seen.insert(term) {
            return Err(bad("duplicate relation term in snapshot"));
        }
        visitor.relation(term);
    }
    seen.clear();
    let num_nodes = r.u32()? as usize;
    seen.reserve(num_nodes.min(MAX_PREALLOC));
    for _ in 0..num_nodes {
        let class = r.u32()?;
        let term = r.str()?;
        if class as usize >= num_classes {
            return Err(bad("node references unknown class"));
        }
        if !seen.insert(term) {
            return Err(bad("duplicate node term in snapshot"));
        }
        visitor.node(Cid(class), term);
    }
    let num_triples = r.u64()?;
    // With ids bounded by num_nodes/num_relations there can be at most
    // nodes² · relations distinct triples; a count beyond that is a
    // forged header (the multiset allows duplicates, but a duplicate-heavy
    // header that large is equally implausible and would only make us
    // loop on garbage).
    let max_triples = (num_nodes as u64)
        .saturating_mul(num_nodes as u64)
        .saturating_mul(num_relations.max(1) as u64);
    if num_triples > max_triples {
        return Err(bad("triple count exceeds what the dictionaries allow"));
    }
    let mut prev = [0u32; 3];
    for _ in 0..num_triples {
        let ds = r.varint_u32()?;
        let p = r.varint_u32()?;
        let o = r.varint_u32()?;
        let s = prev[0]
            .checked_add(ds)
            .ok_or_else(|| bad("subject delta overflows u32"))?;
        if s as usize >= num_nodes || o as usize >= num_nodes || p as usize >= num_relations {
            return Err(bad("triple id out of range"));
        }
        if ds == 0 && (p, o) < (prev[1], prev[2]) {
            return Err(bad("triples not sorted"));
        }
        prev = [s, p, o];
        visitor.triple(Triple::new(Vid(s), Rid(p), Vid(o)));
    }
    Ok(SnapshotView {
        bytes: &bytes[..bytes.len() - r.rest.len()],
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
/// past the end is `UnexpectedEof`.
struct Bytes<'a> {
    rest: &'a [u8],
}

impl<'a> Bytes<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if n > self.rest.len() {
            return Err(truncated());
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
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
                self.rest = &self.rest[i + 1..];
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
pub(crate) fn write_varint(w: &mut impl Write, mut v: u64) -> io::Result<()> {
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
        // Triple multisets match (snapshot sorts them).
        let mut a: Vec<Triple> = kg.triples().to_vec();
        let mut b: Vec<Triple> = back.triples().to_vec();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
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
            assert_eq!(Bytes { rest: &buf }.varint().unwrap(), v);
        }
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
            let err = Bytes { rest: bytes }.varint().unwrap_err();
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
    /// `triples`, written raw (delta, p, o) — no sorting, no checks.
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
    fn rejects_unsorted_triples_but_keeps_duplicates() {
        assert_invalid(&with_raw_triples(&[[1, 1, 0], [0, 0, 5]]));
        assert_invalid(&with_raw_triples(&[[1, 0, 5], [0, 0, 4]]));
        let dup = with_raw_triples(&[[1, 0, 5], [0, 0, 5], [1, 0, 0]]);
        let kg = read_snapshot(Cursor::new(&dup)).unwrap();
        assert_eq!(kg.num_triples(), 3);
        assert_eq!(snapshot(&kg), dup);
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
        let mut sorted = kg.triples().to_vec();
        sorted.sort_unstable();
        assert_eq!(seen.triples, sorted);
    }

    #[test]
    fn empty_graph_roundtrips() {
        let kg = KnowledgeGraph::new();
        let back = read_snapshot(Cursor::new(snapshot(&kg))).unwrap();
        assert_eq!(back.num_nodes(), 0);
        assert_eq!(back.num_triples(), 0);
    }
}
