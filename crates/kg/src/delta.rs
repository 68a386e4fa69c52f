//! Versioned, checksummed triple add/remove deltas over KG snapshots.
//!
//! The paper's extraction pipeline (Algorithms 1–3) assumes a frozen KG;
//! this module is the mutation story layered on top of it. A [`KgDelta`]
//! is an ordered log of term-level [`DeltaOp`]s pinned to the canonical
//! fingerprint of the base graph it applies to. Applying a delta is
//! **all-or-nothing**: [`apply_delta`] works on a clone and either returns
//! the fully patched graph or an error with the input untouched — a delta
//! never applies partially, mirroring the reject-don't-repair stance of
//! the snapshot decoder.
//!
//! ## Id stability
//!
//! Dictionaries are append-only and [`KnowledgeGraph::retain_triples`]
//! never drops vertices, so every vertex/relation/class id of the base
//! graph is valid — with the same meaning — in the patched graph. The
//! incremental TOSG repair in `kgtosa-core` depends on this: cached
//! parent-space mappings survive a delta without remapping.
//!
//! ## Incremental fingerprinting
//!
//! The canonical fingerprint ([`crate::fingerprint::fingerprint`]) hashes
//! a serialized byte stream and cannot be patched in place. The
//! [`MultisetFingerprint`] is its order-independent companion: a wrapping
//! sum of per-element hashes (classes, relations, typed vertices, triples),
//! so an add is a `wrapping_add` and a remove a `wrapping_sub` — O(1) per
//! op instead of O(|KG|) per epoch. [`apply_delta`] maintains it
//! incrementally; the differential test suite asserts it always equals a
//! from-scratch [`MultisetFingerprint::of`] over the patched graph.
//!
//! ## Wire format (`KGTOSAD1`)
//!
//! ```text
//! magic "KGTOSAD1" | varint version | varint base_fingerprint |
//! varint num_ops | ops... | u64-le FNV-1a checksum of everything
//!                           between magic and checksum
//! ```
//!
//! Each op is a tag byte (0 = add, 1 = remove) followed by
//! length-prefixed UTF-8 terms. The decoder mirrors the snapshot
//! decoder's hardening: bounded preallocation, capped term lengths and
//! op counts, varint overflow rejection, and checksum verification —
//! hostile bytes produce `InvalidData`, never a panic and never a
//! partially decoded delta.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

use crate::fingerprint::{Fnv64, HashingReader, HashingWriter};
use crate::fxhash::FxHashMap;
use crate::ids::Vid;
use crate::snapshot::write_varint;
use crate::triples::{KnowledgeGraph, Triple};

/// Magic prefix of the delta wire format.
pub const DELTA_MAGIC: &[u8; 8] = b"KGTOSAD1";
/// Current format version.
pub const DELTA_VERSION: u64 = 1;

/// Hard cap on the declared op count: a hostile header cannot make the
/// decoder loop forever or balloon memory.
const MAX_OPS: u64 = 1 << 24;
/// Hard cap on a single term's byte length (matches the snapshot codec).
const MAX_TERM_LEN: u64 = 1 << 24;
/// Never preallocate more than this many elements from untrusted counts.
const MAX_PREALLOC: usize = 1 << 16;

/// One term-level mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Assert a triple, interning any new vertices/relations/classes.
    /// The class terms only take effect when the vertex is new (first
    /// declaration wins, as at load time).
    Add { s: String, s_class: String, p: String, o: String, o_class: String },
    /// Retract **one occurrence** of an existing triple. All three terms
    /// must already be interned and the triple must be present, otherwise
    /// the whole delta is rejected.
    Remove { s: String, p: String, o: String },
}

/// An ordered op log pinned to the canonical fingerprint of its base KG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KgDelta {
    /// Canonical fingerprint ([`crate::fingerprint::fingerprint`]) of the
    /// graph this delta was authored against.
    pub base_fingerprint: u64,
    /// Mutations, applied in order.
    pub ops: Vec<DeltaOp>,
}

impl KgDelta {
    /// Creates a delta pinned to `base_fingerprint`.
    pub fn new(base_fingerprint: u64) -> Self {
        KgDelta { base_fingerprint, ops: Vec::new() }
    }
}

// ----------------------------------------------------------------------
// Wire codec
// ----------------------------------------------------------------------

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn write_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    write_varint(w, s.len() as u64)?;
    w.write_all(s.as_bytes())
}

/// LEB128 unsigned varint.
fn read_varint(r: &mut impl Read) -> io::Result<u64> {
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        if shift >= 64 {
            return Err(bad("varint overflow"));
        }
        out |= ((byte[0] & 0x7f) as u64) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
    }
}

fn read_str(r: &mut impl Read) -> io::Result<String> {
    let len = read_varint(r)?;
    if len > MAX_TERM_LEN {
        return Err(bad("delta term length exceeds cap"));
    }
    let mut buf = vec![0u8; (len as usize).min(MAX_PREALLOC)];
    let mut out = Vec::with_capacity(buf.len());
    let mut remaining = len as usize;
    while remaining > 0 {
        let chunk = remaining.min(buf.len());
        r.read_exact(&mut buf[..chunk])?;
        out.extend_from_slice(&buf[..chunk]);
        remaining -= chunk;
    }
    String::from_utf8(out).map_err(|_| bad("delta term is not valid UTF-8"))
}

/// Serializes `delta` in the `KGTOSAD1` format, trailing checksum included.
pub fn write_delta(delta: &KgDelta, mut w: impl Write) -> io::Result<()> {
    w.write_all(DELTA_MAGIC)?;
    let mut hw = HashingWriter::new(w);
    write_varint(&mut hw, DELTA_VERSION)?;
    write_varint(&mut hw, delta.base_fingerprint)?;
    write_varint(&mut hw, delta.ops.len() as u64)?;
    for op in &delta.ops {
        match op {
            DeltaOp::Add { s, s_class, p, o, o_class } => {
                hw.write_all(&[0])?;
                for term in [s, s_class, p, o, o_class] {
                    write_str(&mut hw, term)?;
                }
            }
            DeltaOp::Remove { s, p, o } => {
                hw.write_all(&[1])?;
                for term in [s, p, o] {
                    write_str(&mut hw, term)?;
                }
            }
        }
    }
    let checksum = hw.finish();
    let mut w = hw.into_inner();
    w.write_all(&checksum.to_le_bytes())
}

/// Decodes a `KGTOSAD1` delta, verifying the trailing checksum.
///
/// Any malformed input — wrong magic, unknown version, hostile op count,
/// oversized varint or term, bad tag, truncation, checksum mismatch —
/// yields `InvalidData`/`UnexpectedEof`. Nothing is ever half-decoded:
/// the delta is only returned after the checksum verifies.
pub fn read_delta(mut r: impl Read) -> io::Result<KgDelta> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != DELTA_MAGIC {
        return Err(bad("not a KGTOSAD1 delta (bad magic)"));
    }
    let mut hr = HashingReader::new(r);
    let version = read_varint(&mut hr)?;
    if version != DELTA_VERSION {
        return Err(bad("unsupported delta version"));
    }
    let base_fingerprint = read_varint(&mut hr)?;
    let num_ops = read_varint(&mut hr)?;
    if num_ops > MAX_OPS {
        return Err(bad("delta op count implausible"));
    }
    let mut ops = Vec::with_capacity((num_ops as usize).min(MAX_PREALLOC));
    for _ in 0..num_ops {
        let mut tag = [0u8; 1];
        hr.read_exact(&mut tag)?;
        let op = match tag[0] {
            0 => DeltaOp::Add {
                s: read_str(&mut hr)?,
                s_class: read_str(&mut hr)?,
                p: read_str(&mut hr)?,
                o: read_str(&mut hr)?,
                o_class: read_str(&mut hr)?,
            },
            1 => DeltaOp::Remove {
                s: read_str(&mut hr)?,
                p: read_str(&mut hr)?,
                o: read_str(&mut hr)?,
            },
            _ => return Err(bad("unknown delta op tag")),
        };
        ops.push(op);
    }
    let computed = hr.finish();
    let mut r = hr.into_inner();
    let mut trailer = [0u8; 8];
    r.read_exact(&mut trailer)?;
    if u64::from_le_bytes(trailer) != computed {
        return Err(bad("delta checksum mismatch"));
    }
    Ok(KgDelta { base_fingerprint, ops })
}

// ----------------------------------------------------------------------
// Multiset fingerprint
// ----------------------------------------------------------------------

/// Order-independent content fingerprint: the wrapping sum of per-element
/// FNV-1a hashes over tagged, length-prefixed term encodings. Elements are
/// class terms, relation terms, typed vertices `(term, class term)` and
/// triples `(s term, p term, o term)`. Adding an element is `wrapping_add`
/// of its hash, removing is `wrapping_sub` — which is what makes it
/// maintainable in O(1) per delta op.
///
/// This complements (does not replace) the canonical stream fingerprint:
/// cache keys stay on [`crate::fingerprint::fingerprint`]; the multiset
/// value is the cheap invariant the differential harness checks after
/// every apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultisetFingerprint(u64);

const TAG_CLASS: u8 = 1;
const TAG_RELATION: u8 = 2;
const TAG_NODE: u8 = 3;
const TAG_TRIPLE: u8 = 4;

fn elem_hash(tag: u8, parts: &[&str]) -> u64 {
    let mut h = Fnv64::new();
    h.update(&[tag]);
    for p in parts {
        h.update(&(p.len() as u64).to_le_bytes());
        h.update(p.as_bytes());
    }
    h.finish()
}

fn triple_hash(kg: &KnowledgeGraph, t: Triple) -> u64 {
    elem_hash(
        TAG_TRIPLE,
        &[kg.node_term(t.s), kg.relation_term(t.p), kg.node_term(t.o)],
    )
}

impl MultisetFingerprint {
    /// The empty multiset.
    pub fn empty() -> Self {
        MultisetFingerprint(0)
    }

    /// Full recomputation over every element of `kg`. O(|KG|); used at
    /// load time and by the differential tests as ground truth.
    pub fn of(kg: &KnowledgeGraph) -> Self {
        let mut acc = 0u64;
        for (_, term) in kg.classes() {
            acc = acc.wrapping_add(elem_hash(TAG_CLASS, &[term]));
        }
        for (_, term) in kg.relations() {
            acc = acc.wrapping_add(elem_hash(TAG_RELATION, &[term]));
        }
        for v in 0..kg.num_nodes() {
            let v = Vid(v as u32);
            let cls = kg.class_term(kg.class_of(v));
            acc = acc.wrapping_add(elem_hash(TAG_NODE, &[kg.node_term(v), cls]));
        }
        for &t in kg.triples() {
            acc = acc.wrapping_add(triple_hash(kg, t));
        }
        MultisetFingerprint(acc)
    }

    /// The raw 64-bit value.
    pub fn value(self) -> u64 {
        self.0
    }

    fn add(&mut self, h: u64) {
        self.0 = self.0.wrapping_add(h);
    }

    fn sub(&mut self, h: u64) {
        self.0 = self.0.wrapping_sub(h);
    }
}

// ----------------------------------------------------------------------
// Apply
// ----------------------------------------------------------------------

/// Why a delta was rejected. Rejection is total: the base graph is never
/// modified (apply works on a clone that is discarded on error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta was authored against a different graph version.
    BaseMismatch { expected: u64, actual: u64 },
    /// A remove op referenced a vertex term that is not interned.
    UnknownNode(String),
    /// A remove op referenced a relation term that is not interned.
    UnknownRelation(String),
    /// A remove op referenced a triple with no live occurrence.
    MissingTriple { s: String, p: String, o: String },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::BaseMismatch { expected, actual } => write!(
                f,
                "delta base fingerprint {expected:016x} does not match live graph {actual:016x}"
            ),
            DeltaError::UnknownNode(t) => write!(f, "remove references unknown vertex {t:?}"),
            DeltaError::UnknownRelation(t) => {
                write!(f, "remove references unknown relation {t:?}")
            }
            DeltaError::MissingTriple { s, p, o } => {
                write!(f, "remove references missing triple ({s:?}, {p:?}, {o:?})")
            }
        }
    }
}

impl Error for DeltaError {}

/// The result of a successful [`apply_delta`].
#[derive(Debug, Clone)]
pub struct DeltaApplication {
    /// The patched graph. Base ids are all still valid (see module docs).
    pub kg: KnowledgeGraph,
    /// Multiset fingerprint of `kg`, maintained incrementally.
    pub multiset: MultisetFingerprint,
    /// Triples asserted by the delta, in the (stable) id space of `kg`.
    /// A triple both added and removed by one delta appears in both lists.
    pub added: Vec<Triple>,
    /// Triples retracted by the delta (one entry per retracted occurrence).
    pub removed: Vec<Triple>,
    /// Vertices interned by the delta (ids ≥ the base graph's node count).
    pub new_nodes: Vec<Vid>,
}

/// Applies `delta` to `kg`, returning the patched graph plus everything
/// downstream layers need to react incrementally (touched triples, new
/// vertices, updated multiset fingerprint).
///
/// `kg_fingerprint` is the caller's cached canonical fingerprint of `kg`
/// (so apply never pays an O(|KG|) hash); `multiset` is the matching
/// multiset fingerprint. Ops apply sequentially — a remove may retract a
/// triple added earlier in the same delta. Any failing op rejects the
/// whole delta and leaves `kg` untouched.
pub fn apply_delta(
    kg: &KnowledgeGraph,
    kg_fingerprint: u64,
    multiset: MultisetFingerprint,
    delta: &KgDelta,
) -> Result<DeltaApplication, DeltaError> {
    if delta.base_fingerprint != kg_fingerprint {
        return Err(DeltaError::BaseMismatch {
            expected: delta.base_fingerprint,
            actual: kg_fingerprint,
        });
    }

    let base_nodes = kg.num_nodes();
    let mut new = kg.clone();
    let mut ms = multiset;
    let mut added = Vec::new();
    let mut removed = Vec::new();

    // Live occurrence counts, built lazily on the first remove op: the
    // common add-only delta never pays the O(|T|) scan.
    let mut counts: Option<FxHashMap<Triple, u64>> = None;
    let mut to_remove: FxHashMap<Triple, u64> = FxHashMap::default();

    for op in &delta.ops {
        match op {
            DeltaOp::Add { s, s_class, p, o, o_class } => {
                let (nodes0, rels0, classes0) =
                    (new.num_nodes(), new.num_relations(), new.num_classes());
                let t = new.add_triple_terms(s, s_class, p, o, o_class);
                // Fold in any dictionary entries this op interned. Classes
                // are interned even when the vertex already existed (first
                // declaration wins for the vertex, but the term enters the
                // dictionary), which the canonical snapshot also records.
                for c in classes0..new.num_classes() {
                    ms.add(elem_hash(TAG_CLASS, &[new.class_term(crate::ids::Cid(c as u32))]));
                }
                for r in rels0..new.num_relations() {
                    ms.add(elem_hash(
                        TAG_RELATION,
                        &[new.relation_term(crate::ids::Rid(r as u32))],
                    ));
                }
                for v in nodes0..new.num_nodes() {
                    let v = Vid(v as u32);
                    let cls = new.class_term(new.class_of(v));
                    ms.add(elem_hash(TAG_NODE, &[new.node_term(v), cls]));
                }
                ms.add(triple_hash(&new, t));
                if let Some(c) = counts.as_mut() {
                    *c.entry(t).or_insert(0) += 1;
                }
                added.push(t);
            }
            DeltaOp::Remove { s, p, o } => {
                let sv = new
                    .find_node(s)
                    .ok_or_else(|| DeltaError::UnknownNode(s.clone()))?;
                let pr = new
                    .find_relation(p)
                    .ok_or_else(|| DeltaError::UnknownRelation(p.clone()))?;
                let ov = new
                    .find_node(o)
                    .ok_or_else(|| DeltaError::UnknownNode(o.clone()))?;
                let t = Triple::new(sv, pr, ov);
                let counts = counts.get_or_insert_with(|| {
                    let mut m: FxHashMap<Triple, u64> = FxHashMap::default();
                    for &t in new.triples() {
                        *m.entry(t).or_insert(0) += 1;
                    }
                    m
                });
                let live = counts.entry(t).or_insert(0);
                if *live == 0 {
                    return Err(DeltaError::MissingTriple {
                        s: s.clone(),
                        p: p.clone(),
                        o: o.clone(),
                    });
                }
                *live -= 1;
                ms.sub(triple_hash(&new, t));
                *to_remove.entry(t).or_insert(0) += 1;
                removed.push(t);
            }
        }
    }

    // Physically drop retracted occurrences in one retain pass. Which
    // occurrence of a duplicated triple goes is irrelevant: occurrences
    // are indistinguishable and the canonical snapshot sorts triples.
    if !to_remove.is_empty() {
        new.retain_triples(|t| match to_remove.get_mut(t) {
            Some(n) if *n > 0 => {
                *n -= 1;
                false
            }
            _ => true,
        });
    }

    let new_nodes = (base_nodes..new.num_nodes()).map(|v| Vid(v as u32)).collect();
    Ok(DeltaApplication { kg: new, multiset: ms, added, removed, new_nodes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint;

    fn base() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        kg.add_triple_terms("p1", "Paper", "cites", "p2", "Paper");
        kg.add_triple_terms("a1", "Author", "writes", "p1", "Paper");
        kg.add_triple_terms("p2", "Paper", "publishedIn", "v1", "Venue");
        kg
    }

    fn apply(kg: &KnowledgeGraph, ops: Vec<DeltaOp>) -> Result<DeltaApplication, DeltaError> {
        let delta = KgDelta { base_fingerprint: fingerprint(kg), ops };
        apply_delta(kg, fingerprint(kg), MultisetFingerprint::of(kg), &delta)
    }

    fn add(s: &str, sc: &str, p: &str, o: &str, oc: &str) -> DeltaOp {
        DeltaOp::Add {
            s: s.into(),
            s_class: sc.into(),
            p: p.into(),
            o: o.into(),
            o_class: oc.into(),
        }
    }

    fn remove(s: &str, p: &str, o: &str) -> DeltaOp {
        DeltaOp::Remove { s: s.into(), p: p.into(), o: o.into() }
    }

    #[test]
    fn codec_roundtrip() {
        let delta = KgDelta {
            base_fingerprint: 0xdead_beef_0123_4567,
            ops: vec![
                add("p3", "Paper", "cites", "p1", "Paper"),
                remove("a1", "writes", "p1"),
            ],
        };
        let mut buf = Vec::new();
        write_delta(&delta, &mut buf).unwrap();
        let back = read_delta(std::io::Cursor::new(&buf)).unwrap();
        assert_eq!(back, delta);
    }

    #[test]
    fn checksum_corruption_rejected() {
        let delta = KgDelta {
            base_fingerprint: 7,
            ops: vec![add("x", "T", "r", "y", "T")],
        };
        let mut buf = Vec::new();
        write_delta(&delta, &mut buf).unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 0x40;
        assert!(read_delta(std::io::Cursor::new(&buf)).is_err());
    }

    #[test]
    fn apply_tracks_multiset_and_canonical_fingerprint() {
        let kg = base();
        let app = apply(
            &kg,
            vec![
                add("p3", "Paper", "cites", "p1", "Paper"),
                add("a1", "Author", "writes", "p3", "Paper"),
                remove("p1", "cites", "p2"),
            ],
        )
        .unwrap();
        assert_eq!(app.multiset, MultisetFingerprint::of(&app.kg));
        assert_eq!(app.added.len(), 2);
        assert_eq!(app.removed.len(), 1);
        assert_eq!(app.new_nodes.len(), 1, "only p3 is new");

        // Canonical fingerprint of the patched graph equals a graph built
        // from scratch with the same final content (same intern order).
        let mut rebuilt = base();
        rebuilt.add_triple_terms("p3", "Paper", "cites", "p1", "Paper");
        rebuilt.add_triple_terms("a1", "Author", "writes", "p3", "Paper");
        let gone = *rebuilt.triples().first().unwrap();
        let mut dropped = false;
        rebuilt.retain_triples(|t| {
            if !dropped && *t == gone {
                dropped = true;
                false
            } else {
                true
            }
        });
        assert_eq!(fingerprint(&app.kg), fingerprint(&rebuilt));
    }

    #[test]
    fn remove_takes_one_occurrence() {
        let mut kg = base();
        let t = kg.triples()[0];
        kg.add_triple(t.s, t.p, t.o); // duplicate p1-cites-p2
        let app = apply(&kg, vec![remove("p1", "cites", "p2")]).unwrap();
        assert_eq!(app.kg.num_triples(), kg.num_triples() - 1);
        assert_eq!(app.multiset, MultisetFingerprint::of(&app.kg));
        // The other occurrence survives.
        assert!(app.kg.triples().contains(&t));
    }

    #[test]
    fn remove_of_added_triple_in_same_delta() {
        let kg = base();
        let app = apply(
            &kg,
            vec![
                add("p9", "Paper", "cites", "p1", "Paper"),
                remove("p9", "cites", "p1"),
            ],
        )
        .unwrap();
        // Net triple count unchanged; the new vertex remains interned.
        assert_eq!(app.kg.num_triples(), kg.num_triples());
        assert!(app.kg.find_node("p9").is_some());
        assert_eq!(app.multiset, MultisetFingerprint::of(&app.kg));
    }

    #[test]
    fn rejections_are_total() {
        let kg = base();
        let before = fingerprint(&kg);
        assert!(matches!(
            apply(&kg, vec![remove("ghost", "cites", "p1")]),
            Err(DeltaError::UnknownNode(_))
        ));
        assert!(matches!(
            apply(&kg, vec![remove("p1", "ghostrel", "p2")]),
            Err(DeltaError::UnknownRelation(_))
        ));
        assert!(matches!(
            apply(&kg, vec![remove("p1", "writes", "p2")]),
            Err(DeltaError::MissingTriple { .. })
        ));
        // A failing op after a successful one still rejects everything.
        assert!(apply(
            &kg,
            vec![add("pX", "Paper", "cites", "p1", "Paper"), remove("p1", "cites", "v1")]
        )
        .is_err());
        assert_eq!(fingerprint(&kg), before, "input graph is never modified");
    }

    #[test]
    fn base_mismatch_rejected() {
        let kg = base();
        let delta = KgDelta { base_fingerprint: 1, ops: vec![] };
        assert!(matches!(
            apply_delta(&kg, fingerprint(&kg), MultisetFingerprint::of(&kg), &delta),
            Err(DeltaError::BaseMismatch { .. })
        ));
    }

    #[test]
    fn first_class_declaration_wins_through_delta() {
        let kg = base();
        // p1 already has class Paper; the add's conflicting class only
        // interns the term, it does not re-type the vertex.
        let app = apply(&kg, vec![add("p1", "Imposter", "cites", "p2", "Paper")]).unwrap();
        let p1 = app.kg.find_node("p1").unwrap();
        assert_eq!(app.kg.class_term(app.kg.class_of(p1)), "Paper");
        assert!(app.kg.find_class("Imposter").is_some());
        assert_eq!(app.multiset, MultisetFingerprint::of(&app.kg));
    }
}
