//! Triple add/remove deltas pinned to the fingerprint of the KG they apply to.
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
//! Dictionaries are append-only and removing a triple never drops a
//! vertex, so every vertex/relation/class id of the base graph is valid —
//! with the same meaning — in the patched graph. The
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
//! ## Set semantics, O(|T| + k log k)
//!
//! An add of a present triple is rejected like a remove of an absent one.
//! Membership is a binary search in the base plus an overlay of the
//! triples the delta touched; the result is one merge with the net change.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::fingerprint::Fnv64;
use crate::ids::Vid;
use crate::triples::{merge_sorted, KnowledgeGraph, Triple};

/// One term-level mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Assert a triple, interning any new vertices/relations/classes.
    /// The class terms only take effect when the vertex is new (first
    /// declaration wins, as at load time).
    Add { s: String, s_class: String, p: String, o: String, o_class: String },
    /// Retract a present triple. All three terms must already be
    /// interned and the triple must be present, otherwise the whole delta
    /// is rejected.
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
    /// A remove op referenced a triple that is not present.
    MissingTriple { s: String, p: String, o: String },
    /// An add op asserted a triple that is already present.
    DuplicateTriple { s: String, p: String, o: String },
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
            DeltaError::DuplicateTriple { s, p, o } => {
                write!(f, "add asserts present triple ({s:?}, {p:?}, {o:?})")
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
    /// Triples retracted by the delta, in op order.
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
/// triple added earlier in the same delta, and an add may re-assert one
/// removed earlier. Any failing op rejects the whole delta and leaves `kg`
/// untouched.
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
    // Whether each touched triple is present now (others are as in the
    // base). Ops come from outside: keep the collision-resistant hasher.
    let mut present: HashMap<Triple, bool> = HashMap::new();
    let in_base = |t: &Triple| kg.triples().binary_search(t).is_ok();

    for op in &delta.ops {
        match op {
            DeltaOp::Add { s, s_class, p, o, o_class } => {
                let (nodes0, rels0, classes0) =
                    (new.num_nodes(), new.num_relations(), new.num_classes());
                let t = Triple::new(
                    new.add_node(s, s_class),
                    new.add_relation(p),
                    new.add_node(o, o_class),
                );
                if present.insert(t, true).unwrap_or_else(|| in_base(&t)) {
                    return Err(DeltaError::DuplicateTriple {
                        s: s.clone(),
                        p: p.clone(),
                        o: o.clone(),
                    });
                }
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
                if !present.insert(t, false).unwrap_or_else(|| in_base(&t)) {
                    return Err(DeltaError::MissingTriple {
                        s: s.clone(),
                        p: p.clone(),
                        o: o.clone(),
                    });
                }
                ms.sub(triple_hash(&new, t));
                removed.push(t);
            }
        }
    }

    // The net change, [removed, added] against the base, in one merge.
    let mut net: [Vec<Triple>; 2] = Default::default();
    for (t, now) in present {
        if now != in_base(&t) {
            net[usize::from(now)].push(t);
        }
    }
    net.iter_mut().for_each(|run| run.sort_unstable());
    new.set_triples(merge_sorted(kg.triples(), &net[1], &net[0]));

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
        let gone = Triple::new(
            rebuilt.find_node("p1").unwrap(),
            rebuilt.find_relation("cites").unwrap(),
            rebuilt.find_node("p2").unwrap(),
        );
        assert!(rebuilt.remove_triple(gone));
        assert_eq!(app.kg.triples(), rebuilt.triples());
        assert_eq!(fingerprint(&app.kg), fingerprint(&rebuilt));
    }

    #[test]
    fn add_of_a_present_triple_rejects_the_delta() {
        let kg = base();
        let before = kg.triples().to_vec();
        let err = apply(
            &kg,
            vec![add("p9", "Paper", "cites", "p1", "Paper"), add("p1", "Paper", "cites", "p2", "Paper")],
        )
        .unwrap_err();
        assert!(matches!(err, DeltaError::DuplicateTriple { .. }), "{err}");
        // Re-adding within one delta is a duplicate too.
        assert!(matches!(
            apply(
                &kg,
                vec![add("p9", "Paper", "cites", "p1", "Paper"), add("p9", "Paper", "cites", "p1", "Paper")]
            ),
            Err(DeltaError::DuplicateTriple { .. })
        ));
        assert_eq!(kg.triples(), before, "the base is untouched");
    }

    #[test]
    fn remove_then_add_of_one_triple_applies() {
        let kg = base();
        let app = apply(
            &kg,
            vec![remove("p1", "cites", "p2"), add("p1", "Paper", "cites", "p2", "Paper")],
        )
        .unwrap();
        assert_eq!(app.kg.triples(), kg.triples());
        assert_eq!(fingerprint(&app.kg), fingerprint(&kg));
        assert_eq!((app.added.len(), app.removed.len()), (1, 1));
        assert_eq!(app.multiset, MultisetFingerprint::of(&kg));
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
        // Triples unchanged; the new vertex remains interned.
        assert_eq!(app.kg.triples(), kg.triples());
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
        let app = apply(&kg, vec![add("p1", "Imposter", "cites", "p3", "Paper")]).unwrap();
        let p1 = app.kg.find_node("p1").unwrap();
        assert_eq!(app.kg.class_term(app.kg.class_of(p1)), "Paper");
        assert!(app.kg.find_class("Imposter").is_some());
        assert_eq!(app.multiset, MultisetFingerprint::of(&app.kg));
    }
}
