//! The knowledge-graph container: interned terms, typed vertices, triples.
//!
//! Follows Definition 2.1 of the paper: `KG = (V, C, L, R, T)` where every
//! vertex has a class in `C` and every triple `(s, p, o)` connects a subject
//! vertex to an object vertex or literal via a predicate in `R`. Literals are
//! modelled as vertices carrying the reserved class [`KnowledgeGraph::LITERAL_CLASS`],
//! which keeps all traversal code uniform while still letting statistics and
//! extraction distinguish them.

use crate::dict::Dictionary;
use crate::ids::{Cid, Rid, Vid};

/// A single `(subject, predicate, object)` edge with interned ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triple {
    /// Subject vertex.
    pub s: Vid,
    /// Predicate (relation).
    pub p: Rid,
    /// Object vertex (entity or literal vertex).
    pub o: Vid,
}

impl Triple {
    /// Creates a triple from raw ids.
    #[inline]
    pub const fn new(s: Vid, p: Rid, o: Vid) -> Self {
        Self { s, p, o }
    }

    /// Returns the triple as a `[s, p, o]` raw array (used by the hexastore).
    #[inline]
    pub const fn raw(self) -> [u32; 3] {
        [self.s.0, self.p.0, self.o.0]
    }
}

/// An in-memory heterogeneous knowledge graph.
///
/// Vertices, relations and classes each have their own dense id space backed
/// by a [`Dictionary`]. Triples are stored as a flat `Vec` in insertion
/// order; graph views (CSR adjacency, hexastore indices) are built on demand
/// by [`crate::graph::HeteroGraph`] and `kgtosa-rdf`.
#[derive(Debug, Default, Clone)]
pub struct KnowledgeGraph {
    nodes: Dictionary,
    relations: Dictionary,
    classes: Dictionary,
    node_class: Vec<Cid>,
    triples: Vec<Triple>,
}

impl KnowledgeGraph {
    /// Reserved class name assigned to literal vertices.
    pub const LITERAL_CLASS: &'static str = "__literal__";

    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph preallocating for `nodes` vertices and
    /// `triples` edges.
    pub fn with_capacity(nodes: usize, triples: usize) -> Self {
        Self {
            nodes: Dictionary::with_capacity(nodes),
            relations: Dictionary::new(),
            classes: Dictionary::new(),
            node_class: Vec::with_capacity(nodes),
            triples: Vec::with_capacity(triples),
        }
    }

    /// Interns (or finds) a vertex with the given term and class.
    ///
    /// If the vertex already exists its class is left unchanged — the first
    /// declaration wins, mirroring `rdf:type` assertions at load time.
    pub fn add_node(&mut self, term: &str, class: &str) -> Vid {
        let cid = Cid(self.classes.intern(class));
        let vid = self.nodes.intern(term);
        if vid as usize == self.node_class.len() {
            self.node_class.push(cid);
        }
        Vid(vid)
    }

    /// Interns a literal vertex (class [`Self::LITERAL_CLASS`]).
    pub fn add_literal(&mut self, value: &str) -> Vid {
        self.add_node(value, Self::LITERAL_CLASS)
    }

    /// Interns (or finds) a relation.
    pub fn add_relation(&mut self, term: &str) -> Rid {
        Rid(self.relations.intern(term))
    }

    /// Interns (or finds) a class without creating any vertex.
    pub fn add_class(&mut self, term: &str) -> Cid {
        Cid(self.classes.intern(term))
    }

    /// Appends a triple between already-created vertices.
    ///
    /// # Panics
    /// Panics in debug builds if any id is out of range.
    pub fn add_triple(&mut self, s: Vid, p: Rid, o: Vid) {
        debug_assert!(s.idx() < self.node_class.len(), "subject out of range");
        debug_assert!(o.idx() < self.node_class.len(), "object out of range");
        debug_assert!((p.idx()) < self.relations.len(), "relation out of range");
        self.triples.push(Triple::new(s, p, o));
    }

    /// Convenience: intern all three terms and append the triple. The
    /// subject and object classes are only used when the vertex is new.
    pub fn add_triple_terms(
        &mut self,
        s: &str,
        s_class: &str,
        p: &str,
        o: &str,
        o_class: &str,
    ) -> Triple {
        let s = self.add_node(s, s_class);
        let p = self.add_relation(p);
        let o = self.add_node(o, o_class);
        self.add_triple(s, p, o);
        Triple::new(s, p, o)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Number of vertices (entities + literals).
    pub fn num_nodes(&self) -> usize {
        self.node_class.len()
    }

    /// Number of distinct relations (edge types), `|R|`.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// Number of distinct classes (node types), `|C|`.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Number of triples, `|T|`.
    pub fn num_triples(&self) -> usize {
        self.triples.len()
    }

    /// The class of a vertex.
    #[inline]
    pub fn class_of(&self, v: Vid) -> Cid {
        self.node_class[v.idx()]
    }

    /// Slice of all vertex classes, indexed by vertex id.
    pub fn node_classes(&self) -> &[Cid] {
        &self.node_class
    }

    /// All triples in insertion order.
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// Vertex term for an id.
    pub fn node_term(&self, v: Vid) -> &str {
        self.nodes.resolve(v.0)
    }

    /// Relation term for an id.
    pub fn relation_term(&self, r: Rid) -> &str {
        self.relations.resolve(r.0)
    }

    /// Class term for an id.
    pub fn class_term(&self, c: Cid) -> &str {
        self.classes.resolve(c.0)
    }

    /// Looks up a vertex by term.
    pub fn find_node(&self, term: &str) -> Option<Vid> {
        self.nodes.get(term).map(Vid)
    }

    /// Looks up a relation by term.
    pub fn find_relation(&self, term: &str) -> Option<Rid> {
        self.relations.get(term).map(Rid)
    }

    /// Looks up a class by term.
    pub fn find_class(&self, term: &str) -> Option<Cid> {
        self.classes.get(term).map(Cid)
    }

    /// All vertices of a given class, in id order.
    pub fn nodes_of_class(&self, c: Cid) -> Vec<Vid> {
        self.node_class
            .iter()
            .enumerate()
            .filter(|(_, &cls)| cls == c)
            .map(|(i, _)| Vid(i as u32))
            .collect()
    }

    /// Number of vertices per class, indexed by class id.
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.num_classes()];
        for &c in &self.node_class {
            hist[c.idx()] += 1;
        }
        hist
    }

    /// The class id of literal vertices, if any literal was added.
    pub fn literal_class(&self) -> Option<Cid> {
        self.find_class(Self::LITERAL_CLASS)
    }

    /// Iterates `(id, term)` for every relation.
    pub fn relations(&self) -> impl Iterator<Item = (Rid, &str)> {
        self.relations.iter().map(|(i, s)| (Rid(i), s))
    }

    /// Iterates `(id, term)` for every class.
    pub fn classes(&self) -> impl Iterator<Item = (Cid, &str)> {
        self.classes.iter().map(|(i, s)| (Cid(i), s))
    }

    /// Keeps only the triples for which `f` returns `true`, preserving
    /// insertion order. Vertices, relations and classes are never removed:
    /// dictionaries are append-only so ids stay stable across mutations
    /// (the delta layer depends on this to patch extracted subgraphs
    /// without remapping).
    pub fn retain_triples(&mut self, f: impl FnMut(&Triple) -> bool) {
        self.triples.retain(f);
    }

    /// Sorts and deduplicates the triple list in place, returning the number
    /// of duplicates removed. Mirrors the `dropDuplicates` step of
    /// Algorithm 3 in the paper.
    pub fn dedup_triples(&mut self) -> usize {
        let before = self.triples.len();
        self.triples.sort_unstable();
        self.triples.dedup();
        before - self.triples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        kg.add_triple_terms("p1", "Paper", "publishedIn", "v1", "Venue");
        kg.add_triple_terms("a1", "Author", "writes", "p1", "Paper");
        kg
    }

    #[test]
    fn counts_reflect_inserts() {
        let kg = tiny();
        assert_eq!(kg.num_nodes(), 3);
        assert_eq!(kg.num_relations(), 2);
        assert_eq!(kg.num_classes(), 3);
        assert_eq!(kg.num_triples(), 2);
    }

    #[test]
    fn first_class_declaration_wins() {
        let mut kg = KnowledgeGraph::new();
        let v1 = kg.add_node("x", "A");
        let v2 = kg.add_node("x", "B");
        assert_eq!(v1, v2);
        assert_eq!(kg.class_term(kg.class_of(v1)), "A");
        // "B" was still interned as a class.
        assert_eq!(kg.num_classes(), 2);
    }

    #[test]
    fn literal_vertices_get_reserved_class() {
        let mut kg = KnowledgeGraph::new();
        let l = kg.add_literal("2024");
        assert_eq!(kg.class_term(kg.class_of(l)), KnowledgeGraph::LITERAL_CLASS);
        assert_eq!(kg.literal_class(), Some(kg.class_of(l)));
    }

    #[test]
    fn nodes_of_class_filters() {
        let kg = tiny();
        let paper = kg.find_class("Paper").unwrap();
        let papers = kg.nodes_of_class(paper);
        assert_eq!(papers.len(), 1);
        assert_eq!(kg.node_term(papers[0]), "p1");
    }

    #[test]
    fn class_histogram_sums_to_node_count() {
        let kg = tiny();
        let hist = kg.class_histogram();
        assert_eq!(hist.iter().sum::<usize>(), kg.num_nodes());
    }

    #[test]
    fn dedup_removes_duplicates() {
        let mut kg = tiny();
        let t = kg.triples()[0];
        kg.add_triple(t.s, t.p, t.o);
        assert_eq!(kg.num_triples(), 3);
        assert_eq!(kg.dedup_triples(), 1);
        assert_eq!(kg.num_triples(), 2);
    }

    #[test]
    fn term_lookups_roundtrip() {
        let kg = tiny();
        let v = kg.find_node("a1").unwrap();
        assert_eq!(kg.node_term(v), "a1");
        let r = kg.find_relation("writes").unwrap();
        assert_eq!(kg.relation_term(r), "writes");
        assert_eq!(kg.find_node("nope"), None);
    }

    #[test]
    fn raw_triple_layout() {
        let t = Triple::new(Vid(1), Rid(2), Vid(3));
        assert_eq!(t.raw(), [1, 2, 3]);
    }
}
