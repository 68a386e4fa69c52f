//! Term encoding and the triple store facade over a [`KnowledgeGraph`].
//!
//! The RDF view of a knowledge graph needs one addition over the raw triple
//! list: *type assertions*. Class membership is stored out-of-band in
//! [`KnowledgeGraph`] but SPARQL queries anchor target vertices with
//! `?v rdf:type <Class>` patterns, so the store materializes one synthetic
//! `rdf:type` triple per vertex.
//!
//! ## Id spaces
//!
//! * subject/object position: vertex ids `0..N`, then classes encoded as
//!   `N + cid` (classes appear as objects of `rdf:type`),
//! * predicate position: relation ids `0..R`, then `R` = `rdf:type`.

use std::ops::Deref;
use std::sync::Arc;

use kgtosa_kg::{Cid, KnowledgeGraph, Rid, Triple, Vid};

use crate::hexastore::Hexastore;

/// The reserved predicate term recognized as `rdf:type` (also `a` in
/// queries).
pub const RDF_TYPE: &str = "rdf:type";

/// A decoded subject/object term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeTerm {
    /// A graph vertex.
    Node(Vid),
    /// A class constant (object of `rdf:type`).
    Class(Cid),
}

/// How a store holds the graph it indexes: borrowed when the store lives
/// in the frame that owns the graph, shared when it must outlive every
/// frame (a daemon epoch). Either way the graph is indexed in place.
enum KgHolder<'kg> {
    Borrowed(&'kg KnowledgeGraph),
    Shared(Arc<KnowledgeGraph>),
}

impl Deref for KgHolder<'_> {
    type Target = KnowledgeGraph;

    #[inline]
    fn deref(&self) -> &KnowledgeGraph {
        match self {
            KgHolder::Borrowed(kg) => kg,
            KgHolder::Shared(kg) => kg,
        }
    }
}

/// An immutable, five-way-indexed RDF store over a knowledge graph.
pub struct RdfStore<'kg> {
    kg: KgHolder<'kg>,
    hex: Hexastore,
    num_nodes: u32,
    num_relations: u32,
}

impl RdfStore<'static> {
    /// [`RdfStore::new`] over a graph the store co-owns: the graph lives
    /// until the store and every other holder of the `Arc` are dropped.
    pub fn shared(kg: Arc<KnowledgeGraph>) -> Self {
        Self::build(KgHolder::Shared(kg))
    }
}

impl<'kg> RdfStore<'kg> {
    /// Builds the store: copies all data triples, adds `rdf:type`
    /// assertions, and constructs the five orderings.
    pub fn new(kg: &'kg KnowledgeGraph) -> Self {
        Self::build(KgHolder::Borrowed(kg))
    }

    fn build(kg: KgHolder<'kg>) -> Self {
        let num_nodes = kg.num_nodes() as u32;
        let num_relations = kg.num_relations() as u32;
        let type_rel = num_relations;
        let mut raw: Vec<[u32; 3]> = Vec::with_capacity(kg.num_triples() + kg.num_nodes());
        for t in kg.triples() {
            raw.push(t.raw());
        }
        for v in 0..num_nodes {
            let class = kg.class_of(Vid(v));
            raw.push([v, type_rel, num_nodes + class.raw()]);
        }
        Self {
            kg,
            hex: Hexastore::from_triples(raw),
            num_nodes,
            num_relations,
        }
    }

    /// The underlying knowledge graph.
    pub fn kg(&self) -> &KnowledgeGraph {
        &self.kg
    }

    /// The triple index.
    pub fn hexastore(&self) -> &Hexastore {
        &self.hex
    }

    /// Encoded id of the synthetic `rdf:type` predicate.
    #[inline]
    pub fn rdf_type_id(&self) -> u32 {
        self.num_relations
    }

    /// Encodes a vertex for subject/object position.
    #[inline]
    pub fn encode_node(&self, v: Vid) -> u32 {
        v.raw()
    }

    /// Encodes a class constant for object position.
    #[inline]
    pub fn encode_class(&self, c: Cid) -> u32 {
        self.num_nodes + c.raw()
    }

    /// Decodes a subject/object id.
    #[inline]
    pub fn decode_node(&self, id: u32) -> NodeTerm {
        if id < self.num_nodes {
            NodeTerm::Node(Vid(id))
        } else {
            NodeTerm::Class(Cid(id - self.num_nodes))
        }
    }

    /// Resolves a term string in subject/object position. Vertices shadow
    /// classes on name collision (unlikely: different namespaces).
    pub fn resolve_node_term(&self, term: &str) -> Option<u32> {
        if let Some(v) = self.kg.find_node(term) {
            return Some(self.encode_node(v));
        }
        self.kg.find_class(term).map(|c| self.encode_class(c))
    }

    /// Resolves a term string in predicate position. `rdf:type` and `a`
    /// resolve to the synthetic type predicate.
    pub fn resolve_pred_term(&self, term: &str) -> Option<u32> {
        if term == RDF_TYPE || term == "a" {
            return Some(self.rdf_type_id());
        }
        self.kg.find_relation(term).map(Rid::raw)
    }

    /// Renders a subject/object id back to its term string.
    pub fn node_term_str(&self, id: u32) -> &str {
        match self.decode_node(id) {
            NodeTerm::Node(v) => self.kg.node_term(v),
            NodeTerm::Class(c) => self.kg.class_term(c),
        }
    }

    /// Renders a predicate id back to its term string.
    pub fn pred_term_str(&self, id: u32) -> &str {
        if id == self.rdf_type_id() {
            RDF_TYPE
        } else {
            self.kg.relation_term(Rid(id))
        }
    }

    /// Converts an encoded `(s, p, o)` row back into a *data* triple,
    /// returning `None` for synthetic `rdf:type` rows — extraction keeps
    /// only real KG edges; typing is reattached by the subgraph compactor.
    pub fn to_data_triple(&self, s: u32, p: u32, o: u32) -> Option<Triple> {
        if p >= self.num_relations || s >= self.num_nodes || o >= self.num_nodes {
            return None;
        }
        Some(Triple::new(Vid(s), Rid(p), Vid(o)))
    }

    /// Total triples indexed (data + type assertions).
    pub fn len(&self) -> usize {
        self.hex.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.hex.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kg() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        kg.add_triple_terms("p1", "Paper", "publishedIn", "v1", "Venue");
        kg.add_triple_terms("a1", "Author", "writes", "p1", "Paper");
        kg
    }

    #[test]
    fn type_triples_materialized() {
        let kg = kg();
        let store = RdfStore::new(&kg);
        // 2 data triples + 3 type assertions.
        assert_eq!(store.len(), 5);
        let paper = kg.find_class("Paper").unwrap();
        let matches: Vec<_> = store
            .hexastore()
            .scan(None, Some(store.rdf_type_id()), Some(store.encode_class(paper)))
            .collect();
        assert_eq!(matches.len(), 1);
        assert_eq!(store.node_term_str(matches[0][0]), "p1");
    }

    #[test]
    fn encode_decode_roundtrip() {
        let kg = kg();
        let store = RdfStore::new(&kg);
        let v = kg.find_node("a1").unwrap();
        assert_eq!(store.decode_node(store.encode_node(v)), NodeTerm::Node(v));
        let c = kg.find_class("Venue").unwrap();
        assert_eq!(store.decode_node(store.encode_class(c)), NodeTerm::Class(c));
    }

    #[test]
    fn resolve_terms() {
        let kg = kg();
        let store = RdfStore::new(&kg);
        assert!(store.resolve_node_term("p1").is_some());
        assert!(store.resolve_node_term("Paper").is_some());
        assert_eq!(store.resolve_node_term("missing"), None);
        assert_eq!(store.resolve_pred_term("a"), Some(store.rdf_type_id()));
        assert_eq!(store.resolve_pred_term(RDF_TYPE), Some(store.rdf_type_id()));
        assert!(store.resolve_pred_term("writes").is_some());
    }

    #[test]
    fn data_triple_filtering() {
        let kg = kg();
        let store = RdfStore::new(&kg);
        let t = kg.triples()[0];
        assert_eq!(
            store.to_data_triple(t.s.raw(), t.p.raw(), t.o.raw()),
            Some(t)
        );
        // A type row decodes to None.
        let paper = kg.find_class("Paper").unwrap();
        assert_eq!(
            store.to_data_triple(0, store.rdf_type_id(), store.encode_class(paper)),
            None
        );
    }

    #[test]
    fn term_strings_roundtrip() {
        let kg = kg();
        let store = RdfStore::new(&kg);
        let id = store.resolve_node_term("v1").unwrap();
        assert_eq!(store.node_term_str(id), "v1");
        assert_eq!(store.pred_term_str(store.rdf_type_id()), RDF_TYPE);
    }
}
