//! Vertex sets and induced-subgraph extraction.
//!
//! Every TOSG extraction method in the paper ends with
//! `extractSubgraph(V_s, KG)`: take the sampled vertex set and keep all
//! triples whose endpoints both fall inside it (Algorithm 1 line 7,
//! Algorithm 2 line 5). [`NodeSet`] provides O(1) membership over dense
//! vertex ids and [`induced_subgraph`] performs the extraction with compact
//! re-indexing so downstream training sees a small, dense id space.

use std::borrow::Cow;

use crate::ids::{Cid, Rid, Vid};
use crate::triples::{KnowledgeGraph, Triple};

/// A fixed-capacity bitset over vertex ids.
#[derive(Debug, Clone)]
pub struct NodeSet {
    bits: Vec<u64>,
    len: usize,
    capacity: usize,
}

impl NodeSet {
    /// Creates an empty set able to hold ids `0..n`.
    pub fn new(n: usize) -> Self {
        Self {
            bits: vec![0u64; n.div_ceil(64)],
            len: 0,
            capacity: n,
        }
    }

    /// Builds a set from an iterator of vertices.
    pub fn from_iter(n: usize, vs: impl IntoIterator<Item = Vid>) -> Self {
        let mut set = Self::new(n);
        for v in vs {
            set.insert(v);
        }
        set
    }

    /// Inserts `v`; returns `true` if it was newly added.
    #[inline]
    pub fn insert(&mut self, v: Vid) -> bool {
        let (word, bit) = (v.idx() / 64, v.idx() % 64);
        let mask = 1u64 << bit;
        let fresh = self.bits[word] & mask == 0;
        self.bits[word] |= mask;
        self.len += fresh as usize;
        fresh
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: Vid) -> bool {
        let (word, bit) = (v.idx() / 64, v.idx() % 64);
        self.bits
            .get(word)
            .is_some_and(|w| w & (1u64 << bit) != 0)
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum id capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = Vid> + '_ {
        self.bits.iter().enumerate().flat_map(|(wi, &w)| {
            let base = (wi * 64) as u32;
            BitIter { word: w, base }
        })
    }
}

struct BitIter {
    word: u64,
    base: u32,
}

impl Iterator for BitIter {
    type Item = Vid;

    #[inline]
    fn next(&mut self) -> Option<Vid> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(Vid(self.base + tz))
    }
}

/// The result of extracting and compacting an induced subgraph.
#[derive(Debug, Clone)]
pub struct InducedSubgraph {
    /// The compacted subgraph (`KG'` in the paper). Relation and class id
    /// spaces are re-interned so `|R'|`, `|C'|` reflect only what survives.
    pub kg: KnowledgeGraph,
    /// For each new vertex id, its id in the parent graph.
    pub to_parent: Vec<Vid>,
    /// For each parent vertex, its new id (or `None` if dropped).
    pub from_parent: Vec<Option<Vid>>,
}

impl InducedSubgraph {
    /// Maps a parent vertex into the subgraph.
    pub fn map_down(&self, parent: Vid) -> Option<Vid> {
        self.from_parent.get(parent.idx()).copied().flatten()
    }

    /// Maps a subgraph vertex back to the parent graph.
    pub fn map_up(&self, sub: Vid) -> Vid {
        self.to_parent[sub.idx()]
    }
}

/// Extracts the subgraph of `kg` induced by `keep`: all kept vertices plus
/// every triple with both endpoints kept. Terms are preserved; ids are
/// compacted.
pub fn induced_subgraph(kg: &KnowledgeGraph, keep: &NodeSet) -> InducedSubgraph {
    assert!(
        keep.capacity() >= kg.num_nodes(),
        "node set too small for graph"
    );
    compact(kg, keep, kg.triples(), kg.num_triples() / 4)
}

/// Builds a compacted subgraph directly from a set of parent triples (used
/// by the SPARQL extraction path, whose output is a triple stream rather
/// than a vertex set). `extra_nodes` are retained even when no triple
/// touches them (e.g. isolated target vertices, which must stay visible to
/// the training task). The triples are kept sorted and deduplicated; input
/// that already is (strictly ascending) is used as it is.
pub fn subgraph_from_triples_and_nodes(
    kg: &KnowledgeGraph,
    triples: &[Triple],
    extra_nodes: &[Vid],
) -> InducedSubgraph {
    let mut keep = NodeSet::new(kg.num_nodes());
    for t in triples {
        keep.insert(t.s);
        keep.insert(t.o);
    }
    for &v in extra_nodes {
        keep.insert(v);
    }
    let sorted = sorted_unique(triples);
    compact(kg, &keep, &sorted, sorted.len())
}

/// `triples` strictly ascending: borrowed when it already is, otherwise
/// sorted and deduplicated into a copy.
pub fn sorted_unique(triples: &[Triple]) -> Cow<'_, [Triple]> {
    if triples.windows(2).all(|w| w[0] < w[1]) {
        return Cow::Borrowed(triples);
    }
    let mut sorted = triples.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    Cow::Owned(sorted)
}

/// The one compaction both extractors end in: the kept vertices in
/// ascending parent id, then every given triple whose endpoints are kept.
/// Classes and relations are re-interned in order of first use, through
/// parent-id tables rather than term lookups; every term is new to `KG'`,
/// so it is appended without a lookup. The node dictionary is sized
/// exactly from the parent's term offsets first, so its arena is one
/// allocation and no buffer of it grows. `triples` ascend and the vertex map
/// is monotone, so only the relation map can disorder the kept triples,
/// and only within a subject's run: sorting each run restores the order.
fn compact(
    kg: &KnowledgeGraph,
    keep: &NodeSet,
    triples: &[Triple],
    triple_capacity: usize,
) -> InducedSubgraph {
    let term_bytes = keep.iter().map(|v| kg.node_term_len(v)).sum();
    let mut sub = KnowledgeGraph::with_node_terms(keep.len(), term_bytes);
    let mut kept = Vec::with_capacity(triple_capacity);
    let mut from_parent: Vec<Option<Vid>> = vec![None; kg.num_nodes()];
    let mut to_parent: Vec<Vid> = Vec::with_capacity(keep.len());
    let mut classes: Vec<Option<Cid>> = vec![None; kg.num_classes()];
    for v in keep.iter() {
        let c = kg.class_of(v);
        let class = *classes[c.idx()].get_or_insert_with(|| sub.push_class(kg.class_term(c)));
        from_parent[v.idx()] = Some(sub.push_node(kg.node_term(v), class));
        to_parent.push(v);
    }
    let mut relations: Vec<Option<Rid>> = vec![None; kg.num_relations()];
    for t in triples {
        if let (Some(s), Some(o)) = (from_parent[t.s.idx()], from_parent[t.o.idx()]) {
            let p = *relations[t.p.idx()]
                .get_or_insert_with(|| sub.push_relation(kg.relation_term(t.p)));
            kept.push(Triple::new(s, p, o));
        }
    }
    sort_subject_runs(&mut kept);
    sub.set_triples(kept);
    InducedSubgraph {
        kg: sub,
        to_parent,
        from_parent,
    }
}

/// Sorts triples that ascend by subject, relabelled through a monotone
/// vertex map and a relation map that is not, by sorting each subject's
/// run: the only order such a relabelling can change. A run that still
/// ascends costs one scan.
pub fn sort_subject_runs(triples: &mut [Triple]) {
    for run in triples.chunk_by_mut(|a, b| a.s == b.s) {
        if !run.is_sorted() {
            run.sort_unstable();
        }
    }
}

/// Remaps a set of parent-graph target vertices into subgraph ids, dropping
/// any that were not retained.
pub fn map_targets(sub: &InducedSubgraph, targets: &[Vid]) -> Vec<Vid> {
    targets.iter().filter_map(|&v| sub.map_down(v)).collect()
}

/// Classes referenced by at least one vertex of `kg` (i.e. `|C'|` counting
/// only live classes, as reported in Table III).
pub fn live_classes(kg: &KnowledgeGraph) -> usize {
    let mut seen = vec![false; kg.num_classes()];
    for &c in kg.node_classes() {
        seen[c.idx()] = true;
    }
    seen.iter().filter(|&&b| b).count()
}

/// Relations referenced by at least one triple of `kg` (`|R'|`).
pub fn live_relations(kg: &KnowledgeGraph) -> usize {
    let mut seen = vec![false; kg.num_relations()];
    for t in kg.triples() {
        seen[t.p.idx()] = true;
    }
    seen.iter().filter(|&&b| b).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_kg() -> KnowledgeGraph {
        // a -r-> b -r-> c -s-> d
        let mut kg = KnowledgeGraph::new();
        kg.add_triple_terms("a", "A", "r", "b", "B");
        kg.add_triple_terms("b", "B", "r", "c", "C");
        kg.add_triple_terms("c", "C", "s", "d", "D");
        kg
    }

    #[test]
    fn nodeset_insert_contains_len() {
        let mut s = NodeSet::new(130);
        assert!(s.insert(Vid(0)));
        assert!(s.insert(Vid(129)));
        assert!(!s.insert(Vid(0)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(Vid(129)));
        assert!(!s.contains(Vid(64)));
    }

    #[test]
    fn nodeset_iter_ascending() {
        let s = NodeSet::from_iter(200, [Vid(5), Vid(64), Vid(199), Vid(5)]);
        let got: Vec<u32> = s.iter().map(|v| v.raw()).collect();
        assert_eq!(got, vec![5, 64, 199]);
    }

    #[test]
    fn induced_subgraph_keeps_internal_triples_only() {
        let kg = chain_kg();
        let keep = NodeSet::from_iter(
            kg.num_nodes(),
            ["a", "b", "c"].iter().map(|t| kg.find_node(t).unwrap()),
        );
        let sub = induced_subgraph(&kg, &keep);
        assert_eq!(sub.kg.num_nodes(), 3);
        // a->b and b->c survive; c->d is cut.
        assert_eq!(sub.kg.num_triples(), 2);
        assert_eq!(live_relations(&sub.kg), 1);
    }

    #[test]
    fn mapping_roundtrips() {
        let kg = chain_kg();
        let b = kg.find_node("b").unwrap();
        let keep = NodeSet::from_iter(kg.num_nodes(), [b]);
        let sub = induced_subgraph(&kg, &keep);
        let down = sub.map_down(b).unwrap();
        assert_eq!(sub.map_up(down), b);
        assert_eq!(sub.kg.node_term(down), "b");
        let a = kg.find_node("a").unwrap();
        assert_eq!(sub.map_down(a), None);
    }

    #[test]
    fn subgraph_from_triples_dedups() {
        let kg = chain_kg();
        let t = kg.triples()[0];
        let d = kg.find_node("d").unwrap();
        let sub = subgraph_from_triples_and_nodes(&kg, &[t, t, kg.triples()[1]], &[d]);
        assert_eq!(sub.kg.num_triples(), 2);
        // a, b, c from the triples plus the isolated extra node d.
        assert_eq!(sub.kg.num_nodes(), 4);
        assert!(sub.map_down(d).is_some());
        // Terms are found again through the compacted dictionaries.
        assert_eq!(sub.kg.find_node("d"), sub.map_down(d));
        assert!(sub.kg.find_class("D").is_some() && sub.kg.find_relation("r").is_some());
    }

    #[test]
    fn live_counts_ignore_dead_ids() {
        let kg = chain_kg();
        assert_eq!(live_classes(&kg), 4);
        assert_eq!(live_relations(&kg), 2);
    }

    #[test]
    fn map_targets_filters_dropped() {
        let kg = chain_kg();
        let a = kg.find_node("a").unwrap();
        let d = kg.find_node("d").unwrap();
        let keep = NodeSet::from_iter(kg.num_nodes(), [a]);
        let sub = induced_subgraph(&kg, &keep);
        let mapped = map_targets(&sub, &[a, d]);
        assert_eq!(mapped.len(), 1);
    }
}
