//! The toy datasets of the trainer tests, defined once: the integration
//! tests pull this in as `mod common;` and the crate's unit tests as
//! `crate::testutil` (a `#[path]` include in `src/lib.rs`).
#![allow(dead_code)] // each test binary uses a subset

use kgtosa_kg::{KnowledgeGraph, Triple, Vid};
use kgtosa_tensor::IGNORE_LABEL;

/// A separable toy NC task: `papers` papers connect to exactly one of two
/// venues and the venue determines the label. Returns
/// `(kg, labels, paper_vertices)`.
pub fn toy_nc(papers: usize) -> (KnowledgeGraph, Vec<u32>, Vec<Vid>) {
    let mut kg = KnowledgeGraph::new();
    for i in 0..papers {
        let venue = if i % 2 == 0 { "v0" } else { "v1" };
        kg.add_triple_terms(&format!("p{i}"), "Paper", "publishedIn", venue, "Venue");
        // A second relation adds heterogeneity without changing the signal.
        kg.add_triple_terms(&format!("a{}", i % 5), "Author", "writes", &format!("p{i}"), "Paper");
    }
    let papers = kg.nodes_of_class(kg.find_class("Paper").unwrap());
    let mut labels = vec![IGNORE_LABEL; kg.num_nodes()];
    for &p in &papers {
        let term = kg.node_term(p);
        let i: usize = term[1..].parse().unwrap();
        labels[p.idx()] = (i % 2) as u32;
    }
    (kg, labels, papers)
}

/// A learnable toy LP task: authors work in departments, departments are
/// part of organisations, and `affiliatedWith(author, org)` follows from
/// the two-hop path. The last 6 affiliation triples are held out (not
/// added as graph edges) for validation/test.
///
/// Returns `(kg, affiliation_triples)` where the first `len - 6` triples
/// are training edges present in the graph.
pub fn toy_lp() -> (KnowledgeGraph, Vec<Triple>) {
    let mut kg = KnowledgeGraph::new();
    let aff = kg.add_relation("affiliatedWith");
    let mut triples = Vec::new();
    for o in 0..3 {
        let org = kg.add_node(&format!("org{o}"), "Org");
        for d in 0..2 {
            let dept = kg.add_node(&format!("dept{o}_{d}"), "Dept");
            let part_of = kg.add_relation("partOf");
            kg.add_triple(dept, part_of, org);
            for a in 0..5 {
                let author = kg.add_node(&format!("auth{o}_{d}_{a}"), "Author");
                let works_in = kg.add_relation("worksIn");
                kg.add_triple(author, works_in, dept);
                triples.push(Triple::new(author, aff, org));
            }
        }
    }
    // Deterministic interleave so held-out triples span all orgs.
    let held_out: Vec<Triple> = triples.iter().copied().skip(4).step_by(5).take(6).collect();
    let train: Vec<Triple> = triples
        .iter()
        .copied()
        .filter(|t| !held_out.contains(t))
        .collect();
    for t in &train {
        kg.add_triple(t.s, t.p, t.o);
    }
    let mut ordered = train;
    ordered.extend(held_out);
    (kg, ordered)
}
