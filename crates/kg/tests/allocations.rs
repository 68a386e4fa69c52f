//! A dictionary is a fixed number of buffers, not a box per term: cloning
//! a graph and compacting a subgraph make as many allocations at 10 k
//! vertices as at 1 k. Counted with the tracking allocator installed, so
//! this file holds one test and nothing else in its binary allocates while
//! it counts.

use kgtosa_kg::{subgraph_from_triples_and_nodes, KnowledgeGraph, Triple, Vid};
use kgtosa_memtrack::alloc_count;

#[global_allocator]
static ALLOC: kgtosa_memtrack::TrackingAllocator = kgtosa_memtrack::TrackingAllocator;

/// `n` vertices over four classes and three relations, three triples a
/// vertex, with terms of every length up to 40 bytes.
fn graph(n: u32) -> KnowledgeGraph {
    let mut kg = KnowledgeGraph::new();
    for v in 0..n {
        let term = format!("http://example.org/{}/{v}", "x".repeat(v as usize % 20));
        kg.add_node(&term, &format!("C{}", v % 4));
    }
    let relations = ["r0", "r1", "r2"].map(|r| kg.add_relation(r));
    kg.extend_triples(
        (0..n).flat_map(|v| {
            relations.map(|r| Triple::new(Vid(v), r, Vid((v * 7 + r.raw() + 1) % n)))
        }),
    );
    kg
}

/// Allocations `f` makes; what it returns is dropped after the count.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = alloc_count();
    let out = f();
    let made = alloc_count() - before;
    drop(out);
    made
}

#[test]
fn clone_and_compaction_allocate_a_fixed_number_of_times() {
    let counts: Vec<(u64, u64)> = [1_000, 10_000]
        .map(|n| {
            let kg = graph(n);
            // Every other triple, and an isolated extra vertex.
            let triples: Vec<Triple> = kg.triples().iter().step_by(2).copied().collect();
            let extra = [Vid(n - 1)];
            (
                allocations(|| kg.clone()),
                allocations(|| subgraph_from_triples_and_nodes(&kg, &triples, &extra)),
            )
        })
        .into();
    assert_eq!(
        counts[0], counts[1],
        "(clone, compaction) allocations at 1 k and 10 k vertices"
    );
}
