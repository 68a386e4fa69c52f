//! The knowledge graph is a sorted set, and the store's orderings are its
//! adjacency: every generated dataset's triples are strictly ascending,
//! N-Triples round trips keep them so, the store built from the graph's
//! own order equals one sorted from scratch, and each `HeteroGraph` row is
//! a range of the store's PSO or POS ordering, row order included.

use std::io::Cursor;

use kgtosa_datagen::{all_datasets, dblp, mag, Dataset};
use kgtosa_kg::{HeteroGraph, KnowledgeGraph, Rid, Triple, Vid};
use kgtosa_rdf::{read_ntriples, write_ntriples, Hexastore, RdfStore};

/// The golden gate's scale and seed.
const SCALE: f64 = 0.01;
const SEED: u64 = 7;

fn strictly_ascending(triples: &[Triple]) -> bool {
    triples.windows(2).all(|w| w[0] < w[1])
}

#[test]
fn every_generated_dataset_is_a_sorted_set() {
    for ds in all_datasets(SCALE, SEED) {
        let kg = &ds.gen.kg;
        assert!(strictly_ascending(kg.triples()), "{}", ds.gen.spec.name);
        assert!(kg.num_triples() > 0, "{}", ds.gen.spec.name);
    }
}

#[test]
fn ntriples_round_trip_is_a_sorted_set() {
    for ds in all_datasets(SCALE, SEED) {
        let kg = &ds.gen.kg;
        let mut doc = Vec::new();
        write_ntriples(kg, &mut doc).unwrap();
        let back = read_ntriples(Cursor::new(&doc)).unwrap();
        assert!(strictly_ascending(back.triples()), "{}", ds.gen.spec.name);
        assert_eq!(back.num_triples(), kg.num_triples(), "{}", ds.gen.spec.name);
        // Every statement twice reads as the same graph.
        doc.extend_from_within(..);
        let twice = read_ntriples(Cursor::new(&doc)).unwrap();
        assert_eq!(twice.triples(), back.triples(), "{}", ds.gen.spec.name);
    }
}

/// The store's rows as `Hexastore::build` sorts them from scratch: the
/// data triples and one `rdf:type` row per vertex, type rows first.
fn sorted_from_scratch(kg: &KnowledgeGraph) -> Hexastore {
    let (n, type_rel) = (kg.num_nodes() as u32, kg.num_relations() as u32);
    let rows: Vec<[u32; 3]> = (0..n)
        .map(|v| [v, type_rel, n + kg.class_of(Vid(v)).raw()])
        .chain(kg.triples().iter().map(|t| t.raw()))
        .collect();
    Hexastore::build(&rows)
}

#[test]
fn store_built_from_the_graph_order_equals_one_sorted_from_scratch() {
    for ds in all_datasets(SCALE, SEED) {
        let kg = &ds.gen.kg;
        assert!(
            *RdfStore::new(kg).hexastore() == sorted_from_scratch(kg),
            "{}",
            ds.gen.spec.name
        );
    }
}

/// Relation `r`'s `out` row of `v` is the objects of the store's (r, v)
/// PSO range and its `inc` row the subjects of the (r, v) POS range, in
/// that order, and `out`'s target array is the objects of r's PSO range.
fn assert_rows_are_store_ranges(ds: &Dataset) {
    let (kg, name) = (&ds.gen.kg, &ds.gen.spec.name);
    let store = RdfStore::new(kg);
    let hex = store.hexastore();
    let graph = HeteroGraph::build(kg);
    for r in 0..kg.num_relations() as u32 {
        let adj = graph.relation(Rid(r));
        // A scan with only the predicate bound reads PSO.
        let pso: Vec<[u32; 3]> = hex.scan(None, Some(r), None).collect();
        let objects = |rows: &[[u32; 3]]| -> Vec<u32> { rows.iter().map(|t| t[2]).collect() };
        assert_eq!(adj.out.targets(), objects(&pso), "{name} r{r} out");
        for v in 0..kg.num_nodes() as u32 {
            let range = pso.partition_point(|t| t[0] < v)..pso.partition_point(|t| t[0] <= v);
            let out = objects(&pso[range]);
            assert_eq!(adj.out.neighbors(Vid(v)), out, "{name} r{r} v{v} out");
            // Predicate and object bound reads POS.
            let inc: Vec<u32> = hex.scan(None, Some(r), Some(v)).map(|t| t[0]).collect();
            assert_eq!(adj.inc.neighbors(Vid(v)), inc, "{name} r{r} v{v} inc");
        }
    }
}

#[test]
fn hetero_graph_rows_are_the_stores_pso_and_pos_ranges() {
    assert_rows_are_store_ranges(&mag(SCALE, SEED));
    assert_rows_are_store_ranges(&dblp(SCALE, SEED));
}
