//! Property-based tests: the hexastore and executor must agree with naive
//! reference implementations on arbitrary inputs.

use std::sync::{Arc, Barrier};

use proptest::prelude::*;

use kgtosa_core::{extract_sparql, ExtractionTask, GraphPattern};
use kgtosa_kg::{write_snapshot, KnowledgeGraph};
use kgtosa_rdf::{
    fetch_triples_robust, parse, FetchConfig, Hexastore, InProcessEndpoint, Query, RdfError,
    RdfStore, ResultSet, SparqlEndpoint, SparqlEngine,
};

fn arb_triples() -> impl Strategy<Value = Vec<[u32; 3]>> {
    proptest::collection::vec((0u32..12, 0u32..4, 0u32..12), 0..80)
        .prop_map(|v| v.into_iter().map(|(s, p, o)| [s, p, o]).collect())
}

fn arb_kg() -> impl Strategy<Value = KnowledgeGraph> {
    arb_triples().prop_map(|ts| {
        let mut kg = KnowledgeGraph::new();
        for v in 0..12u32 {
            kg.add_node(&format!("n{v}"), &format!("C{}", v % 3));
        }
        for r in 0..4u32 {
            kg.add_relation(&format!("r{r}"));
        }
        for [s, p, o] in ts {
            let s = kg.find_node(&format!("n{s}")).unwrap();
            let o = kg.find_node(&format!("n{o}")).unwrap();
            let p = kg.find_relation(&format!("r{p}")).unwrap();
            kg.add_triple(s, p, o);
        }
        kg
    })
}

/// Reference scan: filter the raw list.
fn naive_scan(
    triples: &[[u32; 3]],
    s: Option<u32>,
    p: Option<u32>,
    o: Option<u32>,
) -> Vec<[u32; 3]> {
    let mut out: Vec<[u32; 3]> = triples
        .iter()
        .copied()
        .filter(|t| {
            s.is_none_or(|v| v == t[0]) && p.is_none_or(|v| v == t[1]) && o.is_none_or(|v| v == t[2])
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The endpoint's cursor cap (`MAX_HANDLERS` in `endpoint.rs`).
const CURSOR_CAP: usize = 16;

/// 21 distinct queries — more than the cursor cap — over the shapes the
/// engine supports: plain BGP, type-anchored star, UNION, FILTER, DISTINCT.
fn query_pool() -> Vec<Query> {
    let mut texts = Vec::new();
    for r in 0..4 {
        texts.push(format!("SELECT ?s ?o WHERE {{ ?s <r{r}> ?o }}"));
        texts.push(format!("SELECT ?s ?o WHERE {{ ?s <r{r}> ?o . FILTER (?s != ?o) }}"));
        texts.push(format!("SELECT DISTINCT ?s WHERE {{ ?s <r{r}> ?o }}"));
    }
    for c in 0..3 {
        texts.push(format!("SELECT ?s ?p ?o WHERE {{ ?s ?p ?o . ?s a <C{c}> }}"));
        texts.push(format!(
            "SELECT * WHERE {{ ?v a <C{c}> . {{ ?v <r0> ?o }} UNION {{ ?i <r1> ?v }} }}"
        ));
        texts.push(format!("SELECT DISTINCT ?p WHERE {{ ?s ?p ?o . ?s a <C{c}> }}"));
    }
    texts.iter().map(|t| parse(t).expect("pool query parses")).collect()
}

/// What a page must be: its query evaluated on an engine that has never
/// seen another request.
fn fresh_page(store: &RdfStore<'_>, paged: &Query) -> ResultSet {
    SparqlEngine::new(store).execute(paged).expect("query executes")
}

/// An endpoint that has only `select`, so `count` is the trait's default
/// `COUNT(*)` rewrite — what `InProcessEndpoint::count` was before it
/// shared the pagination's evaluation.
struct SelectOnly<'a, 's, 'kg>(&'a InProcessEndpoint<'s, 'kg>);

impl SparqlEndpoint for SelectOnly<'_, '_, '_> {
    fn select(&self, query: &Query) -> Result<ResultSet, RdfError> {
        self.0.select(query)
    }
}

/// Pages `query` from offset 0 until the short page, checking each page.
fn page_to_exhaustion(
    ep: &InProcessEndpoint<'_, '_>,
    store: &RdfStore<'_>,
    query: &Query,
    bs: usize,
) -> Result<(), TestCaseError> {
    for page in 0.. {
        let paged = query.with_page(bs, page * bs);
        let got = ep.select(&paged).expect("page is served");
        prop_assert_eq!(&got, &fresh_page(store, &paged), "page {} of {}", page, query);
        if got.len() < bs {
            break;
        }
    }
    Ok(())
}

proptest! {
    /// Requests in any order — sequential, shuffled, repeated, skipping
    /// pages, queries interleaved, `count` anywhere, more live queries than
    /// the cursor cap — get from one long-lived endpoint exactly what a
    /// fresh engine answers, and the endpoint evaluates only when a model
    /// of its cursor table says it has nothing parked.
    #[test]
    fn cursor_pages_equal_fresh_evaluation(
        kg in arb_kg(),
        bs in 1usize..9,
        first in 0usize..21,
        queries in 1usize..22,
        schedule in proptest::collection::vec((0usize..21, 0usize..8), 1..200),
    ) {
        let store = RdfStore::new(&kg);
        let pool = query_pool();
        let live: Vec<usize> = (0..queries).map(|i| (first + i) % pool.len()).collect();
        let ep = InProcessEndpoint::new(&store);
        // Model of the cursor table: parked query texts, oldest first.
        let mut parked: Vec<String> = Vec::new();
        let mut evaluations = 0usize;
        for (step, &(slot, action)) in schedule.iter().enumerate() {
            let query = &pool[live[slot % live.len()]];
            let key = query.to_string();
            let was_parked = parked.contains(&key);
            // Actions 6 and 7 are `count`, the rest a page index.
            let keep_parked = if action >= 6 {
                let expected = SelectOnly(&InProcessEndpoint::new(&store)).count(query).unwrap();
                prop_assert_eq!(ep.count(query).unwrap(), expected, "count of {}", query);
                true
            } else {
                let paged = query.with_page(bs, action * bs);
                let expected = fresh_page(&store, &paged);
                prop_assert_eq!(&ep.select(&paged).unwrap(), &expected, "{}", paged);
                expected.len() == bs
            };
            if !was_parked {
                evaluations += 1;
            }
            match (was_parked, keep_parked) {
                (true, false) => parked.retain(|k| *k != key),
                (false, true) => {
                    if parked.len() == CURSOR_CAP {
                        parked.remove(0);
                    }
                    parked.push(key);
                }
                _ => {}
            }
            prop_assert_eq!(ep.stats().requests(), step + 1);
            prop_assert_eq!(ep.stats().evaluations(), evaluations, "after step {}", step);
            prop_assert_eq!(ep.open_cursors(), parked.len(), "after step {}", step);
        }
    }

    /// The fetcher's own access pattern: up to the cap's worth of distinct
    /// queries, each paged in order by one of 1 or 4 handler threads, cost
    /// one evaluation each and leave nothing parked.
    #[test]
    fn sequential_pagination_evaluates_once(
        kg in arb_kg(),
        bs in 1usize..9,
        first in 0usize..21,
        queries in 1usize..=CURSOR_CAP,
        threads in proptest::sample::select(vec![1usize, 4]),
    ) {
        let store = RdfStore::new(&kg);
        let pool = query_pool();
        let live: Vec<usize> = (0..queries).map(|i| (first + i) % pool.len()).collect();
        let ep = InProcessEndpoint::new(&store);
        // All handlers start together, so paginations really interleave.
        let start = Barrier::new(threads);
        let results: Vec<Result<(), TestCaseError>> = std::thread::scope(|scope| {
            let handlers: Vec<_> = (0..threads)
                .map(|t| {
                    let (ep, store, pool, live, start) = (&ep, &store, &pool, &live, &start);
                    scope.spawn(move || {
                        start.wait();
                        for &q in live.iter().skip(t).step_by(threads) {
                            page_to_exhaustion(ep, store, &pool[q], bs)?;
                        }
                        Ok(())
                    })
                })
                .collect();
            handlers.into_iter().map(|h| h.join().expect("handler panicked")).collect()
        });
        for result in results {
            result?;
        }
        prop_assert_eq!(ep.stats().evaluations(), live.len());
        prop_assert_eq!(ep.open_cursors(), 0, "exhaustion empties the table");
    }

    /// Round-robin over all 21 queries keeps more paginations live than
    /// the cap: evictions cost re-evaluations, never a wrong page.
    #[test]
    fn eviction_only_costs_evaluations(kg in arb_kg(), bs in 1usize..4) {
        let store = RdfStore::new(&kg);
        let pool = query_pool();
        let ep = InProcessEndpoint::new(&store);
        let mut live: Vec<&Query> = pool.iter().collect();
        let mut page = 0;
        while !live.is_empty() {
            let mut still_live = Vec::new();
            for query in live {
                let paged = query.with_page(bs, page * bs);
                let got = ep.select(&paged).unwrap();
                prop_assert_eq!(&got, &fresh_page(&store, &paged), "{}", paged);
                if got.len() == bs {
                    still_live.push(query);
                }
            }
            live = still_live;
            page += 1;
            prop_assert!(ep.open_cursors() <= CURSOR_CAP);
        }
        prop_assert!(ep.stats().evaluations() >= pool.len());
        prop_assert_eq!(ep.open_cursors(), 0, "exhaustion empties the table");
    }

    /// Every bound-component combination returns exactly the naive filter's
    /// triple set, regardless of which of the six orderings serves it.
    #[test]
    fn hexastore_agrees_with_naive(triples in arb_triples(),
                                   s in proptest::option::of(0u32..13),
                                   p in proptest::option::of(0u32..5),
                                   o in proptest::option::of(0u32..13)) {
        let hex = Hexastore::build(&triples);
        let mut got: Vec<[u32; 3]> = hex.scan(s, p, o).collect();
        got.sort_unstable();
        prop_assert_eq!(got, naive_scan(&triples, s, p, o));
        prop_assert_eq!(hex.count(s, p, o), naive_scan(&triples, s, p, o).len());
    }

    /// Borrowing a graph and co-owning it give one store: the same six
    /// orderings, the same answer for every term, the same extraction bytes.
    #[test]
    fn borrowed_and_shared_stores_agree(kg in arb_kg()) {
        let kg = Arc::new(kg);
        let borrowed = RdfStore::new(&kg);
        let shared = RdfStore::shared(Arc::clone(&kg));
        prop_assert_eq!(borrowed.hexastore(), shared.hexastore());
        for id in 0..(kg.num_nodes() + kg.num_classes()) as u32 {
            let term = borrowed.node_term_str(id);
            prop_assert_eq!(term, shared.node_term_str(id));
            prop_assert_eq!(borrowed.resolve_node_term(term), shared.resolve_node_term(term));
        }
        for id in 0..=kg.num_relations() as u32 {
            let term = borrowed.pred_term_str(id);
            prop_assert_eq!(term, shared.pred_term_str(id));
            prop_assert_eq!(borrowed.resolve_pred_term(term), shared.resolve_pred_term(term));
        }
        prop_assert_eq!(shared.resolve_node_term("absent"), None);
        prop_assert_eq!(shared.resolve_pred_term("absent"), None);

        let targets = kg.nodes_of_class(kg.find_class("C0").unwrap());
        let task = ExtractionTask::node_classification("c0", "C0", targets);
        let snapshot = |store: &RdfStore<'_>| {
            let tosg = extract_sparql(store, &task, &GraphPattern::D1H1, &FetchConfig::default())
                .unwrap();
            let mut bytes = Vec::new();
            write_snapshot(&tosg.subgraph.kg, &mut bytes).unwrap();
            bytes
        };
        prop_assert_eq!(snapshot(&borrowed), snapshot(&shared));
    }

    /// A two-pattern join matches a brute-force double loop.
    #[test]
    fn join_agrees_with_bruteforce(kg in arb_kg()) {
        let store = RdfStore::new(&kg);
        let engine = SparqlEngine::new(&store);
        let rs = engine
            .execute_str("SELECT ?a ?b ?c WHERE { ?a <r0> ?b . ?b <r1> ?c }")
            .unwrap();
        // Brute force over data triples.
        let r0 = kg.find_relation("r0").unwrap();
        let r1 = kg.find_relation("r1").unwrap();
        let mut expect = Vec::new();
        for t1 in kg.triples().iter().filter(|t| t.p == r0) {
            for t2 in kg.triples().iter().filter(|t| t.p == r1) {
                if t1.o == t2.s {
                    expect.push(vec![t1.s.raw(), t1.o.raw(), t2.o.raw()]);
                }
            }
        }
        expect.sort();
        expect.dedup();
        let mut got: Vec<Vec<u32>> = rs.rows().map(|r| r.to_vec()).collect();
        got.sort();
        got.dedup();
        // Executor output is a bag; compare distinct solutions.
        prop_assert_eq!(got, expect);
    }

    /// Paginating a query in any batch size reassembles the full result.
    #[test]
    fn pagination_is_complete(kg in arb_kg(), batch in 1usize..17) {
        let store = RdfStore::new(&kg);
        let ep = InProcessEndpoint::new(&store);
        let q = parse("SELECT ?s ?p ?o WHERE { ?s ?p ?o . ?s a <C0> }").unwrap();
        let paged = fetch_triples_robust(
            &ep, &store, std::slice::from_ref(&q), ("s", "p", "o"),
            &FetchConfig { batch_size: batch, threads: 2, ..FetchConfig::default() },
        ).unwrap();
        let full = fetch_triples_robust(
            &ep, &store, &[q], ("s", "p", "o"),
            &FetchConfig { batch_size: 1_000_000, threads: 1, ..FetchConfig::default() },
        ).unwrap();
        prop_assert_eq!(paged.triples, full.triples);
    }

    /// DISTINCT never returns duplicates and preserves the solution set.
    #[test]
    fn distinct_is_set_semantics(kg in arb_kg()) {
        let store = RdfStore::new(&kg);
        let engine = SparqlEngine::new(&store);
        let bag = engine.execute_str("SELECT ?s ?o WHERE { ?s ?p ?o }").unwrap();
        let set = engine.execute_str("SELECT DISTINCT ?s ?o WHERE { ?s ?p ?o }").unwrap();
        let mut bag_rows: Vec<Vec<u32>> = bag.rows().map(|r| r.to_vec()).collect();
        bag_rows.sort();
        bag_rows.dedup();
        let set_rows: Vec<Vec<u32>> = set.rows().map(|r| r.to_vec()).collect();
        let mut sorted_set = set_rows.clone();
        sorted_set.sort();
        sorted_set.dedup();
        prop_assert_eq!(sorted_set.len(), set_rows.len(), "DISTINCT returned duplicates");
        prop_assert_eq!(sorted_set, bag_rows);
    }

    /// COUNT equals the materialized row count.
    #[test]
    fn count_matches_materialization(kg in arb_kg()) {
        let store = RdfStore::new(&kg);
        let engine = SparqlEngine::new(&store);
        let rows = engine.execute_str("SELECT ?s ?o WHERE { ?s <r2> ?o }").unwrap();
        let count = engine
            .execute_str("SELECT (COUNT(*) AS ?c) WHERE { ?s <r2> ?o }")
            .unwrap();
        prop_assert_eq!(count.row(0)[0] as usize, rows.len());
    }
}
