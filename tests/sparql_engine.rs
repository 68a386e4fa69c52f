//! Cross-crate checks of the SPARQL path: the single UNION query `Q^{d,h}`
//! executed through the parser + engine must retrieve exactly the triples
//! the paginated per-subquery fetcher (Algorithm 3) retrieves.

use kgtosa::core::{compile_subqueries, compile_union, ExtractionTask, GraphPattern};
use kgtosa::datagen;
use kgtosa::kg::Triple;
use kgtosa::rdf::{
    fetch_triples_robust, BreakerPolicy, CircuitBreaker, FaultPlan, FetchConfig, FetchMode,
    InProcessEndpoint, PageCache, Query, RdfError, RdfStore, ResultSet, RetryPolicy,
    SparqlEndpoint, SparqlEngine, NULL_ID,
};

#[test]
fn union_query_equals_paginated_subqueries() {
    let d = datagen::yago3_10(0.05, 4);
    let kg = &d.gen.kg;
    let task = ExtractionTask::node_classification(
        "t",
        "Person",
        kg.nodes_of_class(kg.find_class("Person").unwrap()),
    );
    let store = RdfStore::new(kg);

    for pattern in [GraphPattern::D1H1, GraphPattern::D2H1] {
        // Path A: one big UNION query through the parser + engine.
        let union = compile_union(&task, &pattern);
        let text = union.to_string();
        let reparsed = kgtosa::rdf::parse(&text).unwrap();
        let engine = SparqlEngine::new(&store);
        let rs = engine.execute(&reparsed).unwrap();
        let mut union_triples: Vec<Triple> = Vec::new();
        // Each row binds one branch's triple vars; collect any complete
        // (s,p,o)-shaped binding among the projected columns.
        let find = |name: &str| rs.col(name);
        let combos = [
            (find("v0"), find("p"), find("o_end")),
            (find("s_end"), find("p"), find("v0")),
            (find("v1"), find("p"), find("o_end")),
            (find("s_end"), find("p"), find("v1")),
        ];
        for i in 0..rs.len() {
            let row = rs.row(i);
            for &(cs, cp, co) in &combos {
                if let (Some(cs), Some(cp), Some(co)) = (cs, cp, co) {
                    let (s, p, o) = (row[cs], row[cp], row[co]);
                    if s != NULL_ID && p != NULL_ID && o != NULL_ID {
                        if let Some(t) = store.to_data_triple(s, p, o) {
                            union_triples.push(t);
                        }
                    }
                }
            }
        }
        union_triples.sort_unstable();
        union_triples.dedup();

        // Path B: Algorithm 3's paginated parallel subquery fetch.
        let subs = compile_subqueries(&task, &pattern);
        let ep = InProcessEndpoint::new(&store);
        let mut fetched: Vec<Triple> = Vec::new();
        for sq in &subs {
            let (s, p, o) = (
                sq.triple_vars.0.as_str(),
                sq.triple_vars.1.as_str(),
                sq.triple_vars.2.as_str(),
            );
            let part = fetch_triples_robust(
                &ep,
                &store,
                std::slice::from_ref(&sq.query),
                (s, p, o),
                &FetchConfig { batch_size: 53, threads: 2, ..Default::default() },
            )
            .unwrap();
            fetched.extend(part.triples);
        }
        fetched.sort_unstable();
        fetched.dedup();

        assert_eq!(
            union_triples,
            fetched,
            "UNION vs paginated mismatch for {}",
            pattern.label()
        );
        assert!(!fetched.is_empty());
    }
}

#[test]
fn endpoint_counts_plan_pagination() {
    // getGraphSize (Algorithm 3 line 3): COUNT of a subquery equals the
    // number of rows its pagination eventually returns.
    let d = datagen::wikikg2(0.03, 8);
    let kg = &d.gen.kg;
    let store = RdfStore::new(kg);
    let ep = InProcessEndpoint::new(&store);
    let task = ExtractionTask::node_classification(
        "t",
        "Person",
        kg.nodes_of_class(kg.find_class("Person").unwrap()),
    );
    let subs = compile_subqueries(&task, &GraphPattern::D1H1);
    for sq in &subs {
        let count = ep.count(&sq.query).unwrap();
        let engine = SparqlEngine::new(&store);
        let rows = engine.execute(&sq.query).unwrap().len();
        assert_eq!(count, rows);
    }
}

/// An endpoint whose page at one offset is permanently broken.
struct BrokenAt<'a, 's, 'kg> {
    ep: &'a InProcessEndpoint<'s, 'kg>,
    offset: usize,
}

impl SparqlEndpoint for BrokenAt<'_, '_, '_> {
    fn select(&self, query: &Query) -> Result<ResultSet, RdfError> {
        if query.offset == Some(self.offset) {
            return Err(RdfError::exec("page permanently broken"));
        }
        self.ep.select(query)
    }
}

#[test]
fn paged_fetch_evaluates_each_subquery_once() {
    // Algorithm 3 pages every subquery off one evaluation: the request
    // count follows the page count, the evaluation count does not.
    const BS: usize = 53;
    let d = datagen::yago3_10(0.05, 4);
    let kg = &d.gen.kg;
    let task = ExtractionTask::node_classification(
        "t",
        "Person",
        kg.nodes_of_class(kg.find_class("Person").unwrap()),
    );
    let store = RdfStore::new(kg);
    let subs = compile_subqueries(&task, &GraphPattern::D2H1);
    let fetch = |ep: &dyn SparqlEndpoint, sq: &kgtosa::core::Subquery, cfg: &FetchConfig| {
        let (s, p, o) = &sq.triple_vars;
        fetch_triples_robust(&ep, &store, std::slice::from_ref(&sq.query), (s, p, o), cfg)
    };
    let strict = FetchConfig { batch_size: BS, threads: 2, ..Default::default() };

    let ep = InProcessEndpoint::new(&store);
    let mut pages = 0;
    let mut triples: Vec<Triple> = Vec::new();
    for sq in &subs {
        let outcome = fetch(&ep, sq, &strict).unwrap();
        pages += outcome.completed_pages;
        triples.extend(outcome.triples);
    }
    assert!(pages >= 3 * subs.len(), "bs = {BS} must really paginate: {pages} pages");
    assert_eq!(ep.stats().requests(), pages);
    assert_eq!(ep.stats().evaluations(), subs.len());
    assert_eq!(ep.open_cursors(), 0, "every pagination ran to its short page");

    // Partial mode adds one getGraphSize request per subquery — and no
    // evaluation: the count parks what the pages are sliced from.
    let partial_ep = InProcessEndpoint::new(&store);
    let partial = FetchConfig { mode: FetchMode::Partial, ..strict.clone() };
    let mut partial_triples: Vec<Triple> = Vec::new();
    for sq in &subs {
        let outcome = fetch(&partial_ep, sq, &partial).unwrap();
        assert!(outcome.is_complete());
        partial_triples.extend(outcome.triples);
    }
    assert_eq!(partial_triples, triples);
    assert_eq!(partial_ep.stats().requests(), pages + subs.len());
    assert_eq!(partial_ep.stats().evaluations(), subs.len());
    assert_eq!(partial_ep.open_cursors(), 0);

    // The same behind every request policy at once: most requests fail
    // once or twice before the retry gets them through, and an injected
    // fault never reaches the endpoint — so neither the request count nor
    // the evaluation count moves, getGraphSize included.
    let policed_ep = InProcessEndpoint::new(&store);
    let policed = FetchConfig {
        fault: Some(FaultPlan { fault_rate: 0.7, max_burst: 2, ..Default::default() }),
        retry: Some(RetryPolicy { base_backoff_us: 1, max_backoff_us: 8, ..Default::default() }),
        breaker: Some(CircuitBreaker::new(BreakerPolicy::default())),
        page_cache: Some(PageCache::new()),
        ..partial.clone()
    };
    let mut policed_triples: Vec<Triple> = Vec::new();
    for sq in &subs {
        let outcome = fetch(&policed_ep, sq, &policed).unwrap();
        assert!(outcome.is_complete());
        policed_triples.extend(outcome.triples);
    }
    assert_eq!(policed_triples, triples);
    assert_eq!(policed_ep.stats().requests(), pages + subs.len());
    assert_eq!(policed_ep.stats().evaluations(), subs.len());
    assert_eq!(policed_ep.open_cursors(), 0);

    // Checkpoint resume: a first run dies on its third page, the re-run
    // skips the two checkpointed pages and starts mid-pagination — still
    // one evaluation for all the pages that remain.
    let first_ep = InProcessEndpoint::new(&store);
    let longest = subs
        .iter()
        .max_by_key(|sq| first_ep.count(&sq.query).unwrap())
        .unwrap();
    let whole = fetch(&first_ep, longest, &strict).unwrap();
    assert!(whole.completed_pages > 3);
    let dir = std::env::temp_dir().join(format!("kgtosa-cursor-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let resumable = FetchConfig { checkpoint: Some(dir.join("fetch.ckpt")), ..strict.clone() };
    let broken = BrokenAt { ep: &first_ep, offset: 2 * BS };
    assert!(fetch(&broken, longest, &resumable).is_err());
    let resumed_ep = InProcessEndpoint::new(&store);
    let resumed = fetch(&resumed_ep, longest, &resumable).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(resumed.resumed_pages, 2);
    assert_eq!(resumed.triples, whole.triples);
    assert_eq!(resumed_ep.stats().requests(), whole.completed_pages - 2);
    assert_eq!(resumed_ep.stats().evaluations(), 1);
    assert_eq!(resumed_ep.open_cursors(), 0);
}
