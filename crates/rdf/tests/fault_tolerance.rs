//! Fault-injection properties: the retry layer must make transient
//! endpoint failures *invisible* — the fetched triple set is bit-identical
//! to a fault-free fetch, at any page size and at 1 and 4 request-handler
//! threads alike.

use proptest::prelude::*;
use std::sync::atomic::Ordering;

use kgtosa_kg::{KnowledgeGraph, Triple};
use kgtosa_rdf::{
    fetch_triples_robust, parse, FaultPlan, FetchConfig, InProcessEndpoint, PageCache, RdfStore,
    RetryPolicy,
};

fn arb_kg() -> impl Strategy<Value = KnowledgeGraph> {
    proptest::collection::vec((0u32..12, 0u32..4, 0u32..12), 0..80).prop_map(|ts| {
        let mut kg = KnowledgeGraph::new();
        for v in 0..12u32 {
            kg.add_node(&format!("n{v}"), &format!("C{}", v % 3));
        }
        for r in 0..4u32 {
            kg.add_relation(&format!("r{r}"));
        }
        for (s, p, o) in ts {
            let s = kg.find_node(&format!("n{s}")).unwrap();
            let o = kg.find_node(&format!("n{o}")).unwrap();
            let p = kg.find_relation(&format!("r{p}")).unwrap();
            kg.add_triple(s, p, o);
        }
        kg
    })
}

/// Paginated fetch of the whole store under `cfg`.
fn fetch_all(store: &RdfStore<'_>, cfg: &FetchConfig) -> Vec<Triple> {
    let q = parse("SELECT ?s ?p ?o WHERE { ?s ?p ?o . }").expect("query parses");
    let endpoint = InProcessEndpoint::new(store);
    fetch_triples_robust(&endpoint, store, &[q], ("s", "p", "o"), cfg)
        .expect("fetch succeeds")
        .triples
}

fn cfg(batch: usize, threads: usize) -> FetchConfig {
    FetchConfig { batch_size: batch, threads, ..Default::default() }
}

/// A heavy but survivable fault regime: most requests fail, bursts stay
/// strictly below the retry budget, and backoffs are microsecond-scale so
/// the property stays fast.
fn chaotic(batch: usize, threads: usize, seed: u64) -> FetchConfig {
    FetchConfig {
        fault: Some(FaultPlan {
            seed,
            fault_rate: 0.7,
            max_burst: 3,
            ..Default::default()
        }),
        retry: Some(RetryPolicy {
            max_attempts: 5,
            base_backoff_us: 1,
            max_backoff_us: 8,
            jitter_seed: seed,
            ..Default::default()
        }),
        ..cfg(batch, threads)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Faulty-but-retried fetches return exactly the fault-free result,
    /// and the result is independent of the thread count — the acceptance
    /// property of the fault-tolerance layer.
    #[test]
    fn transient_faults_below_the_retry_budget_are_invisible(
        kg in arb_kg(),
        seed in 0u64..1000,
        batch in 1usize..9,
    ) {
        let store = RdfStore::new(&kg);
        let clean = fetch_all(&store, &cfg(batch, 1));
        prop_assert_eq!(&clean, &fetch_all(&store, &cfg(batch, 4)));
        prop_assert_eq!(&clean, &fetch_all(&store, &chaotic(batch, 1, seed)));
        prop_assert_eq!(&clean, &fetch_all(&store, &chaotic(batch, 4, seed)));
    }

    /// Retry/page-cache interaction: because the cache wraps *outside*
    /// the retry layer, a transiently failing page that takes several
    /// attempts still produces exactly one cache insertion — retries are
    /// never double-counted as hits, and a warm re-fetch serves every
    /// page from memory without touching the endpoint at all.
    #[test]
    fn retried_fetches_fill_the_page_cache_exactly_once(
        kg in arb_kg(),
        seed in 0u64..1000,
        batch in 1usize..9,
        threads in proptest::sample::select(vec![1usize, 4]),
    ) {
        let store = RdfStore::new(&kg);
        let clean = fetch_all(&store, &cfg(batch, 1));

        let cache = PageCache::new();
        let cached_cfg = FetchConfig {
            page_cache: Some(cache.clone()),
            ..chaotic(batch, threads, seed)
        };
        let q = parse("SELECT ?s ?p ?o WHERE { ?s ?p ?o . }").expect("query parses");
        let endpoint = InProcessEndpoint::new(&store);
        let cold = fetch_triples_robust(&endpoint, &store, std::slice::from_ref(&q), ("s", "p", "o"), &cached_cfg)
            .expect("cold fetch succeeds")
            .triples;
        prop_assert_eq!(&cold, &clean);

        // Every page was a miss and was inserted exactly once, no matter
        // how many transient faults the retry layer absorbed underneath.
        let stats = cache.stats();
        let cold_misses = stats.misses.load(Ordering::Relaxed);
        let cold_inserts = stats.insertions.load(Ordering::Relaxed);
        prop_assert_eq!(stats.hits.load(Ordering::Relaxed), 0);
        prop_assert_eq!(cold_inserts, cold_misses);
        prop_assert_eq!(cold_inserts, cache.len() as u64, "one entry per distinct page");
        let cold_requests = endpoint.stats().requests();
        prop_assert!(cold_requests >= cold_inserts as usize,
            "retries only add requests, never extra insertions");

        // Warm re-fetch: all hits, zero new endpoint requests, zero new
        // insertions, same bytes out.
        let warm = fetch_triples_robust(&endpoint, &store, &[q], ("s", "p", "o"), &cached_cfg)
            .expect("warm fetch succeeds")
            .triples;
        prop_assert_eq!(&warm, &clean);
        prop_assert_eq!(endpoint.stats().requests(), cold_requests,
            "warm fetch must not reach the endpoint");
        prop_assert_eq!(stats.insertions.load(Ordering::Relaxed), cold_inserts);
        prop_assert_eq!(stats.hits.load(Ordering::Relaxed), cold_misses);
    }
}
