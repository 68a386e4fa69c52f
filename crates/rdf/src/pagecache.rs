//! In-memory LRU cache of rendered-subquery page results.
//!
//! One `compare` run executes the *same* paginated subqueries several
//! times — once for the full graph and once per TOSG pattern that shares
//! BGP groups — and every retry-of-a-failed-run repeats pages that
//! already succeeded. The [`PageCache`] short-circuits those repeats in
//! memory, keyed by the rendered query text (which pins the subquery,
//! its projection, and its `LIMIT`/`OFFSET` page).
//!
//! It is the outermost stage of the request pipeline (DESIGN.md §4): a
//! hit touches no other stage, and only a request's final successful
//! answer is filled in. Errors are never cached.
//!
//! The cache is an explicit per-dataset handle, not a process global: a
//! rendered query is only unambiguous relative to one store's contents,
//! so sharing a cache across different graphs would serve stale pages.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::exec::ResultSet;

/// Default byte budget: enough for every page of the bundled benchmark
/// graphs while staying far below training's own working set.
pub const DEFAULT_PAGE_CACHE_BYTES: usize = 64 << 20;

/// Per-instance accounting, race-free under concurrent fetch workers
/// and independent of the process-global obs registry (which is also
/// fed, for traces).
#[derive(Debug, Default)]
pub struct PageCacheStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub insertions: AtomicU64,
    pub evictions: AtomicU64,
}

struct Entry {
    page: ResultSet,
    bytes: usize,
    /// Monotonic access stamp; smallest = least recently used.
    stamp: u64,
}

struct Lru {
    map: HashMap<String, Entry>,
    bytes: usize,
    clock: u64,
}

/// A bounded, thread-safe LRU of query-text → result-set pages.
#[derive(Clone)]
pub struct PageCache {
    inner: Arc<Mutex<Lru>>,
    budget: usize,
    stats: Arc<PageCacheStats>,
}

impl std::fmt::Debug for PageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let lru = self.lock();
        f.debug_struct("PageCache")
            .field("entries", &lru.map.len())
            .field("bytes", &lru.bytes)
            .field("budget", &self.budget)
            .finish()
    }
}

impl PageCache {
    /// A cache with the default byte budget.
    pub fn new() -> Self {
        Self::with_budget(DEFAULT_PAGE_CACHE_BYTES)
    }

    /// A cache evicting least-recently-used pages past `budget` bytes.
    pub fn with_budget(budget: usize) -> Self {
        PageCache {
            inner: Arc::new(Mutex::new(Lru { map: HashMap::new(), bytes: 0, clock: 0 })),
            budget,
            stats: Arc::new(PageCacheStats::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Lru> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn stats(&self) -> &PageCacheStats {
        &self.stats
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current byte footprint.
    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }

    /// Looks up a rendered query, refreshing its LRU stamp on a hit.
    pub fn get(&self, key: &str) -> Option<ResultSet> {
        let mut lru = self.lock();
        lru.clock += 1;
        let clock = lru.clock;
        match lru.map.get_mut(key) {
            Some(entry) => {
                entry.stamp = clock;
                let page = entry.page.clone();
                drop(lru);
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                kgtosa_obs::counter("rdf.pagecache.hits").inc();
                Some(page)
            }
            None => {
                drop(lru);
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                kgtosa_obs::counter("rdf.pagecache.misses").inc();
                None
            }
        }
    }

    /// Drops every cached page. Used when the underlying store's contents
    /// change (e.g. a KG delta lands): rendered query text no longer
    /// identifies the same result, so the whole cache is stale at once.
    pub fn clear(&self) {
        let mut lru = self.lock();
        lru.map.clear();
        lru.bytes = 0;
    }

    /// Inserts a page, evicting LRU entries to stay within budget. A
    /// page larger than the whole budget is not cached at all (caching
    /// it would evict everything else only to be evicted next).
    pub fn put(&self, key: String, page: ResultSet) {
        let bytes = page.approx_bytes() + key.len();
        if bytes > self.budget {
            return;
        }
        let mut lru = self.lock();
        lru.clock += 1;
        let stamp = lru.clock;
        if let Some(old) = lru.map.insert(key, Entry { page, bytes, stamp }) {
            lru.bytes -= old.bytes;
        }
        lru.bytes += bytes;
        self.stats.insertions.fetch_add(1, Ordering::Relaxed);
        let mut evicted = 0u64;
        while lru.bytes > self.budget {
            let Some(oldest) = lru
                .map
                .iter()
                .min_by_key(|(k, e)| (e.stamp, k.as_str().to_owned()))
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(e) = lru.map.remove(&oldest) {
                lru.bytes -= e.bytes;
                evicted += 1;
            }
        }
        drop(lru);
        if evicted > 0 {
            self.stats.evictions.fetch_add(evicted, Ordering::Relaxed);
            kgtosa_obs::counter("rdf.pagecache.evictions").add(evicted);
        }
    }
}

impl Default for PageCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Query;
    use crate::endpoint::{FetchConfig, InProcessEndpoint, Pipeline, SparqlEndpoint};
    use crate::error::RdfError;
    use crate::parser::parse;
    use crate::store::RdfStore;
    use kgtosa_kg::KnowledgeGraph;

    fn kg() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        for i in 0..12 {
            kg.add_triple_terms(&format!("a{i}"), "Author", "writes", &format!("p{}", i % 5), "Paper");
        }
        kg
    }

    fn cached_in(cache: &PageCache) -> FetchConfig {
        FetchConfig { page_cache: Some(cache.clone()), ..FetchConfig::default() }
    }

    #[test]
    fn second_select_is_served_from_cache() {
        let kg = kg();
        let store = RdfStore::new(&kg);
        let ep = InProcessEndpoint::new(&store);
        let cache = PageCache::new();
        let cfg = cached_in(&cache);
        let caching = Pipeline::new(&ep, &cfg).unwrap();
        let q = parse("SELECT ?s ?o WHERE { ?s <writes> ?o }").unwrap();
        let first = caching.select(&q).unwrap();
        let second = caching.select(&q).unwrap();
        assert_eq!(first, second);
        assert_eq!(ep.stats().requests(), 1, "second select must not reach the store");
        assert_eq!(cache.stats().hits.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats().misses.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats().insertions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn different_pages_are_distinct_keys() {
        let kg = kg();
        let store = RdfStore::new(&kg);
        let ep = InProcessEndpoint::new(&store);
        let cfg = cached_in(&PageCache::new());
        let caching = Pipeline::new(&ep, &cfg).unwrap();
        let q = parse("SELECT ?s ?o WHERE { ?s <writes> ?o }").unwrap();
        let p0 = caching.select(&q.with_page(4, 0)).unwrap();
        let p1 = caching.select(&q.with_page(4, 4)).unwrap();
        assert_ne!(p0, p1);
        assert_eq!(ep.stats().requests(), 2);
    }

    #[test]
    fn count_is_cached_under_its_count_rendering() {
        let kg = kg();
        let store = RdfStore::new(&kg);
        let ep = InProcessEndpoint::new(&store);
        let cfg = cached_in(&PageCache::new());
        let caching = Pipeline::new(&ep, &cfg).unwrap();
        let q = parse("SELECT ?s ?o WHERE { ?s <writes> ?o }").unwrap();
        assert_eq!(caching.count(&q).unwrap(), 12);
        assert_eq!(caching.count(&q).unwrap(), 12);
        assert_eq!(ep.stats().requests(), 1);
    }

    #[test]
    fn errors_are_never_cached() {
        struct Flaky {
            calls: AtomicU64,
        }
        impl SparqlEndpoint for Flaky {
            fn select(&self, _q: &Query) -> Result<ResultSet, RdfError> {
                if self.calls.fetch_add(1, Ordering::Relaxed) == 0 {
                    Err(RdfError::exec("transient"))
                } else {
                    Ok(ResultSet::with_vars(vec!["s".into()]))
                }
            }
        }
        let flaky = Flaky { calls: AtomicU64::new(0) };
        let cache = PageCache::new();
        let cfg = cached_in(&cache);
        let caching = Pipeline::new(&flaky, &cfg).unwrap();
        let q = parse("SELECT ?s WHERE { ?s <w> ?o }").unwrap();
        assert!(caching.select(&q).is_err());
        assert_eq!(cache.len(), 0, "an error must leave no cache entry");
        assert!(caching.select(&q).is_ok());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().insertions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let kg = kg();
        let store = RdfStore::new(&kg);
        let ep = InProcessEndpoint::new(&store);
        let q = parse("SELECT ?s ?o WHERE { ?s <writes> ?o }").unwrap();
        let one_page = ep.select(&q.with_page(4, 0)).unwrap().approx_bytes();
        // Budget for roughly two pages (plus key overhead slack).
        let cache = PageCache::with_budget(2 * one_page + 160);
        let cfg = cached_in(&cache);
        let caching = Pipeline::new(&ep, &cfg).unwrap();
        caching.select(&q.with_page(4, 0)).unwrap();
        caching.select(&q.with_page(4, 4)).unwrap();
        // Touch page 0 so page 4 is the LRU victim.
        caching.select(&q.with_page(4, 0)).unwrap();
        caching.select(&q.with_page(4, 8)).unwrap();
        assert!(cache.stats().evictions.load(Ordering::Relaxed) >= 1);
        assert!(cache.bytes() <= 2 * one_page + 160);
        let before = ep.stats().requests();
        caching.select(&q.with_page(4, 0)).unwrap();
        assert_eq!(ep.stats().requests(), before, "MRU page survived eviction");
    }

    #[test]
    fn clear_empties_the_cache_and_later_selects_refill() {
        let kg = kg();
        let store = RdfStore::new(&kg);
        let ep = InProcessEndpoint::new(&store);
        let cache = PageCache::new();
        let cfg = cached_in(&cache);
        let caching = Pipeline::new(&ep, &cfg).unwrap();
        let q = parse("SELECT ?s ?o WHERE { ?s <writes> ?o }").unwrap();
        caching.select(&q).unwrap();
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.bytes(), 0);
        caching.select(&q).unwrap();
        assert_eq!(ep.stats().requests(), 2, "post-clear select must refill");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn oversized_page_is_not_cached() {
        let kg = kg();
        let store = RdfStore::new(&kg);
        let ep = InProcessEndpoint::new(&store);
        let cache = PageCache::with_budget(8);
        let cfg = cached_in(&cache);
        let caching = Pipeline::new(&ep, &cfg).unwrap();
        let q = parse("SELECT ?s ?o WHERE { ?s <writes> ?o }").unwrap();
        caching.select(&q).unwrap();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.bytes(), 0);
    }
}
