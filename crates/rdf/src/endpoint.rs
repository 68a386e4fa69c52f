//! SPARQL endpoint abstraction and the parallel paginated fetcher.
//!
//! Algorithm 3 of the paper extracts the TOSG by sending each UNION
//! subquery to the RDF engine's endpoint independently, paginating with
//! `LIMIT`/`OFFSET` in batches of `bs` triples, running `P` request-handler
//! workers in parallel, and finally dropping duplicate triples. This module
//! reproduces that machinery over an in-process engine:
//!
//! * [`SparqlEndpoint`] — what Virtuoso's HTTP endpoint provides (here an
//!   in-process trait so the whole pipeline runs without a network),
//! * [`InProcessEndpoint`] — plan + execute against an [`RdfStore`], one
//!   evaluation per paginated query, with per-request accounting standing
//!   in for transfer/compression,
//! * [`fetch_triples_robust`] — the `initializeWorkers`/`RequestHandler`
//!   loop,
//! * `Pipeline` — the one path a handler's request takes to the endpoint
//!   when the fetch has a fault plan, retry policy, circuit breaker or
//!   page cache configured (DESIGN.md §4, "request pipeline").

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use kgtosa_kg::{fnv64, sort_subject_runs, Rid, Triple, Vid};
use kgtosa_par::Pool;

use crate::ast::{Query, Selection};
use crate::breaker::CircuitBreaker;
use crate::error::RdfError;
use crate::exec::{ResultSet, Solved, SparqlEngine, NULL_ID};
use crate::fault::FaultPlan;
use crate::hexastore::sort_by_first;
use crate::pagecache::PageCache;
use crate::retry::RetryPolicy;
use crate::store::RdfStore;

/// A SPARQL SELECT endpoint.
pub trait SparqlEndpoint: Sync {
    /// Executes a parsed SELECT query.
    fn select(&self, query: &Query) -> Result<ResultSet, RdfError>;

    /// Counts the rows the query's pages return together (Algorithm 3's
    /// `getGraphSize`, used to plan the pagination batches). The default
    /// sends the query's `COUNT(*)` rewrite, which counts a `DISTINCT`
    /// query's solutions before deduplication — an upper bound. An empty
    /// result set means zero solutions, not an error.
    fn count(&self, query: &Query) -> Result<usize, RdfError> {
        Ok(counted(&self.select(&counting(query))?))
    }
}

/// The `COUNT` request `getGraphSize` sends for `query`.
fn counting(query: &Query) -> Query {
    Query {
        select: Selection::Count,
        limit: None,
        offset: None,
        ..query.clone()
    }
}

/// The number a `COUNT` request's answer carries.
fn counted(answer: &ResultSet) -> usize {
    if answer.is_empty() {
        0
    } else {
        answer.row(0)[0] as usize
    }
}

/// A borrowed endpoint — `&dyn SparqlEndpoint` included — is an endpoint
/// in its own right.
impl<E: SparqlEndpoint + ?Sized> SparqlEndpoint for &E {
    fn select(&self, query: &Query) -> Result<ResultSet, RdfError> {
        (**self).select(query)
    }

    fn count(&self, query: &Query) -> Result<usize, RdfError> {
        (**self).count(query)
    }
}

/// Cumulative endpoint accounting: stands in for the network-transfer
/// metrics the paper optimizes with compression + pagination.
#[derive(Debug, Default)]
pub struct EndpointStats {
    requests: AtomicUsize,
    evaluations: AtomicUsize,
    rows: AtomicUsize,
    bytes: AtomicUsize,
}

impl EndpointStats {
    /// Number of SELECT requests served.
    pub fn requests(&self) -> usize {
        self.requests.load(Ordering::Relaxed)
    }

    /// Number of query evaluations behind those requests: every page of
    /// one pagination is sliced from a single evaluation.
    pub fn evaluations(&self) -> usize {
        self.evaluations.load(Ordering::Relaxed)
    }

    /// Total solution rows returned.
    pub fn rows(&self) -> usize {
        self.rows.load(Ordering::Relaxed)
    }

    /// Total response payload bytes (4 bytes per cell, before the simulated
    /// compression factor a real deployment would apply).
    pub fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Books one served request of `rows` rows by `width` columns, `start`
    /// being when it arrived.
    fn record(&self, start: Instant, rows: usize, width: usize) {
        // Per-request latency feeds the global histogram.
        kgtosa_obs::histogram("rdf.request_s").observe(start.elapsed().as_secs_f64());
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.rows.fetch_add(rows, Ordering::Relaxed);
        let bytes = rows * width * 4;
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        // Mirror into the process-global registry so traces see endpoint
        // load even when the endpoint object is short-lived.
        kgtosa_obs::counter("rdf.requests").inc();
        kgtosa_obs::counter("rdf.rows").add(rows as u64);
        kgtosa_obs::counter("rdf.bytes").add(bytes as u64);
    }
}

/// Most request handlers a fetch runs by default, and so the most
/// paginations an [`InProcessEndpoint`] keeps resumable at once.
const MAX_HANDLERS: usize = 16;

/// An endpoint executing queries directly against an in-memory store.
///
/// A paginated query is evaluated once: the first page's evaluation is
/// parked as a cursor under the query's text without `LIMIT`/`OFFSET`,
/// later pages are slices of it, and the page that comes back short (the
/// pagination's last) drops it. Every page is byte-for-byte what a fresh
/// evaluation of that page's query returns — the store is immutable for
/// the endpoint's lifetime — so the cursor is invisible to callers except
/// through [`EndpointStats::evaluations`].
pub struct InProcessEndpoint<'s, 'kg> {
    store: &'s RdfStore<'kg>,
    stats: EndpointStats,
    /// Parked paginations, oldest first. Capped at [`MAX_HANDLERS`]: a
    /// pagination abandoned mid-way is evicted by newer ones, and one
    /// evicted while still live merely evaluates again.
    cursors: Mutex<Vec<(String, Arc<Solved>)>>,
}

impl<'s, 'kg> InProcessEndpoint<'s, 'kg> {
    /// Wraps a store.
    pub fn new(store: &'s RdfStore<'kg>) -> Self {
        Self {
            store,
            stats: EndpointStats::default(),
            cursors: Mutex::new(Vec::new()),
        }
    }

    /// Request accounting so far.
    pub fn stats(&self) -> &EndpointStats {
        &self.stats
    }

    /// The wrapped store.
    pub fn store(&self) -> &'s RdfStore<'kg> {
        self.store
    }

    /// Number of paginations currently parked.
    pub fn open_cursors(&self) -> usize {
        self.lock_cursors().len()
    }

    fn lock_cursors(&self) -> std::sync::MutexGuard<'_, Vec<(String, Arc<Solved>)>> {
        // The table is only pushed to and removed from, so it is valid
        // even if a handler panicked while holding the lock.
        self.cursors.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The parked answer of `key`, taken out of the table when `last`.
    fn parked(&self, key: &str, last: impl FnOnce(&Solved) -> bool) -> Option<Arc<Solved>> {
        let mut cursors = self.lock_cursors();
        let at = cursors.iter().position(|(k, _)| k == key)?;
        if last(&cursors[at].1) {
            Some(cursors.remove(at).1)
        } else {
            Some(Arc::clone(&cursors[at].1))
        }
    }

    /// Evaluates `query` (outside the table lock: handlers evaluate their
    /// subqueries in parallel).
    fn solve(&self, query: &Query) -> Result<Solved, RdfError> {
        self.stats.evaluations.fetch_add(1, Ordering::Relaxed);
        SparqlEngine::new(self.store).solve(query)
    }

    fn park(&self, key: String, solved: Solved) -> Arc<Solved> {
        let solved = Arc::new(solved);
        let mut cursors = self.lock_cursors();
        cursors.retain(|(k, _)| *k != key);
        if cursors.len() == MAX_HANDLERS {
            cursors.remove(0);
        }
        cursors.push((key, Arc::clone(&solved)));
        solved
    }
}

/// What a query's cursor is parked under: its text without the page.
fn cursor_key(query: &Query) -> String {
    let mut unpaged = query.clone();
    unpaged.limit = None;
    unpaged.offset = None;
    unpaged.to_string()
}

impl SparqlEndpoint for InProcessEndpoint<'_, '_> {
    fn select(&self, query: &Query) -> Result<ResultSet, RdfError> {
        let start = Instant::now();
        let key = cursor_key(query);
        let rs = match self.parked(&key, |solved| solved.is_last_page(query)) {
            // The last page took the cursor out of the table; if no other
            // handler still holds it, the page is moved out, not copied.
            Some(solved) => match Arc::try_unwrap(solved) {
                Ok(solved) => solved.into_page(query),
                Err(solved) => solved.page(query),
            },
            None => {
                let solved = self.solve(query)?;
                if solved.is_last_page(query) {
                    // Nothing left to resume: unpaged queries and results
                    // that fit one page never park anything.
                    solved.into_page(query)
                } else {
                    self.park(key, solved).page(query)
                }
            }
        };
        self.stats.record(start, rs.len(), rs.vars.len());
        Ok(rs)
    }

    /// `getGraphSize` shares the pagination's one evaluation: it reads a
    /// parked cursor's row count, or evaluates `query` itself (not a
    /// `COUNT` rewrite of it) and parks that for the pages to come, so
    /// the count is exact under `DISTINCT` too. Booked as the one-row,
    /// one-column request the `COUNT` query would be.
    fn count(&self, query: &Query) -> Result<usize, RdfError> {
        let start = Instant::now();
        let key = cursor_key(query);
        let solved = match self.parked(&key, |_| false) {
            Some(solved) => solved,
            None => self.park(key, self.solve(query)?),
        };
        self.stats.record(start, 1, 1);
        Ok(solved.solutions())
    }
}

/// What a request-handler does when a page request ultimately fails
/// (after any retry policy has been exhausted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FetchMode {
    /// Abort the fetch on the first failed page.
    #[default]
    Strict,
    /// Record the failure, keep fetching the remaining pages, and return
    /// what was retrieved with an explicit completeness fraction.
    Partial,
}

/// Configuration of the parallel paginated retrieval (Algorithm 3 inputs
/// `bs` and `P`), plus the fault-tolerance layer around it: `retry`,
/// `fault`, `page_cache` and `breaker` are the stages of the request
/// pipeline (DESIGN.md §4).
#[derive(Debug, Clone)]
pub struct FetchConfig {
    /// Page size per request (`bs`).
    pub batch_size: usize,
    /// Number of request-handler workers (`P`). The default follows the
    /// process-wide thread count (`--threads` / `KGTOSA_THREADS` /
    /// available parallelism), capped at 16 — past that, extra request
    /// handlers only contend on the store.
    pub threads: usize,
    /// Retry transient endpoint failures per this policy. `None` fails
    /// fast on the first error.
    pub retry: Option<RetryPolicy>,
    /// Deterministic fault injection, for chaos testing the layer above.
    pub fault: Option<FaultPlan>,
    /// Failure handling: strict abort (default) or degrade to a partial
    /// result with a completeness fraction.
    pub mode: FetchMode,
    /// In-memory LRU of page results, shared across fetches of the same
    /// dataset within one process (e.g. `compare` running FG plus three
    /// TOSG patterns).
    pub page_cache: Option<PageCache>,
    /// Circuit breaker shared across fetches against the same backend
    /// (clone of one [`CircuitBreaker`]).
    pub breaker: Option<CircuitBreaker>,
}

impl Default for FetchConfig {
    fn default() -> Self {
        Self {
            batch_size: 100_000,
            threads: kgtosa_par::current_threads().min(MAX_HANDLERS),
            retry: None,
            fault: None,
            mode: FetchMode::Strict,
            page_cache: None,
            breaker: None,
        }
    }
}

/// What a fetch produced, beyond the triples themselves: pagination
/// accounting from which an explicit completeness fraction is derived.
#[derive(Debug)]
pub struct FetchOutcome {
    /// The merged data triples, strictly ascending (sorted, deduplicated)
    /// — in partial mode too. `extract_sparql` merges the runs of its
    /// fetches on that.
    pub triples: Vec<Triple>,
    /// Pages the fetch believes exist (completed + failed, floored by the
    /// `getGraphSize` estimate in partial mode).
    pub planned_pages: usize,
    /// Pages successfully retrieved.
    pub completed_pages: usize,
    /// Pages that ultimately failed (after retries).
    pub failed_pages: usize,
}

impl FetchOutcome {
    /// Fraction of planned pages that were actually retrieved, in
    /// `[0, 1]`. `1.0` means the extraction is complete.
    pub fn completeness(&self) -> f64 {
        if self.planned_pages == 0 {
            1.0
        } else {
            self.completed_pages as f64 / self.planned_pages as f64
        }
    }

    /// Whether every planned page was retrieved.
    pub fn is_complete(&self) -> bool {
        self.failed_pages == 0 && self.completed_pages >= self.planned_pages
    }
}

/// The request pipeline: every request of a fetch that has a fault plan,
/// retry policy, circuit breaker or page cache configured goes through
/// [`Pipeline::send`], which is the one place their order is decided. A
/// fetch builds one, so the fault plan's issue counts and the fetch
/// deadline's clock are per fetch.
pub(crate) struct Pipeline<'a, E> {
    endpoint: &'a E,
    cfg: &'a FetchConfig,
    /// How often each request has been issued, retries included: where in
    /// its scheduled burst the fault plan finds a request.
    issues: Mutex<HashMap<u64, u32>>,
    /// The clock [`RetryPolicy::fetch_deadline`] runs on.
    started: Instant,
}

impl<'a, E: SparqlEndpoint> Pipeline<'a, E> {
    /// The pipeline `cfg` asks for in front of `endpoint`, `None` when it
    /// configures no stage and requests go to the endpoint as they are.
    pub(crate) fn new(endpoint: &'a E, cfg: &'a FetchConfig) -> Option<Self> {
        let staged = cfg.fault.is_some()
            || cfg.retry.is_some()
            || cfg.breaker.is_some()
            || cfg.page_cache.is_some();
        staged.then(|| Self {
            endpoint,
            cfg,
            issues: Mutex::new(HashMap::new()),
            started: Instant::now(),
        })
    }

    /// Sends one request, `call`, under the identity of `request`'s
    /// rendered text — rendered once: the text keys the page cache, its
    /// FNV the fault schedule, the retry jitter and the trace events.
    ///
    /// Page cache outermost: a hit touches nothing else, and a request
    /// that needed retries fills it exactly once, with its final answer.
    /// The breaker next, outside the retry loop: it is charged give-ups
    /// and fatal errors, never the transient attempts a retry absorbed,
    /// and cached pages are served while the backend is quarantined.
    /// Faults innermost: they model the flaky engine, the retries our
    /// client.
    fn send(
        &self,
        request: &Query,
        call: impl Fn() -> Result<ResultSet, RdfError>,
    ) -> Result<ResultSet, RdfError> {
        let FetchConfig { fault, retry, breaker, page_cache, .. } = self.cfg;
        let text = request.to_string();
        // The request's stable identity: two pages of one subquery render
        // differently, so they get independent fault draws, retry jitter
        // and trace ids.
        let key = fnv64(text.as_bytes());
        if let Some(page) = page_cache.as_ref().and_then(|cache| cache.get(&text)) {
            return Ok(page);
        }
        let admission = breaker.as_ref().map(|b| b.admit(key)).transpose()?;
        let request_start = Instant::now();
        let mut attempt = 1u32;
        let outcome = loop {
            let injected = fault.as_ref().map_or(Ok(()), |plan| plan.inject(&self.issues, key));
            let err = match injected.and_then(|()| call()) {
                Ok(answer) => break Ok(answer),
                Err(e) => e,
            };
            let Some(policy) = retry.as_ref().filter(|_| err.is_transient()) else {
                break Err(err);
            };
            if let Err(gave_up) = policy.back_off(key, attempt, request_start, self.started, &err) {
                break Err(gave_up);
            }
            attempt += 1;
        };
        if let (Some(breaker), Some(admission)) = (breaker, admission) {
            breaker.settle(admission, &outcome);
        }
        let answer = outcome?;
        if let Some(cache) = page_cache {
            cache.put(text, answer.clone());
        }
        Ok(answer)
    }
}

impl<E: SparqlEndpoint> SparqlEndpoint for Pipeline<'_, E> {
    fn select(&self, query: &Query) -> Result<ResultSet, RdfError> {
        self.send(query, || self.endpoint.select(query))
    }

    /// `getGraphSize` is, to every stage, the `COUNT` request it would be
    /// on the wire, but reaches the endpoint as `count(query)`, so an
    /// [`InProcessEndpoint`] answers it off the pagination's cursor.
    fn count(&self, query: &Query) -> Result<usize, RdfError> {
        let answer = self.send(&counting(query), || {
            self.endpoint.count(query).map(ResultSet::count_answer)
        })?;
        Ok(counted(&answer))
    }
}

/// Per-subquery result of one request handler.
#[derive(Default)]
struct SubFetch {
    /// The (filtered) data triples of every completed page, as
    /// `[s, p, o]` rows.
    rows: Vec<[u32; 3]>,
    completed_pages: usize,
    exhausted: bool,
    /// `getGraphSize`-based page estimate (0 when not queried/unknown).
    estimate: usize,
    failed_pages: usize,
    error: Option<RdfError>,
}

/// Fetches all data triples matched by a set of subqueries.
///
/// Each subquery must bind the three `triple_vars` to the subject,
/// predicate and object of a matched triple. Subqueries are distributed
/// over `cfg.threads` request handlers on the shared pool; each handler
/// pages its subquery with `LIMIT`/`OFFSET` until exhaustion. Rows with
/// unbound triple variables or synthetic `rdf:type` components are
/// skipped; the merged result is deduplicated (Algorithm 3 line 10).
///
/// The fault-tolerance layer is engaged per `cfg`: requests go through the
/// request pipeline it configures, and [`FetchMode::Partial`] degrades to
/// an incomplete result (with an explicit completeness fraction) instead
/// of aborting.
pub fn fetch_triples_robust<E: SparqlEndpoint>(
    endpoint: &E,
    store: &RdfStore<'_>,
    subqueries: &[Query],
    triple_vars: (&str, &str, &str),
    cfg: &FetchConfig,
) -> Result<FetchOutcome, RdfError> {
    let _guard = kgtosa_obs::span!("rdf.fetch");
    if cfg.batch_size == 0 {
        // A zero-row page is never short, so pagination could not end.
        return Err(RdfError::exec("fetch batch_size must be at least 1"));
    }
    let pipeline = Pipeline::new(endpoint, cfg);
    let endpoint: &dyn SparqlEndpoint = match &pipeline {
        Some(pipeline) => pipeline,
        None => endpoint,
    };

    let per_subquery: Vec<SubFetch> =
        Pool::new(cfg.threads).par_map_collect("rdf.fetch", subqueries, |_, q| {
            page_subquery(endpoint, store, q, triple_vars, cfg)
        });

    // Tally the handlers' accounting and merge their triples.
    let (mut planned, mut completed, mut failed) = (0usize, 0usize, 0usize);
    let mut first_error: Option<RdfError> = None;
    let mut rows = Vec::with_capacity(per_subquery.iter().map(|sub| sub.rows.len()).sum());
    for sub in per_subquery {
        completed += sub.completed_pages;
        failed += sub.failed_pages;
        // Exhausted means the final short page was seen; any failed pages
        // in between are still missing from the result.
        let seen = sub.completed_pages + sub.failed_pages;
        planned += if sub.exhausted { seen } else { sub.estimate.max(seen) };
        if first_error.is_none() {
            first_error = sub.error;
        }
        rows.extend(sub.rows);
    }
    if cfg.mode == FetchMode::Strict {
        if let Some(e) = first_error {
            return Err(e);
        }
    }

    Ok(FetchOutcome {
        triples: sorted_triples(rows),
        planned_pages: planned,
        completed_pages: completed,
        failed_pages: failed,
    })
}

fn page_subquery(
    endpoint: &dyn SparqlEndpoint,
    store: &RdfStore<'_>,
    query: &Query,
    triple_vars: (&str, &str, &str),
    cfg: &FetchConfig,
) -> SubFetch {
    let mut out = SubFetch::default();
    // Partial mode needs to know how far pagination reaches so it can step
    // over a failed page instead of stopping; Algorithm 3's `getGraphSize`
    // provides exactly that. The count is advisory: if it fails too, the
    // handler just cannot continue past an error.
    if cfg.mode == FetchMode::Partial {
        match endpoint.count(query) {
            Ok(rows) => out.estimate = rows.div_ceil(cfg.batch_size),
            Err(e) => kgtosa_obs::info!("rdf.fetch: getGraphSize failed: {e}"),
        }
    }
    let mut page_idx = 0usize;
    loop {
        let offset = page_idx * cfg.batch_size;
        match endpoint.select(&query.with_page(cfg.batch_size, offset)) {
            Ok(page) => {
                kgtosa_obs::counter("rdf.fetch.pages").inc();
                if let Err(e) = page_triples(store, &page, triple_vars, &mut out.rows) {
                    // Misprojected subquery: no page of it can succeed.
                    out.failed_pages += 1;
                    out.error = Some(e);
                    return out;
                }
                out.completed_pages += 1;
                if page.len() < cfg.batch_size {
                    out.exhausted = true;
                    return out;
                }
                page_idx += 1;
            }
            Err(e) => {
                kgtosa_obs::counter("rdf.fetch.pages.failed").inc();
                out.failed_pages += 1;
                if out.error.is_none() {
                    out.error = Some(e);
                }
                page_idx += 1;
                // Only partial mode continues past a failed page, and only
                // while the size estimate says more pages exist.
                if cfg.mode == FetchMode::Strict || page_idx >= out.estimate {
                    return out;
                }
            }
        }
    }
}

/// The distinct triples of `[s, p, o]` rows, strictly ascending, in the
/// rows' buffer. Rows that already strictly ascend, as an out-branch
/// group's pages do, cost one scan. Others are ordered by subject with the
/// store build's digit-skipping radix ([`sort_by_first`]), then each
/// subject's run, a few rows, by comparison ([`sort_subject_runs`]), and
/// deduplicated.
fn sorted_triples(rows: Vec<[u32; 3]>) -> Vec<Triple> {
    let triple = |[s, p, o]: [u32; 3]| Triple::new(Vid(s), Rid(p), Vid(o));
    let unique = rows.windows(2).all(|w| triple(w[0]) < triple(w[1]));
    let rows = if unique { rows } else { sort_by_first(rows) };
    let mut triples: Vec<Triple> = rows.into_iter().map(triple).collect();
    if !unique {
        sort_subject_runs(&mut triples);
        triples.dedup();
    }
    triples
}

/// Appends `page`'s data triples to `out` as `[s, p, o]` rows; nothing
/// when the page does not project `triple_vars`.
fn page_triples(
    store: &RdfStore<'_>,
    page: &ResultSet,
    triple_vars: (&str, &str, &str),
    out: &mut Vec<[u32; 3]>,
) -> Result<(), RdfError> {
    let (cs, cp, co) = (
        page.col(triple_vars.0),
        page.col(triple_vars.1),
        page.col(triple_vars.2),
    );
    let (cs, cp, co) = match (cs, cp, co) {
        (Some(a), Some(b), Some(c)) => (a, b, c),
        _ => {
            return Err(RdfError::exec(format!(
                "subquery does not project triple vars {triple_vars:?}"
            )))
        }
    };
    for i in 0..page.len() {
        let row = page.row(i);
        let (s, p, o) = (row[cs], row[cp], row[co]);
        if s == NULL_ID || p == NULL_ID || o == NULL_ID {
            continue;
        }
        if let Some(t) = store.to_data_triple(s, p, o) {
            out.push(t.raw());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use kgtosa_kg::KnowledgeGraph;

    fn kg(n: usize) -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        for i in 0..n {
            kg.add_triple_terms(
                &format!("a{i}"),
                "Author",
                "writes",
                &format!("p{}", i % 7),
                "Paper",
            );
        }
        kg
    }

    #[test]
    fn endpoint_counts_and_selects() {
        let kg = kg(10);
        let store = RdfStore::new(&kg);
        let ep = InProcessEndpoint::new(&store);
        let q = parse("SELECT ?s ?o WHERE { ?s <writes> ?o }").unwrap();
        assert_eq!(ep.count(&q).unwrap(), 10);
        let rs = ep.select(&q).unwrap();
        assert_eq!(rs.len(), 10);
        assert_eq!(ep.stats().requests(), 2);
        assert!(ep.stats().bytes() > 0);
    }

    #[test]
    fn paginated_fetch_collects_everything() {
        let kg = kg(25);
        let store = RdfStore::new(&kg);
        let ep = InProcessEndpoint::new(&store);
        let q = parse("SELECT ?s ?p ?o WHERE { ?s ?p ?o . ?s a <Author> }").unwrap();
        let cfg = FetchConfig {
            batch_size: 4,
            threads: 3,
            ..FetchConfig::default()
        };
        let triples = fetch_triples_robust(&ep, &store, &[q], ("s", "p", "o"), &cfg)
            .unwrap()
            .triples;
        // 25 writes triples; rdf:type rows are filtered.
        assert_eq!(triples.len(), 25);
        // Pagination forced multiple requests.
        assert!(ep.stats().requests() >= 7);
    }

    #[test]
    fn multiple_subqueries_merge_and_dedup() {
        let kg = kg(8);
        let store = RdfStore::new(&kg);
        let ep = InProcessEndpoint::new(&store);
        let q1 = parse("SELECT ?s ?p ?o WHERE { ?s ?p ?o . ?s a <Author> }").unwrap();
        let q2 = parse("SELECT ?s ?p ?o WHERE { ?s <writes> ?o . ?s ?p ?o }").unwrap();
        let triples = fetch_triples_robust(
            &ep,
            &store,
            &[q1, q2],
            ("s", "p", "o"),
            &FetchConfig {
                batch_size: 100,
                threads: 2,
                ..FetchConfig::default()
            },
        )
        .unwrap()
        .triples;
        assert_eq!(triples.len(), 8, "overlapping subqueries must dedup");
    }

    #[test]
    fn missing_triple_vars_error() {
        let kg = kg(3);
        let store = RdfStore::new(&kg);
        let ep = InProcessEndpoint::new(&store);
        let q = parse("SELECT ?s WHERE { ?s ?p ?o }").unwrap();
        let err = fetch_triples_robust(&ep, &store, &[q], ("s", "p", "o"), &FetchConfig::default());
        assert!(err.is_err());
    }

    #[test]
    fn empty_subquery_list() {
        let kg = kg(3);
        let store = RdfStore::new(&kg);
        let ep = InProcessEndpoint::new(&store);
        let outcome =
            fetch_triples_robust(&ep, &store, &[], ("s", "p", "o"), &FetchConfig::default())
                .unwrap();
        assert!(outcome.triples.is_empty());
    }

    /// Regression: a zero-row page is never "short", so `batch_size: 0`
    /// paged forever (and grew its page list without bound).
    #[test]
    fn zero_batch_size_is_rejected() {
        let kg = kg(3);
        let store = RdfStore::new(&kg);
        let ep = InProcessEndpoint::new(&store);
        let q = parse("SELECT ?s ?p ?o WHERE { ?s ?p ?o . ?s a <Author> }").unwrap();
        for mode in [FetchMode::Strict, FetchMode::Partial] {
            let cfg = FetchConfig {
                batch_size: 0,
                mode,
                ..FetchConfig::default()
            };
            let err =
                fetch_triples_robust(&ep, &store, std::slice::from_ref(&q), ("s", "p", "o"), &cfg)
                    .unwrap_err();
            assert!(matches!(err, RdfError::Exec(_)), "{err}");
        }
        assert_eq!(ep.stats().requests(), 0);
    }

    /// Regression: `count` used to index `rs.row(0)` and panic when the
    /// engine returned an empty result set instead of a zero-count row.
    #[test]
    fn count_of_empty_result_set_is_zero() {
        struct EmptyEndpoint;
        impl SparqlEndpoint for EmptyEndpoint {
            fn select(&self, _query: &Query) -> Result<ResultSet, RdfError> {
                Ok(ResultSet::with_vars(vec!["count".into()]))
            }
        }
        let q = crate::parser::parse("SELECT ?s WHERE { ?s <writes> ?o }").unwrap();
        assert_eq!(EmptyEndpoint.count(&q).unwrap(), 0);
    }

    #[test]
    fn faulty_fetch_with_retry_matches_clean_fetch() {
        let kg = kg(30);
        let store = RdfStore::new(&kg);
        let ep = InProcessEndpoint::new(&store);
        let q = parse("SELECT ?s ?p ?o WHERE { ?s ?p ?o . ?s a <Author> }").unwrap();
        let clean = fetch_triples_robust(
            &ep,
            &store,
            std::slice::from_ref(&q),
            ("s", "p", "o"),
            &FetchConfig {
                batch_size: 4,
                threads: 2,
                ..FetchConfig::default()
            },
        )
        .unwrap()
        .triples;
        let chaotic = fetch_triples_robust(
            &ep,
            &store,
            &[q],
            ("s", "p", "o"),
            &FetchConfig {
                batch_size: 4,
                threads: 2,
                fault: Some(crate::fault::FaultPlan {
                    fault_rate: 0.8,
                    max_burst: 2,
                    ..Default::default()
                }),
                retry: Some(crate::retry::RetryPolicy {
                    base_backoff_us: 1,
                    max_backoff_us: 10,
                    ..Default::default()
                }),
                ..FetchConfig::default()
            },
        )
        .unwrap();
        assert_eq!(chaotic.triples, clean, "transient faults must not alter output");
        assert!((chaotic.completeness() - 1.0).abs() < f64::EPSILON);
        assert!(chaotic.is_complete());
    }

    /// An endpoint where one specific page is permanently broken: offset 8
    /// always fails with a fatal error, everything else works.
    struct BrokenPage<'s, 'kg> {
        ep: InProcessEndpoint<'s, 'kg>,
    }

    impl SparqlEndpoint for BrokenPage<'_, '_> {
        fn select(&self, query: &Query) -> Result<ResultSet, RdfError> {
            if query.offset == Some(8) {
                return Err(RdfError::exec("page permanently broken"));
            }
            self.ep.select(query)
        }
    }

    #[test]
    fn partial_mode_degrades_with_completeness_fraction() {
        let kg = kg(30);
        let store = RdfStore::new(&kg);
        let ep = BrokenPage {
            ep: InProcessEndpoint::new(&store),
        };
        // Binds exactly the 30 `writes` rows (no rdf:type rows), so the
        // page arithmetic below is exact.
        let q = parse("SELECT ?s ?p ?o WHERE { ?s <writes> ?o . ?s ?p ?o }").unwrap();
        let cfg = FetchConfig {
            batch_size: 4,
            threads: 1,
            mode: FetchMode::Partial,
            ..FetchConfig::default()
        };
        // 30 rows / bs 4 -> 8 planned pages, page at offset 8 lost.
        let outcome =
            fetch_triples_robust(&ep, &store, std::slice::from_ref(&q), ("s", "p", "o"), &cfg)
                .unwrap();
        assert_eq!(outcome.planned_pages, 8);
        assert_eq!(outcome.completed_pages, 7);
        assert_eq!(outcome.failed_pages, 1);
        assert_eq!(outcome.triples.len(), 26, "the 4 rows of the broken page are lost");
        assert!((outcome.completeness() - 7.0 / 8.0).abs() < 1e-12);
        assert!(!outcome.is_complete());

        // Strict mode aborts on the same endpoint.
        let strict = fetch_triples_robust(
            &ep,
            &store,
            &[q],
            ("s", "p", "o"),
            &FetchConfig {
                mode: FetchMode::Strict,
                ..cfg
            },
        );
        assert!(strict.is_err());
    }

    /// The fetcher's sort against the comparison sort it replaced, on
    /// seeded row sets of every shape the radix treats differently.
    #[test]
    fn sorted_triples_matches_sort_and_dedup() {
        use crate::fault::mix64;
        let oracle = |rows: &[[u32; 3]]| {
            let mut triples: Vec<Triple> =
                rows.iter().map(|r| Triple::new(Vid(r[0]), Rid(r[1]), Vid(r[2]))).collect();
            triples.sort_unstable();
            triples.dedup();
            triples
        };
        let random = |seed: u64, n: u64, pick: &dyn Fn(u64) -> u32| -> Vec<[u32; 3]> {
            (0..n * 3)
                .map(|i| pick(mix64(seed ^ i)))
                .collect::<Vec<_>>()
                .chunks_exact(3)
                .map(|r| [r[0], r[1], r[2]])
                .collect()
        };
        // Values on both sides of the 11-bit digit boundaries.
        const EDGES: [u32; 10] = [
            0,
            1,
            (1 << 11) - 1,
            1 << 11,
            (1 << 22) - 1,
            1 << 22,
            (1 << 22) + 1,
            u32::MAX - 2,
            u32::MAX - 1,
            u32::MAX,
        ];
        let ascending: Vec<[u32; 3]> = (0..500).map(|i| [i / 50, i / 10 % 5, i % 10]).collect();
        let descending: Vec<[u32; 3]> = ascending.iter().rev().copied().collect();
        let cases: Vec<(&str, Vec<[u32; 3]>)> = vec![
            ("empty", Vec::new()),
            ("one row", vec![[7, 1, 9]]),
            ("all equal", vec![[3, 2, 1]; 100]),
            ("ascending", ascending.clone()),
            ("ascending with repeats", ascending.iter().flat_map(|&r| [r, r]).collect()),
            ("descending", descending),
            ("random with repeats", random(7, 5_000, &|h| (h % 40) as u32)),
            ("random wide ids", random(11, 5_000, &|h| h as u32)),
            ("digit edges", random(13, 3_000, &|h| EDGES[(h % 10) as usize])),
        ];
        for (name, rows) in cases {
            assert_eq!(sorted_triples(rows.clone()), oracle(&rows), "{name}");
        }
    }
}
