//! # kgtosa-rdf — an in-memory RDF engine with a SPARQL subset
//!
//! KG-TOSA's headline extraction method (§IV-C of the paper) offloads
//! subgraph matching to an RDF engine so it can exploit the triple
//! orderings such engines maintain by default. This crate supplies that
//! substrate from scratch:
//!
//! * [`hexastore::Hexastore`] — triple storage indexed under the five
//!   orderings a pattern lookup can reach, with `O(log m + k)` pattern
//!   scans (after Weiss et al., VLDB'08),
//! * [`store::RdfStore`] — term encoding over a [`kgtosa_kg::KnowledgeGraph`]
//!   plus materialized `rdf:type` assertions,
//! * [`parser`] / [`ast`] — a SPARQL subset covering exactly the query
//!   forms KG-TOSA generates (`SELECT`, `DISTINCT`, BGPs, `UNION`,
//!   `LIMIT`/`OFFSET`, `COUNT`, `PREFIX`, the `a` keyword),
//! * [`exec::SparqlEngine`] — greedy selectivity-ordered index nested-loop
//!   join evaluation,
//! * [`endpoint`] — the endpoint trait plus Algorithm 3's parallel
//!   paginated triple fetcher.
//!
//! ```
//! use kgtosa_kg::KnowledgeGraph;
//! use kgtosa_rdf::{RdfStore, SparqlEngine};
//!
//! let mut kg = KnowledgeGraph::new();
//! kg.add_triple_terms("a1", "Author", "writes", "p1", "Paper");
//! let store = RdfStore::new(&kg);
//! let engine = SparqlEngine::new(&store);
//! let rs = engine.execute_str("SELECT ?p WHERE { ?p a <Paper> }").unwrap();
//! assert_eq!(rs.len(), 1);
//! ```

pub mod ast;
pub mod breaker;
pub mod checkpoint;
pub mod endpoint;
pub mod error;
pub mod exec;
pub mod fault;
pub mod hexastore;
pub mod lexer;
pub mod ntriples;
pub mod pagecache;
pub mod parser;
pub mod retry;
pub mod store;

pub use ast::{Element, Group, Query, Selection, Term, TriplePattern};
pub use breaker::{BreakerPolicy, BreakerState, BreakerTransition, CircuitBreaker};
pub use checkpoint::FetchCheckpoint;
pub use endpoint::{
    fetch_triples_robust, EndpointStats, FetchConfig, FetchMode, FetchOutcome, InProcessEndpoint,
    SparqlEndpoint,
};
pub use error::RdfError;
pub use fault::{FaultDecision, FaultPlan};
pub use retry::RetryPolicy;
pub use exec::{ResultSet, SparqlEngine, NULL_ID};
pub use hexastore::{Hexastore, Order};
pub use ntriples::{read_ntriples, write_ntriples};
pub use pagecache::{PageCache, PageCacheStats, DEFAULT_PAGE_CACHE_BYTES};
pub use parser::parse;
pub use store::{NodeTerm, RdfStore, RDF_TYPE};
