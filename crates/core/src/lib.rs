//! # kgtosa-core — KG-TOSA: task-oriented subgraph extraction
//!
//! The paper's primary contribution (Abdallah et al., ICDE 2024): automate
//! the extraction of a **task-oriented subgraph** (TOSG, Definition 3.1)
//! from a large knowledge graph so heterogeneous GNNs train faster and
//! smaller without losing accuracy.
//!
//! * [`pattern`] — the generic graph pattern `KG-TOSA_{d,h}` (Figure 3)
//!   and extraction-task descriptions,
//! * [`bgp`] — compiles the pattern into SPARQL basic graph patterns
//!   (`Q^{d1h1}`…`Q^{d2h2}`, §IV-C),
//! * [`extract`] — the three extraction methods (Algorithms 1-3) plus the
//!   URW reference baseline,
//! * [`metapath_extract`] — a fourth, metapath-guided extractor (extension),
//! * [`pipeline`] — the Figure 4 extract → transform → train workflow with
//!   per-stage cost accounting (Table IV),
//! * [`quality`] — the Table III data-sufficiency / topology indicators.
//!
//! ```
//! use kgtosa_core::{extract_sparql, ExtractionTask, GraphPattern};
//! use kgtosa_kg::KnowledgeGraph;
//! use kgtosa_rdf::{FetchConfig, RdfStore};
//!
//! let mut kg = KnowledgeGraph::new();
//! kg.add_triple_terms("p1", "Paper", "publishedIn", "v1", "Venue");
//! kg.add_triple_terms("a1", "Author", "writes", "p1", "Paper");
//! let targets = kg.nodes_of_class(kg.find_class("Paper").unwrap());
//! let task = ExtractionTask::node_classification("PV", "Paper", targets);
//!
//! let store = RdfStore::new(&kg);
//! let tosg = extract_sparql(&store, &task, &GraphPattern::D1H1,
//!                           &FetchConfig::default()).unwrap();
//! // d1h1 keeps the paper's outgoing edge but not the author's incoming one.
//! assert_eq!(tosg.subgraph.kg.num_triples(), 1);
//! ```

pub mod bgp;
pub mod cache;
pub mod delta;
pub mod extract;
pub mod metapath_extract;
pub mod pattern;
pub mod pipeline;
pub mod quality;
pub mod repair;

pub use bgp::{compile_subqueries, compile_union, Subquery};
pub use cache::{
    decode_extraction, encode_extraction, encode_extraction_parts, extract_and_publish,
    extract_sparql_cached, extract_sparql_cached_with_fingerprint, load_cached, migrate_payload,
    sparql_cache_key, task_label, task_params, DecodedExtraction, ExtractionView,
};
pub use delta::{sweep_cache_after_delta, ClassPairCounts, DeltaSweepOutcome, StalenessOracle};
pub use extract::{
    extract_brw, extract_ibs, extract_sparql, extract_urw, ExtractionReport, ExtractionResult,
};
pub use metapath_extract::{extract_metapath, MetapathConfig};
pub use pattern::{Direction, ExtractionTask, GraphPattern};
pub use pipeline::{run_full_graph, run_on_tosg, transform, CostBreakdown};
pub use quality::QualityRow;
pub use repair::{
    parent_triples, repair_entry, repair_extraction, FallbackReason, RepairConfig, RepairReport,
};
