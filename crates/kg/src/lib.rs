//! # kgtosa-kg — knowledge-graph data model
//!
//! The foundation layer of the KG-TOSA reproduction: interned-term
//! knowledge graphs (Definition 2.1 of the paper), CSR adjacency views for
//! message passing and sampling, induced-subgraph extraction, and the
//! data-sufficiency / graph-topology quality statistics of §III-A.
//!
//! Everything here is pure data structure — no randomness, no training,
//! no file I/O but [`frame`]'s. Other crates layer the RDF engine
//! (`kgtosa-rdf`), samplers (`kgtosa-sampler`), the KG-TOSA extraction
//! algorithms (`kgtosa-core`) and GNN methods (`kgtosa-models`) on top.
//!
//! ## Quick tour
//!
//! ```
//! use kgtosa_kg::{KnowledgeGraph, HeteroGraph, NodeSet, induced_subgraph};
//!
//! let mut kg = KnowledgeGraph::new();
//! kg.add_triple_terms("a1", "Author", "writes", "p1", "Paper");
//! kg.add_triple_terms("p1", "Paper", "publishedIn", "v1", "Venue");
//!
//! let graph = HeteroGraph::build(&kg);
//! assert_eq!(graph.num_edges(), 2);
//!
//! let keep = NodeSet::from_iter(kg.num_nodes(), [
//!     kg.find_node("a1").unwrap(),
//!     kg.find_node("p1").unwrap(),
//! ]);
//! let sub = induced_subgraph(&kg, &keep);
//! assert_eq!(sub.kg.num_triples(), 1); // only a1-writes-p1 survives
//! ```

pub mod delta;
pub mod dict;
pub mod fingerprint;
pub mod frame;
pub mod fxhash;
pub mod graph;
pub mod ids;
pub mod metapath;
pub mod snapshot;
pub mod stats;
pub mod subgraph;
pub mod triples;

pub use delta::{apply_delta, DeltaApplication, DeltaError, DeltaOp, KgDelta, MultisetFingerprint};
pub use dict::Dictionary;
pub use fxhash::{FxHashMap, FxHashSet};
pub use graph::{Csr, HeteroGraph, RelAdj};
pub use ids::{Cid, Rid, Vid};
pub use metapath::{count_instances, schema_metapaths, Metapath, MetapathStep, SchemaMetapath};
pub use fingerprint::{fingerprint, fnv64, Fnv64, HashingWriter};
pub use frame::{read_framed, stage_framed, write_framed, StagedFrame};
pub use snapshot::{
    read_snapshot, write_snapshot, write_snapshot_fingerprinted, SnapshotView, SnapshotVisitor,
};
pub use stats::{distances_to_targets, neighbor_type_entropy, quality, SubgraphQuality};
pub use subgraph::{
    induced_subgraph, live_classes, live_relations, map_targets, sort_subject_runs, sorted_unique,
    subgraph_from_triples_and_nodes, InducedSubgraph, NodeSet,
};
pub use triples::{merge_sorted, KnowledgeGraph, Triple};
