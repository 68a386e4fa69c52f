//! # kgtosa-datagen — the benchmark generator
//!
//! The paper evaluates on MAG-42M, YAGO-30M, DBLP-15M, ogbl-wikikg2 and
//! YAGO3-10 (Table I) with six node-classification and three
//! link-prediction tasks (Table II). Those datasets are hundreds of
//! millions of triples served from 3 TB machines; this crate generates
//! seeded synthetic KGs reproducing their *shape* — schema, type counts,
//! heavy-tailed degrees, community-correlated labels — at laptop scale
//! (see the substitution table in DESIGN.md).
//!
//! ```
//! let d = kgtosa_datagen::mag(0.05, 7);
//! assert_eq!(d.gen.kg.num_classes(), 58);   // Table I: 58 node types
//! assert_eq!(d.nc.len(), 2);                // PV and PD tasks
//! ```

pub mod kgs;
pub mod spec;
pub mod tasks;

pub use kgs::{all_datasets, by_name, dblp, mag, wikikg2, yago30, yago3_10, Dataset};
pub use spec::{generate, EdgeTypeSpec, GeneratedKg, KgSpec, NodeTypeSpec};
pub use tasks::{make_lp_task, make_nc_task, LpTask, NcTask, SplitKind};
