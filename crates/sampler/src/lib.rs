//! # kgtosa-sampler — graph samplers for HGNN training and TOSG extraction
//!
//! The sampling toolbox used by both the baselines and KG-TOSA itself:
//!
//! * [`walk`] — GraphSAINT's uniform random walk (URW) and the paper's
//!   biased random walk (BRW, Algorithm 1),
//! * [`ppr`] — approximate Personalized PageRank via Andersen–Chung–Lang
//!   push over a dense reusable scratch, the influence function of Eq. 3,
//! * [`ibs`] — influence-based sampling (Algorithm 2): parallel per-target
//!   PPR, top-k selection, partitioning,
//! * [`shadow`] — ShaDow-GNN bounded ego-subgraphs,
//! * [`edge`] — GraphSAINT's variance-minimizing edge sampler,
//! * [`saint`] — GraphSAINT loss-normalization weights.

pub mod edge;
pub mod ibs;
pub mod ppr;
pub mod saint;
pub mod shadow;
pub mod walk;

pub use edge::edge_sample;
pub use ibs::{ibs_partitions, ibs_sample, IbsConfig, Partition};
pub use ppr::{approximate_ppr, approximate_ppr_batch, top_k, PprConfig, PprScratch, PprWork};
pub use saint::node_norm_weights;
pub use shadow::{ego_subgraph, ShadowConfig};
pub use walk::{biased_random_walk, uniform_random_walk, WalkConfig};
