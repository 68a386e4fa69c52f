//! # kgtosa-models — the six HGNN training methods of the evaluation
//!
//! Faithful from-scratch implementations of the training *regimes* the
//! paper evaluates KG-TOSA with (§V-A3):
//!
//! | method | task | regime |
//! |---|---|---|
//! | [`rgcn_nc::train_rgcn_nc`] | NC | full-batch message passing, no sampling |
//! | [`saint_nc::train_graphsaint_nc`] | NC | per-epoch subgraph sampling (URW or BRW) + loss normalization |
//! | [`shadow_nc::train_shadowsaint_nc`] | NC | per-target bounded ego subgraphs |
//! | [`sehgnn_nc::train_sehgnn_nc`] | NC | one-shot metapath pre-aggregation + MLP |
//! | [`rgcn_lp::train_rgcn_lp`] | LP | RGCN encoder + DistMult decoder |
//! | [`morse::train_morse_lp`] | LP | entity-independent initializer + TransE (MorsE-TransE) |
//! | [`lhgnn::train_lhgnn_lp`] | LP | latent-type-weighted message passing + DistMult |
//!
//! Every trainer accepts the same dataset/config types, builds its run
//! state and hands it to one crate-private epoch loop
//! (`common::run_epochs`: resume → epochs → checkpoints → report), which
//! emits a [`common::TrainReport`] covering accuracy/Hits@10, training and
//! inference time, parameter count, and a convergence trace — the exact
//! quantities Figures 1/6/7/9 and Table IV report.

pub mod checkpoint;
pub mod common;
pub mod infer;
pub mod lhgnn;
pub mod lp_common;
pub mod morse;
pub mod rgcn_basis_nc;
pub mod rgcn_lp;
pub mod rgcn_nc;
pub mod registry;
pub mod saint_nc;
pub mod sehgnn_nc;
pub mod shadow_nc;
pub mod stack;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod testutil;
pub mod view;

pub use checkpoint::{parse_checkpoint_bytes, state_fingerprint, CheckpointConfig, RawCheckpoint};
pub use common::{LpDataset, NcDataset, TracePoint, TrainConfig, TrainReport};
pub use infer::{NcModelShape, RgcnNcModel};
pub use registry::{
    inspect_checkpoint, read_validated_state, CheckpointInfo, CheckpointRegistry,
};
pub use lhgnn::train_lhgnn_lp;
pub use lp_common::{
    corrupt_entity, evaluate_ranking, evaluate_ranking_filtered, evaluate_ranking_sided, Decoder,
    RankSide,
};
pub use morse::train_morse_lp;
pub use rgcn_lp::train_rgcn_lp;
pub use rgcn_basis_nc::train_rgcn_basis_nc;
pub use rgcn_nc::train_rgcn_nc;
pub use saint_nc::{train_graphsaint_nc, SaintSampler};
pub use sehgnn_nc::train_sehgnn_nc;
pub use shadow_nc::train_shadowsaint_nc;
pub use stack::{EmbeddingTable, RgcnLayerOpt, RgcnStack, StackCache};
pub use view::SubgraphView;
