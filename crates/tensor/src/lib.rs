//! # kgtosa-tensor — minimal dense linear algebra for GNN training
//!
//! Rust has no mature GNN/tensor ecosystem (the paper's methods all run on
//! PyTorch), so this crate provides the numeric substrate from scratch:
//! a dense row-major [`Matrix`] with the transpose-variant products that
//! hand-written backward passes need, Xavier initialization, element/row
//! operations (ReLU, softmax), and dense + sparse-row Adam.
//!
//! Design notes:
//! * `f32` throughout — all referenced GNN systems train in fp32;
//! * no autograd: `kgtosa-nn` layers implement explicit backward passes,
//!   property-tested against finite differences;
//! * `*_into` variants reuse buffers in the training hot loop;
//! * the dense products run on a cache-blocked packed SIMD core (`gemm`,
//!   `simd`) with a canonical reduction order, so tiled/vectorized kernels
//!   are bit-identical to a naive loop at any thread count and SIMD level;
//! * scratch memory is explicit: `Workspace` (thread-local packing
//!   buffers inside kernels) and `ScratchArena` (trainer-owned recyclable
//!   intermediates).

pub mod adam;
mod gemm;
pub mod init;
pub mod matrix;
pub mod ops;
pub mod simd;
pub mod state;
pub mod workspace;

pub use adam::{Adam, AdamConfig, SparseAdam};
pub use init::xavier_uniform;
pub use matrix::Matrix;
pub use ops::{
    argmax_rows, relu_backward, relu_inplace, sigmoid, softmax_cross_entropy,
    softmax_cross_entropy_into, softmax_rows, softmax_rows_into, IGNORE_LABEL,
};
pub use simd::{avx2_supported, set_simd_level, simd_level, F32x8, SimdLevel};
pub use state::StateIo;
pub use workspace::{with_workspace, ScratchArena, Workspace};
