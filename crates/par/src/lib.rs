//! # kgtosa-par — deterministic parallel kernel layer
//!
//! Every hot kernel in the workspace (matmul, CSR mean-aggregation, PPR
//! push, biased random walks, CSR construction, paginated SPARQL fetch)
//! runs through this crate's primitives so that one knob — the global
//! thread count — controls all of them, and so that one contract holds
//! everywhere:
//!
//! > **Parallel output is bit-identical to serial output at any thread
//! > count.**
//!
//! The contract is earned structurally, not by luck:
//!
//! * **Fixed chunk boundaries.** Work is split into chunks whose
//!   boundaries depend only on the *problem shape* (row count, column
//!   count), never on the thread count. [`chunk_rows`] is the shared
//!   policy.
//! * **Disjoint writes or ordered reduction.** Row-blocked kernels write
//!   disjoint output rows, so float operations per output element happen
//!   in exactly the serial order. Kernels that must reduce across chunks
//!   (e.g. `t_matmul`) produce one partial accumulator per chunk and
//!   merge them **in fixed chunk order** — and they use the same chunked
//!   structure when running serially, so thread count never changes the
//!   floating-point association.
//! * **Indexed collection.** [`Pool::par_map_collect`] tags every result
//!   with its input index and sorts by it, so dynamic (work-stealing
//!   style) scheduling never reorders results.
//!
//! The pool itself is a *scoped* pool: each parallel region spawns
//! short-lived threads with `std::thread::scope`. That keeps the crate
//! std-only, borrow-friendly (kernels can capture `&Matrix` without
//! `Arc`), and free of shutdown hazards; the spawn cost (~tens of
//! microseconds) is amortized by only going parallel above a work
//! threshold ([`MIN_PAR_WORK`]).
//!
//! Thread-count resolution, highest priority first:
//!
//! 1. [`with_threads`] scope override (tests, benchmarks),
//! 2. [`set_threads`] (the CLI's `--threads N`),
//! 3. `KGTOSA_THREADS` environment variable,
//! 4. `std::thread::available_parallelism()`.
//!
//! Observability: parallel regions open a `par.<kernel>` span, update the
//! `par.queue_depth` gauge while chunks drain, and record tasks handled
//! per worker in the `par.tasks_per_worker` histogram (mirroring the RDF
//! paged fetcher's utilization metric, now shared by every kernel).

mod pool;
mod shared;

pub use pool::{
    chunk_rows, current_threads, recommended_threads, set_threads, with_threads, Pool,
    CHUNK_ELEMS, MIN_PAR_WORK,
};
pub use shared::SharedSliceMut;
