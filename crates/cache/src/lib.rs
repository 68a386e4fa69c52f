//! # kgtosa-cache — content-addressed extraction artifact cache
//!
//! KG-TOSA's cost model (paper §V-C) treats TOSG extraction as a
//! one-time cost amortized over many training runs. This crate is that
//! amortization layer: an on-disk store of extraction artifacts keyed by
//! *content* — the source graph's fingerprint, the BGP shape, the task
//! spec, and the extractor with its parameters — so a repeated
//! `extract`/`train`/`compare` invocation loads the subgraph instead of
//! re-running BGP pagination against the endpoint.
//!
//! The crate is deliberately byte-oriented: it stores and validates
//! opaque payloads. The extraction payload codec (subgraph snapshot +
//! report + quality metrics) lives in `kgtosa-core`, which is also the
//! consult-before-extract call site; the CLI layers directory selection
//! (`--cache-dir` / `KGTOSA_CACHE_DIR`) and the `cache` subcommand on
//! top.
//!
//! Robustness contract (enforced by `tests/corruption.rs` and the
//! differential harness in `tests/differential.rs`):
//! - publishes are atomic (tmp + rename);
//! - artifacts are validated end-to-end (magic, version, embedded key,
//!   length, checksum) before a single payload byte is trusted;
//! - corrupt entries are quarantined and the lookup degrades to a clean
//!   re-extract — never a panic, never a wrong graph;
//! - a byte budget is enforced by least-recently-used eviction.

pub mod invalidate;
pub mod key;
pub mod store;

pub use invalidate::{SweepAction, SweepReport};
pub use key::{CacheKey, FORMAT_VERSION};
pub use store::{
    ArtifactCache, CacheLookup, CacheOutcome, CacheStats, DiskStats, EntryInfo, Payload,
};
