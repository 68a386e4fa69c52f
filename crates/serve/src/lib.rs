//! `kgtosa serve` — an overload-safe extraction/inference daemon.
//!
//! Promotes the obs metrics listener into a long-lived service: it loads
//! one KG snapshot and a checkpoint registry at startup, then serves
//! concurrent `POST /extract` (task/pattern → TOSG, through the artifact
//! cache, page cache, retry, and circuit breaker) and `POST /infer`
//! (checkpoint fingerprint → frozen-model predictions), each request in
//! its own telemetry context.
//!
//! The robustness contract, end to end:
//!
//! - **Admission control** — bounded queue + in-flight byte budget; past
//!   either, requests are shed with `429` (`serve.sheds`) instead of
//!   letting latency collapse for everyone ([`daemon`]).
//! - **Deadline budgets** — each request carries a clamped deadline; time
//!   burned queueing is charged against it, and what remains caps the
//!   retry/fetch deadlines via `RetryPolicy::capped_to_budget`
//!   ([`handlers`]).
//! - **Circuit breaking** — consecutive endpoint giveups trip a shared
//!   deterministic breaker; while open, warm artifact-cache extractions
//!   are still answered, marked `"degraded": true`, and misses fail fast
//!   with `503` rather than queue behind a dead backend.
//! - **Panic isolation** — a panicking handler answers `500`
//!   (`serve.handler_panics`); the daemon keeps serving.
//! - **Graceful drain** — SIGTERM/SIGINT/`/admin/shutdown` stops
//!   admission at once, finishes (or deadline-cancels) queued work, joins
//!   the pool, and hands back a [`DrainReport`] so the caller can flush
//!   sinks and exit 0 ([`signal`], [`daemon`]).
//! - **Live updates** — `POST /admin/update` applies a checked triple
//!   delta: the KG epoch (store, adjacency, fingerprints, page cache) is
//!   rebuilt off to the side and swapped atomically, then stale artifact
//!   cache entries are incrementally repaired or invalidated while
//!   untouched ones migrate to the new fingerprint ([`update`],
//!   [`state::KgEpoch`]).

pub mod client;
pub mod config;
pub mod daemon;
pub mod handlers;
pub mod signal;
pub mod state;
pub mod update;

pub use client::HttpReply;
pub use config::ServeConfig;
pub use daemon::{DrainReport, Server};
pub use handlers::handle_guarded;
pub use state::{KgEpoch, ModelError, ServeState};
