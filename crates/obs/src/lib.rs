//! # kgtosa-obs — observability for the KG-TOSA pipeline
//!
//! The paper's argument is quantitative: Table IV decomposes end-to-end
//! cost into extraction / transformation / training time, and the memory
//! figures track RAM alongside accuracy. This crate gives the whole
//! workspace one telemetry layer to produce those numbers:
//!
//! * **Spans** — [`span!`] opens an RAII timer that records wall time,
//!   live heap, peak-heap growth, and allocation count (via
//!   `kgtosa-memtrack`) under a hierarchical dotted name
//!   (`pipeline.transform`, `extract.brw`, …). Spans nest per thread.
//! * **Metrics registry** — process-global named [`Counter`]s,
//!   [`Gauge`]s, and fixed-bucket [`Histogram`]s, all lock-free on the
//!   hot path.
//! * **Training telemetry** — a [`TrainObserver`] hook threaded through
//!   the model trainers' config so every epoch reports loss, wall time,
//!   and heap without touching the math.
//! * **Progress / ETA** — long phases register [`Progress`] tasks
//!   (epochs, fetch pages, sampler roots); the snapshot derives
//!   throughput and an ETA, and a background heartbeat periodically
//!   flushes it into the trace so killed runs stay inspectable.
//! * **Live serving** — an embedded std-only HTTP server
//!   ([`serve_metrics`], `--metrics-addr` / `KGTOSA_METRICS_ADDR`)
//!   exposes `/metrics` in Prometheus text format plus `/spans`,
//!   `/progress` and `/prof` as JSON while a job runs.
//! * **Cost attribution** — [`self_times`] gives every span its *self*
//!   time (wall minus direct children), a partition of the root's wall
//!   clock; `kgtosa trace-summary` prints it for a finished trace
//!   ([`render_trace_table`]) and `/prof` serves it for a live run.
//! * **Regression diffing** — [`diff_trace_texts`] compares two JSONL
//!   traces or `BENCH_*.json` reports per span on wall time, peak heap,
//!   and allocations; `kgtosa trace-diff` and the CI kernel gate sit on
//!   top.
//! * **Sinks** — a machine-readable JSONL event stream (enabled with
//!   `--trace-out` or `KGTOSA_TRACE=<path>`), a human-readable stderr
//!   summary tree ([`render_summary_tree`]), and the Chrome/Perfetto
//!   export below for the flame view.
//! * **Crash-path telemetry** — [`install_panic_hook`] arms a panic hook
//!   that emits a final `panic` event (message, location, live span
//!   stack) and flushes the trace before the process dies.
//! * **Request-scoped contexts** — a [`TelemetryContext`] layers its own
//!   span tree and scoped instrument deltas over the global registry;
//!   workers inherit the spawning context across thread boundaries, so
//!   concurrent requests stay attributable. The Chrome-trace exporter
//!   ([`arm_chrome`] / [`write_chrome_trace`]) renders contexts as
//!   Perfetto process tracks, and the SLO watchdog
//!   ([`parse_slo_spec`] / [`start_slo_watchdog`]) enforces declarative
//!   per-context latency/retry/completeness/cache-hit requirements.
//!
//! Everything is std-only: no external dependencies, no global setup
//! required. With no sink installed, a span costs two `Instant::now`
//! calls, two atomic loads, and one registry update.

mod chrome;
mod context;
mod diff;
pub mod httpd;
mod json;
mod panic_hook;
mod prof;
mod progress;
mod prometheus;
mod registry;
mod serve;
mod sink;
mod slo;
mod span;
mod summary;
mod train;

pub use chrome::{
    arm_chrome, render_chrome_trace, sample_counter_tracks, validate_chrome_trace,
    write_chrome_trace, ChromeTraceStats,
};
pub use context::{
    active_context_count, context_active, contexts_json, ContextScope, CtxHistStat, CtxSpanStat,
    TelemetryContext,
};
pub use diff::{
    diff_spans, diff_trace_texts, parse_trace_or_bench, render_markdown, DiffOptions, DiffReport,
    DiffRow,
};
pub use httpd::{
    builtin_route, read_request, write_response, HttpRequest, HttpResponse, RequestError,
    MAX_BODY_BYTES, MAX_HEAD_BYTES,
};
pub use json::Json;
pub use prof::{prof_json, registry_aggs, self_times, SelfTime};
pub use progress::{
    emit_heartbeat, progress_json, progress_snapshot, progress_task, reset_progress,
    Progress, ProgressSnapshot,
};
pub use panic_hook::{install_panic_hook, panic_hook_installed};
pub use prometheus::render_prometheus;
pub use registry::{
    counter, gauge, gauge_f64, histogram, histogram_with_bounds, metrics_snapshot,
    reset_registry, span_stats, Counter, Gauge, GaugeF64, Histogram, SpanStat,
};
pub use serve::{init_serve_from_env, register_core_metrics, serve_addr, serve_metrics};
pub use sink::{
    emit_event, info_str, init_trace_from_env, init_trace_to, is_quiet, set_quiet, shutdown,
    trace_enabled,
};
pub use slo::{
    evaluate_slo_now, evaluate_slo_rules, install_slo_rules, parse_slo_spec,
    slo_interval_from_env, slo_ready, slo_rules_installed, slo_violation_count,
    start_slo_watchdog, SloRule, SloViolation, DEFAULT_SLO_MS,
};
pub use span::{span, SpanGuard, SpanRecord};
pub use summary::{render_summary_tree, render_trace_table, summarize_jsonl, SpanAgg};
pub use train::{EpochEvent, Observer, TelemetryObserver, TrainObserver};

/// Whether any live telemetry consumer exists — a JSONL trace sink, the
/// embedded metrics server, or a [`TelemetryContext`] entered on the
/// calling thread (its scoped deltas feed `/contexts` and the SLO
/// watchdog, so quality gauges and progress tasks must be captured for
/// it). Instrumentation sites with a non-trivial cost (e.g. computing
/// subgraph quality indicators, registering progress tasks) gate on this
/// so silent runs stay untouched.
pub fn telemetry_active() -> bool {
    trace_enabled() || serve_addr().is_some() || context_active()
}

/// Opens a hierarchical span: `let _s = span!("extract.brw");`.
///
/// The returned guard records on drop, or call `.finish()` to consume it
/// and get the [`SpanRecord`] back (wall seconds, heap deltas).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// Progress chatter: goes to stderr unless `--quiet`, and is mirrored
/// into the JSONL trace as a `log` event when tracing is enabled.
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        $crate::info_str(&format!($($arg)*))
    };
}
