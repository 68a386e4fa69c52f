//! Progress / ETA tracking for long-running phases, plus the heartbeat
//! flusher that keeps the JSONL trace usable when a run is killed.
//!
//! Long phases (per-epoch training loops, paged RDF fetch, BRW/IBS
//! sampling) register a [`Progress`] task with a unit count; workers call
//! [`Progress::advance`] as units complete. The process-global snapshot
//! ([`progress_snapshot`] / [`progress_json`]) derives throughput and an
//! ETA from elapsed wall time, and is served live on `/progress` by
//! [`crate::builtin_route`] and mirrored into the JSONL trace by the
//! heartbeat thread.
//!
//! Everything on the hot path is one atomic add; registration takes a
//! short write lock once per phase.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

use crate::json::Json;
use crate::sink;

/// Sentinel bit pattern meaning "still running" in `end_s_bits`.
const RUNNING: u64 = u64::MAX;

#[derive(Debug)]
struct TaskState {
    name: String,
    /// Telemetry context current when the task was registered, if any.
    ctx: Option<u64>,
    /// Total units of work, when known (otherwise no ETA, rate only).
    total: Option<u64>,
    done: AtomicU64,
    started: Instant,
    /// Elapsed seconds at completion as f64 bits, or [`RUNNING`].
    end_s_bits: AtomicU64,
}

impl TaskState {
    fn elapsed_s(&self) -> f64 {
        let bits = self.end_s_bits.load(Ordering::Relaxed);
        if bits == RUNNING {
            self.started.elapsed().as_secs_f64()
        } else {
            f64::from_bits(bits)
        }
    }

    fn finished(&self) -> bool {
        self.end_s_bits.load(Ordering::Relaxed) != RUNNING
    }
}

/// Handle to one registered progress task. Cloning shares the task;
/// dropping the last handle marks the task finished.
#[derive(Debug, Clone)]
pub struct Progress {
    state: Arc<TaskState>,
}

impl Progress {
    /// Records `n` completed units.
    pub fn advance(&self, n: u64) {
        self.state.done.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the completed-unit count (for phases that track an
    /// absolute position, e.g. epoch index).
    pub fn set_done(&self, n: u64) {
        self.state.done.store(n, Ordering::Relaxed);
    }

    /// Marks the task complete now (idempotent; also done by `Drop` of the
    /// last handle).
    pub fn finish(&self) {
        let elapsed = self.state.started.elapsed().as_secs_f64();
        let _ = self.state.end_s_bits.compare_exchange(
            RUNNING,
            elapsed.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }
}

impl Drop for Progress {
    fn drop(&mut self) {
        // The registry itself holds one Arc, so "last external handle" is
        // a strong count of 2: this handle plus the registry's.
        if Arc::strong_count(&self.state) <= 2 {
            self.finish();
        }
    }
}

/// One task's state at snapshot time.
#[derive(Debug, Clone)]
pub struct ProgressSnapshot {
    /// Task name as registered (`train[RGCN]`, `rdf.fetch`, `sample.brw`).
    pub name: String,
    /// Units completed.
    pub done: u64,
    /// Total units, when known.
    pub total: Option<u64>,
    /// Seconds since registration (frozen at completion).
    pub elapsed_s: f64,
    /// Completed units per second.
    pub rate_per_s: f64,
    /// Estimated seconds to completion; `None` while the total is unknown,
    /// no unit has completed yet, or the task already finished.
    pub eta_s: Option<f64>,
    /// Whether the phase has completed.
    pub finished: bool,
    /// Telemetry context the task belongs to, when registered inside one.
    pub ctx: Option<u64>,
}

fn tasks() -> &'static RwLock<Vec<Arc<TaskState>>> {
    static TASKS: OnceLock<RwLock<Vec<Arc<TaskState>>>> = OnceLock::new();
    TASKS.get_or_init(|| RwLock::new(Vec::new()))
}

/// Oldest finished tasks are evicted past this many registrations, so a
/// long-lived server process cannot grow the registry without bound.
const MAX_TASKS: usize = 256;

/// Registers a new progress task. `total` is the unit count when known
/// (`None`, or `Some(0)`, leaves the ETA open).
pub fn progress_task(name: &str, total: Option<u64>) -> Progress {
    let state = Arc::new(TaskState {
        name: name.to_string(),
        ctx: crate::context::current_id(),
        total: total.filter(|&n| n > 0),
        done: AtomicU64::new(0),
        started: Instant::now(),
        end_s_bits: AtomicU64::new(RUNNING),
    });
    let mut list = tasks().write().unwrap_or_else(std::sync::PoisonError::into_inner);
    if list.len() >= MAX_TASKS {
        if let Some(i) = list.iter().position(|t| t.finished()) {
            list.remove(i);
        }
    }
    list.push(Arc::clone(&state));
    Progress { state }
}

/// Derives `(rate_per_s, eta_s)` from raw task state. Total guard rails:
/// the rate is always finite (a zero or denormal-tiny elapsed time yields
/// rate 0, not `inf`), and the ETA is `None` rather than `NaN`/`inf` for
/// zero-rate, unknown-total, or finished tasks — so neither `/progress`
/// JSON nor the Prometheus exposition can ever carry a non-finite number
/// born here.
pub(crate) fn derive_rate_eta(
    done: u64,
    total: Option<u64>,
    elapsed_s: f64,
    finished: bool,
) -> (f64, Option<f64>) {
    let raw_rate = if elapsed_s > 0.0 { done as f64 / elapsed_s } else { 0.0 };
    let rate_per_s = if raw_rate.is_finite() { raw_rate } else { 0.0 };
    let eta_s = match total {
        Some(n) if !finished && done > 0 && rate_per_s > 0.0 => {
            Some(n.saturating_sub(done) as f64 / rate_per_s)
        }
        _ => None,
    };
    (rate_per_s, eta_s.filter(|e| e.is_finite()))
}

/// Snapshots every registered task, oldest first.
pub fn progress_snapshot() -> Vec<ProgressSnapshot> {
    tasks()
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .map(|t| {
            let done = t.done.load(Ordering::Relaxed);
            let elapsed_s = t.elapsed_s();
            let finished = t.finished();
            let (rate_per_s, eta_s) = derive_rate_eta(done, t.total, elapsed_s, finished);
            ProgressSnapshot {
                name: t.name.clone(),
                done,
                total: t.total,
                elapsed_s,
                rate_per_s,
                eta_s,
                finished,
                ctx: t.ctx,
            }
        })
        .collect()
}

/// The `/progress` payload: `{"tasks": [...]}`, one object per task.
pub fn progress_json() -> Json {
    let items = progress_snapshot()
        .into_iter()
        .map(|s| {
            let mut fields = vec![
                ("name".to_string(), Json::Str(s.name)),
                ("done".to_string(), Json::Num(s.done as f64)),
                (
                    "total".to_string(),
                    s.total.map_or(Json::Null, |n| Json::Num(n as f64)),
                ),
                ("elapsed_s".to_string(), Json::Num(s.elapsed_s)),
                ("rate_per_s".to_string(), Json::Num(s.rate_per_s)),
                ("eta_s".to_string(), s.eta_s.map_or(Json::Null, Json::Num)),
                ("finished".to_string(), Json::Bool(s.finished)),
            ];
            if let (Some(total), done) = (s.total, s.done) {
                fields.push((
                    "pct".to_string(),
                    Json::Num(100.0 * done as f64 / total.max(1) as f64),
                ));
            }
            if let Some(ctx) = s.ctx {
                fields.push(("ctx".to_string(), Json::Num(ctx as f64)));
            }
            Json::Obj(fields)
        })
        .collect();
    Json::Obj(vec![("tasks".to_string(), Json::Arr(items))])
}

/// Writes one `heartbeat` event (progress + instrument counts) into the
/// JSONL trace and flushes it, so a later `kill -9` still leaves every
/// event up to the last heartbeat on disk. No-op without a trace sink.
pub fn emit_heartbeat() {
    // Heartbeat ticks double as the Chrome counter-track sampler (no-op
    // while the exporter is disarmed).
    crate::chrome::sample_counter_tracks();
    if !sink::trace_enabled() {
        return;
    }
    let snap = progress_snapshot();
    let active = snap.iter().filter(|s| !s.finished).count();
    sink::emit_event(
        "heartbeat",
        vec![
            ("active_tasks".into(), Json::Num(active as f64)),
            ("progress".into(), match progress_json() {
                Json::Obj(mut fields) if !fields.is_empty() => fields.remove(0).1,
                other => other,
            }),
        ],
    );
    sink::flush_trace();
}

static HEARTBEAT_STARTED: AtomicBool = AtomicBool::new(false);
static HEARTBEAT_STOP: AtomicBool = AtomicBool::new(false);

/// Interval between heartbeat flushes.
const HEARTBEAT_MS: u64 = 1000;

/// Starts the background heartbeat thread (idempotent). Every
/// [`HEARTBEAT_MS`] it snapshots progress into the trace via
/// [`emit_heartbeat`].
pub(crate) fn start_heartbeat() {
    if HEARTBEAT_STARTED.swap(true, Ordering::SeqCst) {
        return;
    }
    let _ = std::thread::Builder::new()
        .name("kgtosa-heartbeat".into())
        .spawn(|| {
            // Sleep in short slices so shutdown is prompt.
            let slice = std::time::Duration::from_millis(200);
            let mut acc = 0u64;
            loop {
                if HEARTBEAT_STOP.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(slice);
                acc += slice.as_millis() as u64;
                if acc >= HEARTBEAT_MS {
                    acc = 0;
                    emit_heartbeat();
                }
            }
        });
}

/// Signals the heartbeat thread to exit (called by [`crate::shutdown`]).
pub(crate) fn stop_heartbeat() {
    HEARTBEAT_STOP.store(true, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_and_eta() {
        let p = progress_task("test.progress.eta", Some(100));
        p.advance(20);
        std::thread::sleep(std::time::Duration::from_millis(20));
        let snap = progress_snapshot();
        let s = snap.iter().find(|s| s.name == "test.progress.eta").unwrap();
        assert_eq!(s.done, 20);
        assert_eq!(s.total, Some(100));
        assert!(!s.finished);
        assert!(s.rate_per_s > 0.0);
        let eta = s.eta_s.expect("eta is known");
        // 80 remaining units at the observed rate.
        assert!((eta - 80.0 / s.rate_per_s).abs() < 1e-6);
    }

    #[test]
    fn eta_shrinks_as_work_completes() {
        let p = progress_task("test.progress.shrink", Some(1000));
        p.advance(10);
        std::thread::sleep(std::time::Duration::from_millis(10));
        let eta1 = progress_snapshot()
            .iter()
            .find(|s| s.name == "test.progress.shrink")
            .and_then(|s| s.eta_s)
            .unwrap();
        p.advance(700);
        let eta2 = progress_snapshot()
            .iter()
            .find(|s| s.name == "test.progress.shrink")
            .and_then(|s| s.eta_s)
            .unwrap();
        assert!(eta2 < eta1, "eta must advance with progress: {eta2} vs {eta1}");
    }

    #[test]
    fn unknown_total_has_no_eta() {
        let p = progress_task("test.progress.unknown", None);
        p.advance(5);
        let snap = progress_snapshot();
        let s = snap.iter().find(|s| s.name == "test.progress.unknown").unwrap();
        assert_eq!(s.total, None);
        assert!(s.eta_s.is_none());
    }

    #[test]
    fn drop_marks_finished_and_freezes_elapsed() {
        {
            let p = progress_task("test.progress.drop", Some(2));
            p.advance(2);
        }
        let snap = progress_snapshot();
        let s = snap.iter().find(|s| s.name == "test.progress.drop").unwrap();
        assert!(s.finished);
        assert!(s.eta_s.is_none());
        let frozen = s.elapsed_s;
        std::thread::sleep(std::time::Duration::from_millis(5));
        let again = progress_snapshot();
        let s2 = again.iter().find(|s| s.name == "test.progress.drop").unwrap();
        assert_eq!(s2.elapsed_s, frozen, "elapsed is frozen at completion");
    }

    #[test]
    fn clones_share_state_and_do_not_finish_early() {
        let p = progress_task("test.progress.clone", Some(4));
        let q = p.clone();
        drop(q);
        p.advance(1);
        let snap = progress_snapshot();
        let s = snap.iter().find(|s| s.name == "test.progress.clone").unwrap();
        assert!(!s.finished, "dropping one of two handles must not finish");
        assert_eq!(s.done, 1);
    }

    #[test]
    fn rate_and_eta_never_go_non_finite() {
        // Zero elapsed: rate must be 0, not inf/NaN.
        assert_eq!(derive_rate_eta(100, Some(200), 0.0, false), (0.0, None));
        assert_eq!(derive_rate_eta(0, Some(200), 0.0, false), (0.0, None));
        // Denormal-tiny elapsed would overflow the division to inf.
        let (rate, eta) = derive_rate_eta(u64::MAX, Some(u64::MAX), f64::MIN_POSITIVE, false);
        assert!(rate.is_finite(), "rate overflowed: {rate}");
        assert!(eta.is_none_or(|e| e.is_finite()));
        // Unknown total / finished task: no ETA even with a healthy rate.
        assert_eq!(derive_rate_eta(10, None, 1.0, false).1, None);
        assert_eq!(derive_rate_eta(10, Some(20), 1.0, true).1, None);
        // The healthy case still works.
        let (rate, eta) = derive_rate_eta(50, Some(100), 10.0, false);
        assert_eq!(rate, 5.0);
        assert_eq!(eta, Some(10.0));
    }

    #[test]
    fn progress_json_never_contains_nan_or_inf_tokens() {
        let p = progress_task("test.progress.nonfinite", Some(7));
        p.advance(3);
        let text = progress_json().to_string();
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
        // And the full snapshot path agrees with the derivation guard.
        for s in progress_snapshot() {
            assert!(s.rate_per_s.is_finite(), "{}: {}", s.name, s.rate_per_s);
            assert!(s.eta_s.is_none_or(|e| e.is_finite()), "{}", s.name);
        }
    }

    #[test]
    fn progress_json_shape() {
        let p = progress_task("test.progress.json", Some(8));
        p.advance(2);
        let json = progress_json();
        let tasks = match json.get("tasks") {
            Some(Json::Arr(items)) => items,
            other => panic!("expected tasks array, got {other:?}"),
        };
        let task = tasks
            .iter()
            .find(|t| t.get("name").and_then(Json::as_str) == Some("test.progress.json"))
            .unwrap();
        assert_eq!(task.get("done").unwrap().as_f64(), Some(2.0));
        assert_eq!(task.get("total").unwrap().as_f64(), Some(8.0));
        assert_eq!(task.get("pct").unwrap().as_f64(), Some(25.0));
        assert_eq!(task.get("finished").unwrap().as_bool(), Some(false));
    }
}
