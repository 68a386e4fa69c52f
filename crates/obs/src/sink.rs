//! Output sinks: the JSONL trace stream and the quiet-aware stderr
//! reporter.
//!
//! ## JSONL event schema
//!
//! One JSON object per line; every event carries `ev` (kind) and `t`
//! (seconds since the trace was opened):
//!
//! | `ev` | fields |
//! |---|---|
//! | `span` | `name`, `wall_s`, `live_bytes`, `peak_delta_bytes`, `allocs` |
//! | `train.epoch` | `method`, `epoch`, `epochs`, `loss`, `metric`, `elapsed_s`, `epoch_s`, `live_bytes`, `peak_bytes`, `allocs` |
//! | `log` | `msg` |
//! | `heartbeat` | `active_tasks`, `progress` (periodic snapshot + flush, written by the background flusher so interrupted runs keep a usable trace) |
//! | `extract.quality` | `method`, the Table III quality indicators of the finished extraction |
//! | `metrics` | `counters`, `gauges`, `histograms`, `spans` (final snapshot, written by [`shutdown`]) |
//! | `panic` | `msg`, `location`, `spans` (last event of a crashed run, written by the panic hook) |

use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;
use crate::registry;
use crate::span::SpanRecord;

static QUIET: AtomicBool = AtomicBool::new(false);
static TRACE_ON: AtomicBool = AtomicBool::new(false);

fn trace_writer() -> &'static Mutex<Option<BufWriter<File>>> {
    static WRITER: OnceLock<Mutex<Option<BufWriter<File>>>> = OnceLock::new();
    WRITER.get_or_init(|| Mutex::new(None))
}

fn trace_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Installs a JSONL trace stream writing to `path` (truncates), and arms
/// the once-a-second heartbeat flusher so the stream reaches disk
/// periodically even if the process never exits cleanly.
pub fn init_trace_to(path: &str) -> std::io::Result<()> {
    let file = File::create(path)?;
    trace_epoch(); // pin t=0 at install time
    *trace_writer().lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(BufWriter::new(file));
    TRACE_ON.store(true, Ordering::Release);
    crate::progress::start_heartbeat();
    Ok(())
}

/// Flushes the trace stream to disk (heartbeat ticks call this).
pub(crate) fn flush_trace() {
    if let Some(w) = trace_writer().lock().unwrap_or_else(std::sync::PoisonError::into_inner).as_mut() {
        let _ = w.flush();
    }
}

/// Installs a trace stream from `KGTOSA_TRACE=<path>` if set and
/// non-empty. Returns whether tracing ended up enabled.
pub fn init_trace_from_env() -> bool {
    if trace_enabled() {
        return true;
    }
    match std::env::var("KGTOSA_TRACE") {
        Ok(path) if !path.is_empty() => match init_trace_to(&path) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("kgtosa-obs: cannot open KGTOSA_TRACE={path}: {e}");
                false
            }
        },
        _ => false,
    }
}

pub fn trace_enabled() -> bool {
    TRACE_ON.load(Ordering::Acquire)
}

/// Suppresses stderr progress chatter ([`info_str`] / `info!`). The JSONL
/// stream is unaffected: `--quiet --trace-out x.jsonl` still captures
/// everything.
pub fn set_quiet(quiet: bool) {
    QUIET.store(quiet, Ordering::Relaxed);
}

pub fn is_quiet() -> bool {
    QUIET.load(Ordering::Relaxed)
}

fn write_line(json: &Json) {
    let mut line = String::with_capacity(128);
    json.write(&mut line);
    line.push('\n');
    if let Some(w) = trace_writer().lock().unwrap_or_else(std::sync::PoisonError::into_inner).as_mut() {
        let _ = w.write_all(line.as_bytes());
    }
}

fn stamp(kind: &str, mut fields: Vec<(String, Json)>) -> Json {
    let t = trace_epoch().elapsed().as_secs_f64();
    let mut all = Vec::with_capacity(fields.len() + 3);
    all.push(("ev".to_string(), Json::Str(kind.to_string())));
    all.push(("t".to_string(), Json::Num(t)));
    // Events emitted inside a telemetry context carry its id, so a JSONL
    // trace from concurrent requests can be split per request.
    if let Some(id) = crate::context::current_id() {
        all.push(("ctx".to_string(), Json::Num(id as f64)));
    }
    all.append(&mut fields);
    Json::Obj(all)
}

/// Emits an arbitrary event into the trace stream (no-op when disabled).
pub fn emit_event(kind: &str, fields: Vec<(String, Json)>) {
    if !trace_enabled() {
        return;
    }
    write_line(&stamp(kind, fields));
}

/// Panic-path event write: never blocks and never panics. Uses `try_lock`
/// so a panic raised *while the panicking thread holds the writer lock*
/// degrades to dropping the event instead of deadlocking the hook, and
/// flushes immediately because the process is about to die.
pub(crate) fn emit_event_panic_safe(kind: &str, fields: Vec<(String, Json)>) {
    if !trace_enabled() {
        return;
    }
    let json = stamp(kind, fields);
    let mut line = String::with_capacity(128);
    json.write(&mut line);
    line.push('\n');
    let mut guard = match trace_writer().try_lock() {
        Ok(g) => g,
        Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
        Err(std::sync::TryLockError::WouldBlock) => return,
    };
    if let Some(w) = guard.as_mut() {
        let _ = w.write_all(line.as_bytes());
        let _ = w.flush();
    }
}

pub(crate) fn emit_span(record: &SpanRecord) {
    if !trace_enabled() {
        return;
    }
    emit_event(
        "span",
        vec![
            ("name".into(), Json::Str(record.path.clone())),
            ("wall_s".into(), Json::Num(record.wall_s)),
            ("live_bytes".into(), Json::Num(record.live_bytes as f64)),
            (
                "peak_delta_bytes".into(),
                Json::Num(record.peak_delta_bytes as f64),
            ),
            ("allocs".into(), Json::Num(record.allocs as f64)),
        ],
    );
}

/// Progress chatter: stderr unless quiet, mirrored into the trace as a
/// `log` event. Final results meant for scripts should keep using
/// `println!` — this channel is for humans.
pub fn info_str(msg: &str) {
    if !is_quiet() {
        eprintln!("{msg}");
    }
    emit_event("log", vec![("msg".into(), Json::Str(msg.to_string()))]);
}

/// Writes the final `metrics` snapshot, stops the heartbeat thread, and
/// flushes the stream. Safe to call multiple times or with tracing
/// disabled.
pub fn shutdown() {
    crate::progress::stop_heartbeat();
    crate::slo::stop_watchdog();
    if trace_enabled() {
        let snapshot = registry::metrics_snapshot();
        let fields = match snapshot {
            Json::Obj(fields) => fields,
            other => vec![("metrics".into(), other)],
        };
        write_line(&stamp("metrics", fields));
    }
    if let Some(w) = trace_writer().lock().unwrap_or_else(std::sync::PoisonError::into_inner).as_mut() {
        let _ = w.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_flag_round_trips() {
        assert!(!is_quiet());
        set_quiet(true);
        assert!(is_quiet());
        set_quiet(false);
    }

    #[test]
    fn trace_stream_writes_parseable_jsonl() {
        let path = std::env::temp_dir().join(format!("obs-sink-test-{}.jsonl", std::process::id()));
        let path_str = path.to_str().unwrap().to_string();
        init_trace_to(&path_str).unwrap();
        crate::span("sink_test.op").finish();
        emit_event("custom", vec![("k".into(), Json::Num(1.0))]);
        shutdown();

        let text = std::fs::read_to_string(&path).unwrap();
        let mut kinds = Vec::new();
        for line in text.lines() {
            let v = Json::parse(line).expect("every line parses");
            kinds.push(v.get("ev").unwrap().as_str().unwrap().to_string());
            assert!(v.get("t").unwrap().as_f64().is_some());
        }
        assert!(kinds.contains(&"span".to_string()));
        assert!(kinds.contains(&"custom".to_string()));
        assert_eq!(kinds.last().map(String::as_str), Some("metrics"));
        let _ = std::fs::remove_file(&path);
    }
}
