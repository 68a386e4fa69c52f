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
//! | `span` | `name`, `t0` (seconds from the trace's t = 0 to the span's start; negative if it opened before the trace was installed), `tid` (small per-thread id), `wall_s`, `live_bytes`, `peak_delta_bytes`, `allocs` |
//! | `context` | `id`, `name` (a [`crate::TelemetryContext`] was created; its spans carry `ctx` = `id`) |
//! | `train.epoch` | `method`, `epoch`, `epochs`, `loss`, `metric`, `elapsed_s`, `epoch_s`, `live_bytes`, `peak_bytes`, `allocs` |
//! | `log` | `msg` |
//! | `extract.quality` | `method`, the Table III quality indicators of the finished extraction |
//! | `counters` | `counters`, `gauges` (written by the flusher once a second) |
//! | `metrics` | `counters`, `gauges`, `histograms`, `spans` (final snapshot, written by [`shutdown`]) |
//! | `panic` | `msg`, `location`, `spans` (last event of a crashed run, written by the panic hook) |
//!
//! Events emitted inside a telemetry context also carry its id as `ctx`.
//! A background flusher writes the buffered stream to disk once a second,
//! so an interrupted run keeps every event up to its last flush; the
//! Chrome trace is rendered from this record ([`crate::render_chrome_trace`]).

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
/// the once-a-second flusher so the stream reaches disk periodically even
/// if the process never exits cleanly.
pub fn init_trace_to(path: &str) -> std::io::Result<()> {
    let file = File::create(path)?;
    trace_epoch(); // pin t=0 at install time
    *trace_writer().lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(BufWriter::new(file));
    TRACE_ON.store(true, Ordering::Release);
    start_flusher();
    Ok(())
}

static FLUSHER_STARTED: AtomicBool = AtomicBool::new(false);
static FLUSHER_STOP: AtomicBool = AtomicBool::new(false);

/// Interval between periodic flushes.
const FLUSH_MS: u64 = 1000;

/// Starts the background flusher (idempotent); it ticks every
/// [`FLUSH_MS`].
fn start_flusher() {
    if FLUSHER_STARTED.swap(true, Ordering::SeqCst) {
        return;
    }
    let _ = std::thread::Builder::new()
        .name("kgtosa-flusher".into())
        .spawn(|| {
            // Sleep in short slices so shutdown is prompt.
            let slice = std::time::Duration::from_millis(200);
            let mut acc = 0u64;
            loop {
                if FLUSHER_STOP.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(slice);
                acc += slice.as_millis() as u64;
                if acc >= FLUSH_MS {
                    acc = 0;
                    flusher_tick();
                }
            }
        });
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

fn to_line(json: &Json) -> String {
    let mut line = String::with_capacity(128);
    json.write(&mut line);
    line.push('\n');
    line
}

fn write_line(json: &Json) {
    let line = to_line(json);
    if let Some(w) = trace_writer().lock().unwrap_or_else(std::sync::PoisonError::into_inner).as_mut() {
        let _ = w.write_all(line.as_bytes());
    }
}

/// One flusher tick: a `counters` event, then a flush. It checks for
/// [`shutdown`] under the writer lock, so the event never lands after
/// the final `metrics` event.
fn flusher_tick() {
    let line = to_line(&stamp("counters", registry::counter_gauge_fields()));
    let mut guard = trace_writer().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let (false, Some(w)) = (FLUSHER_STOP.load(Ordering::Relaxed), guard.as_mut()) {
        let _ = w.write_all(line.as_bytes());
        let _ = w.flush();
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
    let line = to_line(&stamp(kind, fields));
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

/// Emits a finished span that opened at `start`.
pub(crate) fn emit_span(record: &SpanRecord, start: Instant) {
    if !trace_enabled() {
        return;
    }
    let epoch = trace_epoch();
    let t0 = match start.checked_duration_since(epoch) {
        Some(d) => d.as_secs_f64(),
        None => -epoch.duration_since(start).as_secs_f64(),
    };
    emit_event(
        "span",
        vec![
            ("name".into(), Json::Str(record.path.clone())),
            ("t0".into(), Json::Num(t0)),
            ("tid".into(), Json::Num(crate::span::current_tid() as f64)),
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

/// Writes the final `metrics` snapshot, stops the flusher, and flushes
/// the stream. Safe to call multiple times or with tracing disabled.
pub fn shutdown() {
    FLUSHER_STOP.store(true, Ordering::Relaxed);
    if let Some(Json::Obj(fields)) = trace_enabled().then(registry::metrics_snapshot) {
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
        // The flusher puts both lines on disk within about a second, before
        // `shutdown` ever runs: a killed run keeps them. The deadline only
        // leaves slack for a loaded machine.
        let on_disk =
            |text: &str| text.contains("\"sink_test.op\"") && text.contains("\"ev\":\"custom\"");
        let deadline = Instant::now() + std::time::Duration::from_secs(3);
        let mut flushed = String::new();
        while !on_disk(&flushed) && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(100));
            flushed = std::fs::read_to_string(&path).unwrap();
        }
        assert!(on_disk(&flushed), "not flushed before shutdown: {flushed}");
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
