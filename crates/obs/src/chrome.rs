//! Chrome-trace / Perfetto JSON exporter.
//!
//! Armed with `--chrome-out PATH` (or `KGTOSA_CHROME_TRACE`), every
//! completed span is buffered as a timed interval and rendered at
//! shutdown into the Chrome trace-event JSON format (`chrome://tracing`,
//! <https://ui.perfetto.dev>): `pid` = telemetry context id (0 for
//! uncontexted work), `tid` = a small stable per-OS-thread id, spans as
//! paired `B`/`E` duration events, plus `C` counter tracks sampled from
//! the global registry once a second by the trace flusher and once at
//! shutdown.
//!
//! The renderer re-establishes exact telescoping before emitting: span
//! intervals come from independent `Instant` reads, so float rounding can
//! make a child end a hair after its parent. A per-track clamp pass
//! (children bounded by the enclosing interval, zero-width spans nudged
//! open) guarantees the emitted stream honours `B`/`E` stack discipline —
//! which [`validate_chrome_trace`] (and the CI gate built on it) then
//! verifies from the serialized text alone.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// Hard caps so a runaway run cannot hold unbounded buffers; beyond them
/// events are counted as dropped, not silently lost.
const MAX_SPAN_EVENTS: usize = 1 << 18;
const MAX_COUNTER_EVENTS: usize = 1 << 16;

/// Minimum rendered span width in microseconds: a zero-width interval
/// would serialize `B` and `E` at the same timestamp and render invisibly.
const MIN_SPAN_US: f64 = 1e-3;

#[derive(Debug, Clone)]
struct SpanEv {
    pid: u64,
    tid: u64,
    name: String,
    t0_us: f64,
    t1_us: f64,
}

#[derive(Debug, Clone)]
struct CounterEv {
    name: String,
    t_us: f64,
    value: f64,
}

#[derive(Debug, Clone)]
struct ProcEv {
    pid: u64,
    name: String,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);

#[derive(Default)]
struct Buffers {
    spans: Vec<SpanEv>,
    counters: Vec<CounterEv>,
    procs: Vec<ProcEv>,
}

fn buffers() -> MutexGuard<'static, Buffers> {
    static BUF: OnceLock<Mutex<Buffers>> = OnceLock::new();
    BUF.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Time zero for the exported trace, pinned when the exporter is armed.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Arms the exporter. Spans completing from here on are buffered; spans
/// already open keep their real end time and clamp their start to the
/// arming instant.
pub fn arm_chrome() {
    epoch();
    ARMED.store(true, Ordering::Relaxed);
}

#[inline]
pub(crate) fn chrome_armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

fn to_us(s: f64) -> f64 {
    s * 1e6
}

/// Buffers one completed span interval. Called from the span layer only
/// when [`chrome_armed`] — one relaxed load on the disarmed path.
pub(crate) fn on_span_complete(pid: u64, tid: u64, path: &str, start: Instant, wall_s: f64) {
    let t0 = start.checked_duration_since(epoch()).map_or(0.0, |d| d.as_secs_f64());
    let mut buf = buffers();
    if buf.spans.len() >= MAX_SPAN_EVENTS {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    buf.spans.push(SpanEv {
        pid,
        tid,
        name: path.to_string(),
        t0_us: to_us(t0),
        t1_us: to_us(t0 + wall_s.max(0.0)),
    });
}

/// Names the `pid` track after the context (Chrome `process_name`
/// metadata). No-op while disarmed.
pub(crate) fn on_context_created(id: u64, name: &str) {
    if !chrome_armed() {
        return;
    }
    let mut buf = buffers();
    if !buf.procs.iter().any(|p| p.pid == id) {
        buf.procs.push(ProcEv { pid: id, name: name.to_string() });
    }
}

/// Samples every registry counter and gauge into `C` counter-track
/// events. The trace flusher calls this once a second; shutdown takes a
/// final sample so short runs still get at least one point per track.
pub fn sample_counter_tracks() {
    if !chrome_armed() {
        return;
    }
    let t_us = to_us(epoch().elapsed().as_secs_f64());
    let mut rows: Vec<(String, f64)> = crate::registry::counter_values()
        .into_iter()
        .map(|(k, v)| (k, v as f64))
        .collect();
    rows.extend(crate::registry::gauge_values().into_iter().map(|(k, v)| (k, v as f64)));
    rows.extend(crate::registry::gauge_f64_values());
    let mut buf = buffers();
    for (name, value) in rows {
        if buf.counters.len() >= MAX_COUNTER_EVENTS {
            DROPPED.fetch_add(1, Ordering::Relaxed);
            break;
        }
        if value.is_finite() {
            buf.counters.push(CounterEv { name, t_us, value });
        }
    }
}

/// Per-track clamp pass: sorts spans into opening order and bounds each
/// interval by its enclosing one, so the emitted `B`/`E` stream nests
/// exactly (rounding can otherwise let a child outlive its parent by
/// nanoseconds).
fn clamp_track(spans: &mut [SpanEv]) {
    spans.sort_by(|a, b| {
        a.t0_us
            .total_cmp(&b.t0_us)
            .then(b.t1_us.total_cmp(&a.t1_us))
    });
    let mut open: Vec<f64> = Vec::new();
    for s in spans.iter_mut() {
        while open.last().is_some_and(|&end| s.t0_us >= end) {
            open.pop();
        }
        if let Some(&end) = open.last() {
            s.t1_us = s.t1_us.min(end);
        }
        if s.t1_us <= s.t0_us {
            let ceiling = open.last().copied().unwrap_or(f64::INFINITY);
            s.t1_us = (s.t0_us + MIN_SPAN_US).min(ceiling).max(s.t0_us);
        }
        open.push(s.t1_us);
    }
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

/// Renders the buffered events as a Chrome trace-event JSON document.
pub fn render_chrome_trace() -> String {
    let (mut spans, counters, procs) = {
        let buf = buffers();
        (buf.spans.clone(), buf.counters.clone(), buf.procs.clone())
    };

    let mut events: Vec<Json> = Vec::new();
    // Process metadata first: name each context's pid track, plus the
    // catch-all track for uncontexted work.
    let mut named: Vec<ProcEv> = vec![ProcEv { pid: 0, name: "global".into() }];
    named.extend(procs);
    for p in &named {
        events.push(Json::Obj(vec![
            ("ph".into(), Json::Str("M".into())),
            ("pid".into(), num(p.pid as f64)),
            ("tid".into(), num(0.0)),
            ("name".into(), Json::Str("process_name".into())),
            (
                "args".into(),
                Json::Obj(vec![("name".into(), Json::Str(p.name.clone()))]),
            ),
        ]));
    }

    // Clamp per (pid, tid) track, then serialize as B/E pairs in a strict
    // total order: ts, E-before-B on ties, outermost B first (longest
    // duration), innermost E first (shortest duration), buffer index as
    // the final mirrored tie-break.
    spans.sort_by_key(|s| (s.pid, s.tid));
    let mut i = 0;
    while i < spans.len() {
        let j = (i..spans.len())
            .find(|&k| (spans[k].pid, spans[k].tid) != (spans[i].pid, spans[i].tid))
            .unwrap_or(spans.len());
        clamp_track(&mut spans[i..j]);
        i = j;
    }
    // (ts, class, dur_key, idx_key): class E=0 < B=1; B opens longest
    // first (-dur), E closes shortest first (+dur); mirrored index keys
    // keep equal-duration pairs properly nested.
    let mut keyed: Vec<(f64, u8, f64, i64, Json)> = Vec::with_capacity(spans.len() * 2);
    for (idx, s) in spans.iter().enumerate() {
        let dur = s.t1_us - s.t0_us;
        keyed.push((
            s.t0_us,
            1,
            -dur,
            idx as i64,
            Json::Obj(vec![
                ("ph".into(), Json::Str("B".into())),
                ("pid".into(), num(s.pid as f64)),
                ("tid".into(), num(s.tid as f64)),
                ("ts".into(), num(s.t0_us)),
                ("name".into(), Json::Str(s.name.clone())),
            ]),
        ));
        keyed.push((
            s.t1_us,
            0,
            dur,
            -(idx as i64),
            Json::Obj(vec![
                ("ph".into(), Json::Str("E".into())),
                ("pid".into(), num(s.pid as f64)),
                ("tid".into(), num(s.tid as f64)),
                ("ts".into(), num(s.t1_us)),
                ("name".into(), Json::Str(s.name.clone())),
            ]),
        ));
    }
    keyed.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then(a.1.cmp(&b.1))
            .then(a.2.total_cmp(&b.2))
            .then(a.3.cmp(&b.3))
    });
    events.extend(keyed.into_iter().map(|(_, _, _, _, ev)| ev));

    let mut counters = counters;
    counters.sort_by(|a, b| a.t_us.total_cmp(&b.t_us).then(a.name.cmp(&b.name)));
    for c in counters {
        events.push(Json::Obj(vec![
            ("ph".into(), Json::Str("C".into())),
            ("pid".into(), num(0.0)),
            ("tid".into(), num(0.0)),
            ("ts".into(), num(c.t_us)),
            ("name".into(), Json::Str(c.name.clone())),
            (
                "args".into(),
                Json::Obj(vec![("value".into(), num(c.value))]),
            ),
        ]));
    }

    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
        ("dropped".into(), num(DROPPED.load(Ordering::Relaxed) as f64)),
    ])
    .to_string()
}

/// Final counter sample + render + write. Called once at CLI shutdown.
pub fn write_chrome_trace(path: &str) -> std::io::Result<()> {
    sample_counter_tracks();
    std::fs::write(path, render_chrome_trace())
}

/// Shape statistics proven by [`validate_chrome_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeTraceStats {
    /// Completed spans (`B` events; `E`s are checked to pair off exactly).
    pub span_events: usize,
    pub counter_events: usize,
    /// Distinct `pid` tracks carrying span events.
    pub pids: usize,
    /// Deepest `B` nesting across all tracks.
    pub max_depth: usize,
}

fn field_f64(ev: &Json, key: &str, i: usize) -> Result<f64, String> {
    ev.get(key)
        .and_then(Json::as_f64)
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("event {i}: missing or non-finite {key:?}"))
}

/// Structural validation of a serialized Chrome trace: JSON parses, every
/// event has a known phase and its required fields, and per `(pid, tid)`
/// track the `B`/`E` stream honours stack discipline — monotone
/// timestamps, each `E` closing the innermost open `B` of the same name,
/// and every track balanced at end of stream. This is what
/// `kgtosa trace-validate` and the CI artifact gate run.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceStats, String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        _ => return Err("missing traceEvents array".into()),
    };
    let mut stacks: std::collections::HashMap<(u64, u64), (Vec<String>, f64)> =
        std::collections::HashMap::new();
    let mut stats = ChromeTraceStats {
        span_events: 0,
        counter_events: 0,
        pids: 0,
        max_depth: 0,
    };
    let mut pids = std::collections::HashSet::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing \"ph\""))?;
        match ph {
            "M" => {
                ev.get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("event {i}: metadata without name"))?;
            }
            "C" => {
                field_f64(ev, "pid", i)?;
                field_f64(ev, "ts", i)?;
                ev.get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("event {i}: counter without name"))?;
                ev.get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {i}: counter without args.value"))?;
                stats.counter_events += 1;
            }
            "B" | "E" => {
                let pid = field_f64(ev, "pid", i)? as u64;
                let tid = field_f64(ev, "tid", i)? as u64;
                let ts = field_f64(ev, "ts", i)?;
                let (stack, last_ts) = stacks.entry((pid, tid)).or_insert((Vec::new(), f64::MIN));
                if ts < *last_ts {
                    return Err(format!(
                        "event {i}: ts {ts} goes backwards on track ({pid},{tid})"
                    ));
                }
                *last_ts = ts;
                if ph == "B" {
                    let name = ev
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("event {i}: B without name"))?;
                    stack.push(name.to_string());
                    stats.max_depth = stats.max_depth.max(stack.len());
                    stats.span_events += 1;
                    pids.insert(pid);
                } else {
                    let open = stack
                        .pop()
                        .ok_or_else(|| format!("event {i}: E with no open span on ({pid},{tid})"))?;
                    if let Some(name) = ev.get("name").and_then(Json::as_str) {
                        if name != open {
                            return Err(format!(
                                "event {i}: E({name:?}) closes B({open:?}) on ({pid},{tid})"
                            ));
                        }
                    }
                }
            }
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
    }
    for ((pid, tid), (stack, _)) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("unbalanced track ({pid},{tid}): {open:?} never closed"));
        }
    }
    stats.pids = pids.len();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_restores_telescoping_and_nudges_zero_width() {
        let mut track = vec![
            SpanEv { pid: 1, tid: 1, name: "parent".into(), t0_us: 0.0, t1_us: 100.0 },
            // Rounding let the child outlive the parent by a hair.
            SpanEv { pid: 1, tid: 1, name: "child".into(), t0_us: 50.0, t1_us: 100.1 },
            SpanEv { pid: 1, tid: 1, name: "instant".into(), t0_us: 60.0, t1_us: 60.0 },
        ];
        clamp_track(&mut track);
        let child = track.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.t1_us, 100.0, "child clamped to parent end");
        let instant = track.iter().find(|s| s.name == "instant").unwrap();
        assert!(instant.t1_us > instant.t0_us, "zero-width span nudged open");
        assert!(instant.t1_us <= 100.0, "nudge stays inside the parent");
    }

    #[test]
    fn rendered_trace_validates_with_real_spans() {
        arm_chrome();
        let ctx = crate::TelemetryContext::new("chrome.test.req");
        {
            let _g = ctx.enter();
            let _outer = crate::span("chrome_test.outer");
            {
                let _inner = crate::span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        crate::counter("chrome.test.counter").add(3);
        sample_counter_tracks();

        let text = render_chrome_trace();
        let stats = validate_chrome_trace(&text).expect("rendered trace must validate");
        assert!(stats.span_events >= 2, "both spans present: {stats:?}");
        assert!(stats.counter_events >= 1, "counter track sampled: {stats:?}");
        assert!(stats.max_depth >= 2, "nesting preserved: {stats:?}");
        assert!(
            text.contains("chrome.test.req"),
            "context name appears as process metadata"
        );

        // Telescoping: the inner span's interval sits inside the outer's.
        let doc = Json::parse(&text).unwrap();
        let events = match doc.get("traceEvents") {
            Some(Json::Arr(e)) => e,
            _ => unreachable!(),
        };
        let interval = |name: &str| -> (f64, f64) {
            let ts = |ph: &str| {
                events
                    .iter()
                    .find(|e| {
                        e.get("ph").and_then(Json::as_str) == Some(ph)
                            && e.get("name").and_then(Json::as_str) == Some(name)
                    })
                    .and_then(|e| e.get("ts"))
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| panic!("missing {ph} for {name}"))
            };
            (ts("B"), ts("E"))
        };
        let (ob, oe) = interval("chrome_test.outer");
        let (ib, ie) = interval("chrome_test.outer.inner");
        assert!(ob <= ib && ie <= oe, "inner [{ib},{ie}] outside outer [{ob},{oe}]");
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"foo\": 1}").is_err());
        // E without a matching B.
        let crossed = r#"{"traceEvents":[
            {"ph":"E","pid":1,"tid":1,"ts":5,"name":"x"}
        ]}"#;
        assert!(validate_chrome_trace(crossed).is_err());
        // Unbalanced B.
        let open = r#"{"traceEvents":[
            {"ph":"B","pid":1,"tid":1,"ts":5,"name":"x"}
        ]}"#;
        assert!(validate_chrome_trace(open).is_err());
        // Mismatched close name.
        let wrong = r#"{"traceEvents":[
            {"ph":"B","pid":1,"tid":1,"ts":1,"name":"a"},
            {"ph":"E","pid":1,"tid":1,"ts":2,"name":"b"}
        ]}"#;
        assert!(validate_chrome_trace(wrong).is_err());
        // Backwards time on one track.
        let back = r#"{"traceEvents":[
            {"ph":"B","pid":1,"tid":1,"ts":5,"name":"a"},
            {"ph":"E","pid":1,"tid":1,"ts":4,"name":"a"}
        ]}"#;
        assert!(validate_chrome_trace(back).is_err());
        // Minimal valid document.
        let ok = r#"{"traceEvents":[
            {"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"req"}},
            {"ph":"B","pid":1,"tid":1,"ts":1,"name":"a"},
            {"ph":"C","pid":0,"tid":0,"ts":2,"name":"n","args":{"value":3}},
            {"ph":"E","pid":1,"tid":1,"ts":3,"name":"a"}
        ]}"#;
        let stats = validate_chrome_trace(ok).unwrap();
        assert_eq!(stats.span_events, 1);
        assert_eq!(stats.counter_events, 1);
        assert_eq!(stats.pids, 1);
        assert_eq!(stats.max_depth, 1);
    }
}
