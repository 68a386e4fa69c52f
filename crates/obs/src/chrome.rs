//! Chrome-trace / Perfetto rendering of a JSONL trace.
//!
//! The JSONL trace is the record; a Chrome trace-event document
//! (`chrome://tracing`, <https://ui.perfetto.dev>) is rendered from it
//! after the fact by [`render_chrome_trace`], so a killed run renders up
//! to its last flushed event. `pid` = telemetry context id (0 for
//! uncontexted work), `tid` = the span's small per-thread id, `span`
//! events become paired `B`/`E` duration events, `context` events name
//! the `pid` tracks, and the counters and gauges of every `counters` and
//! `metrics` event become `C` counter points.
//!
//! The renderer re-establishes exact telescoping before emitting: span
//! intervals come from independent `Instant` reads, so float rounding can
//! make a child end a hair after its parent. A per-track clamp pass
//! (children bounded by the enclosing interval, zero-width spans nudged
//! open) guarantees the emitted stream honours `B`/`E` stack discipline —
//! which [`validate_chrome_trace`] (and the CI gate built on it) then
//! verifies from the serialized text alone.

use crate::json::Json;
use crate::summary::for_each_event;

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

fn to_us(s: f64) -> f64 {
    s * 1e6
}

/// The finite number at `key`.
fn finite(ev: &Json, key: &str) -> Result<f64, String> {
    ev.get(key)
        .and_then(Json::as_f64)
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("missing or non-finite {key:?}"))
}

/// The finite, non-negative number at `key`.
fn non_negative(ev: &Json, key: &str) -> Result<f64, String> {
    let v = finite(ev, key)?;
    if v < 0.0 {
        return Err(format!("negative {key:?}"));
    }
    Ok(v)
}

/// Decodes a `span` event. A span opened before the trace was installed
/// has a negative `t0`: it keeps its real end and clamps its start to 0.
fn span_ev(ev: &Json) -> Result<SpanEv, String> {
    let name = ev.get("name").and_then(Json::as_str).ok_or("span without name")?;
    let t0 = finite(ev, "t0")?;
    let wall_s = non_negative(ev, "wall_s")?;
    let tid = non_negative(ev, "tid")? as u64;
    let pid = if ev.get("ctx").is_some() { non_negative(ev, "ctx")? as u64 } else { 0 };
    let t0_us = to_us(t0.max(0.0));
    Ok(SpanEv {
        pid,
        tid,
        name: name.to_string(),
        t0_us,
        t1_us: to_us(t0 + wall_s).max(t0_us),
    })
}

/// Decodes the `counters` and `gauges` objects of a `counters` or
/// `metrics` event into `(ts, name, value)` points at its `t`. Non-finite
/// values (serialized as `null`) have no point.
fn counter_points(ev: &Json, out: &mut Vec<(f64, String, f64)>) -> Result<(), String> {
    let t_us = to_us(non_negative(ev, "t")?);
    for key in ["counters", "gauges"] {
        match ev.get(key) {
            Some(Json::Obj(fields)) => out.extend(fields.iter().filter_map(|(name, v)| {
                Some((t_us, name.clone(), v.as_f64().filter(|v| v.is_finite())?))
            })),
            Some(_) => return Err(format!("{key:?} is not an object")),
            None => {}
        }
    }
    Ok(())
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

/// Renders a JSONL trace as a Chrome trace-event JSON document. Lines are
/// read like [`crate::summarize_jsonl`] reads them — a truncated final
/// line is dropped — and a malformed event is an error naming its line.
pub fn render_chrome_trace(jsonl: &str) -> Result<String, String> {
    let mut spans: Vec<SpanEv> = Vec::new();
    let mut counters: Vec<(f64, String, f64)> = Vec::new();
    // Name each context's pid track, plus the catch-all track for
    // uncontexted work.
    let mut procs: Vec<(u64, String)> = vec![(0, "global".into())];
    for_each_event(jsonl, |kind, ev| {
        match kind {
            "span" => spans.push(span_ev(ev)?),
            "context" => {
                let id = non_negative(ev, "id")? as u64;
                let name = ev.get("name").and_then(Json::as_str).ok_or("context without name")?;
                if !procs.iter().any(|(pid, _)| *pid == id) {
                    procs.push((id, name.to_string()));
                }
            }
            "counters" | "metrics" => counter_points(ev, &mut counters)?,
            _ => {}
        }
        Ok(())
    })?;

    let mut events: Vec<Json> = Vec::new();
    for (pid, name) in procs {
        events.push(Json::Obj(vec![
            ("ph".into(), Json::Str("M".into())),
            ("pid".into(), num(pid as f64)),
            ("tid".into(), num(0.0)),
            ("name".into(), Json::Str("process_name".into())),
            ("args".into(), Json::Obj(vec![("name".into(), Json::Str(name))])),
        ]));
    }

    // Clamp per (pid, tid) track, then serialize as B/E pairs in a strict
    // total order: ts, E-before-B on ties, outermost B first (longest
    // duration), innermost E first (shortest duration), record index as
    // the final mirrored tie-break.
    spans.sort_by_key(|s| (s.pid, s.tid));
    for track in spans.chunk_by_mut(|a, b| (a.pid, a.tid) == (b.pid, b.tid)) {
        clamp_track(track);
    }
    // (ts, class, dur_key, idx_key): class E=0 < B=1; B opens longest
    // first (-dur), E closes shortest first (+dur); mirrored index keys
    // keep equal-duration pairs properly nested.
    let mut keyed: Vec<(f64, u8, f64, i64, Json)> = Vec::with_capacity(spans.len() * 2);
    for (idx, s) in spans.iter().enumerate() {
        let dur = s.t1_us - s.t0_us;
        let event = |ph: &str, ts: f64| {
            Json::Obj(vec![
                ("ph".into(), Json::Str(ph.into())),
                ("pid".into(), num(s.pid as f64)),
                ("tid".into(), num(s.tid as f64)),
                ("ts".into(), num(ts)),
                ("name".into(), Json::Str(s.name.clone())),
            ])
        };
        keyed.push((s.t0_us, 1, -dur, idx as i64, event("B", s.t0_us)));
        keyed.push((s.t1_us, 0, dur, -(idx as i64), event("E", s.t1_us)));
    }
    keyed.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then(a.1.cmp(&b.1))
            .then(a.2.total_cmp(&b.2))
            .then(a.3.cmp(&b.3))
    });
    events.extend(keyed.into_iter().map(|(_, _, _, _, ev)| ev));

    counters.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    for (ts, name, value) in counters {
        events.push(Json::Obj(vec![
            ("ph".into(), Json::Str("C".into())),
            ("pid".into(), num(0.0)),
            ("tid".into(), num(0.0)),
            ("ts".into(), num(ts)),
            ("name".into(), Json::Str(name)),
            ("args".into(), Json::Obj(vec![("value".into(), num(value))])),
        ]));
    }

    Ok(Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
    ])
    .to_string())
}

/// Shape statistics proven by [`validate_chrome_trace`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
    finite(ev, key).map_err(|e| format!("event {i}: {e}"))
}

/// Structural validation of a serialized Chrome trace: JSON parses, every
/// event has a known phase and its required fields, and per `(pid, tid)`
/// track the `B`/`E` stream honours stack discipline — monotone
/// timestamps, each `E` closing the innermost open `B` of the same name,
/// and every track balanced at end of stream. `kgtosa trace-chrome` runs
/// it on every rendering before writing it.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceStats, String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        _ => return Err("missing traceEvents array".into()),
    };
    let mut stacks: std::collections::HashMap<(u64, u64), (Vec<String>, f64)> =
        std::collections::HashMap::new();
    let mut stats = ChromeTraceStats::default();
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

    fn span_line(name: &str, ctx: u64, tid: u64, t0: &str, wall_s: &str) -> String {
        format!(
            r#"{{"ev":"span","t":1,"ctx":{ctx},"name":"{name}","t0":{t0},"tid":{tid},"wall_s":{wall_s},"live_bytes":0,"peak_delta_bytes":0,"allocs":0}}"#
        )
    }

    /// A hand-written trace of every rendered event kind.
    fn sample_trace() -> String {
        [
            r#"{"ev":"context","t":0,"id":3,"name":"req"}"#.to_string(),
            span_line("outer.inner", 3, 1, "0.1", "0.2"),
            span_line("outer", 3, 1, "0.05", "0.5"),
            // Opened before the trace was installed.
            span_line("early", 0, 2, "-0.25", "1"),
            r#"{"ev":"counters","t":1,"counters":{"n":2},"gauges":{"g":-1,"nan":null}}"#.into(),
            r#"{"ev":"metrics","t":2,"counters":{"n":3},"gauges":{},"histograms":{},"spans":{}}"#
                .into(),
        ]
        .join("\n")
    }

    fn ts_of(events: &[Json], ph: &str, name: &str) -> f64 {
        events
            .iter()
            .find(|e| {
                e.get("ph").and_then(Json::as_str) == Some(ph)
                    && e.get("name").and_then(Json::as_str) == Some(name)
            })
            .and_then(|e| e.get("ts"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("missing {ph} for {name}"))
    }

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
    fn renders_every_event_kind() {
        let text = render_chrome_trace(&sample_trace()).unwrap();
        let stats = validate_chrome_trace(&text).expect("rendering validates");
        assert_eq!((stats.span_events, stats.pids), (3, 2));
        assert_eq!(stats.max_depth, 2, "nesting preserved");
        // n at t=1 and t=2, g at t=1; the null gauge has no point.
        assert_eq!(stats.counter_events, 3);
        assert!(text.contains(r#""args":{"name":"req"}"#), "context names its track");
        let Some(Json::Arr(events)) = Json::parse(&text).unwrap().get("traceEvents").cloned() else {
            panic!("no traceEvents: {text}")
        };
        let (ob, oe) = (ts_of(&events, "B", "outer"), ts_of(&events, "E", "outer"));
        let (ib, ie) = (ts_of(&events, "B", "outer.inner"), ts_of(&events, "E", "outer.inner"));
        assert!(ob <= ib && ie <= oe, "inner [{ib},{ie}] outside outer [{ob},{oe}]");
        assert!((ob - 0.05e6).abs() < 1e-3 && (oe - 0.55e6).abs() < 1e-3, "[{ob},{oe}]");
        // A negative t0 clamps the start and keeps the real end.
        assert_eq!((ts_of(&events, "B", "early"), ts_of(&events, "E", "early")), (0.0, 0.75e6));
    }

    #[test]
    fn malformed_lines_are_errors_naming_the_line() {
        let trace = sample_trace();
        let mut lines: Vec<String> = trace.lines().map(str::to_string).collect();
        let span = span_line("x", 0, 1, "0.1", "0.2");
        let cases = [
            "not json".to_string(),
            span.replace(r#""t0":0.1,"#, ""),
            span.replace(r#""tid":1,"#, ""),
            span.replace(r#""wall_s":0.2"#, r#""wall_s":1e999"#),
            span.replace(r#""wall_s":0.2"#, r#""wall_s":-0.2"#),
            span.replace(r#""wall_s":0.2"#, r#""wall_s":null"#),
            span.replace(r#""t0":0.1"#, r#""t0":1e999"#),
            span.replace(r#""t0":0.1"#, r#""t0":-1e999"#),
            span.replace(r#""tid":1"#, r#""tid":-1"#),
            span.replace(r#""ctx":0"#, r#""ctx":"a""#),
            span.replace(r#""name":"x","#, ""),
            r#"{"ev":"context","t":0,"name":"req"}"#.into(),
            r#"{"ev":"counters","t":1,"counters":[1]}"#.into(),
            r#"{"ev":"counters","counters":{}}"#.into(),
            r#"{"t":1}"#.into(),
        ];
        for bad in cases {
            // In the middle of the file: the line after it is complete.
            lines.insert(2, bad.clone());
            let err = render_chrome_trace(&lines.join("\n")).expect_err(&bad);
            assert!(err.starts_with("line 3: "), "{bad}: {err}");
            lines.remove(2);
        }
    }

    #[test]
    fn truncated_final_line_and_empty_trace_render() {
        let full = render_chrome_trace(&sample_trace()).unwrap();
        let cut = format!("{}\n{{\"ev\":\"span\",\"t\":3,\"na", sample_trace());
        assert_eq!(render_chrome_trace(&cut).unwrap(), full, "truncated tail is dropped");
        for empty in ["", "\n\n"] {
            let text = render_chrome_trace(empty).unwrap();
            let stats = validate_chrome_trace(&text).expect("empty trace renders a valid document");
            assert_eq!((stats.span_events, stats.counter_events), (0, 0));
        }
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
