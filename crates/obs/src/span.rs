//! Hierarchical RAII spans.
//!
//! `span("extract.brw")` pushes a segment onto a thread-local stack and
//! starts a timer; when the guard drops (or `finish()` is called) the
//! span's wall time, live heap, peak-heap growth, and allocation count
//! are recorded into the registry and, if a trace sink is installed,
//! emitted as a JSONL `span` event stamped with its start and thread.
//! Nested spans produce dotted paths: a span `"train"` opened inside
//! `"pipeline"` records as `"pipeline.train"` — unless the name already
//! contains the full path context (both styles appear in the codebase;
//! explicit dotted names are kept verbatim and still nest under their
//! parents).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::registry;
use crate::sink;

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    /// Small stable per-thread id, assigned on first use: a `span` event's `tid`.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn current_tid() -> u64 {
    TID.try_with(|t| *t).unwrap_or(0)
}

/// What a finished span measured.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Full dotted path, including enclosing spans on this thread.
    pub path: String,
    pub wall_s: f64,
    /// Live heap bytes at span end.
    pub live_bytes: usize,
    /// New peak heap established while the span ran (0 if the process
    /// peak did not move).
    pub peak_delta_bytes: usize,
    /// Heap allocations performed while the span ran (this thread and
    /// any other — the allocator counters are process-global).
    pub allocs: u64,
}

/// RAII guard returned by [`span`]; records on drop.
pub struct SpanGuard {
    path: String,
    depth: usize,
    start: Instant,
    entry_peak: usize,
    entry_allocs: u64,
    done: bool,
}

/// Best-effort snapshot of the spans currently open on this thread,
/// outermost first (each entry is a full dotted path). Returns `None`
/// when the stack is unavailable — the thread-local was destroyed, or a
/// panic unwound from inside span bookkeeping and the `RefCell` is still
/// borrowed. Used by the panic hook; must never itself panic.
pub(crate) fn live_stack() -> Option<Vec<String>> {
    SPAN_STACK
        .try_with(|stack| stack.try_borrow().ok().map(|s| s.clone()))
        .ok()
        .flatten()
}

/// Opens a span named `name` nested under any span already open on this
/// thread.
pub fn span(name: &str) -> SpanGuard {
    let (path, depth) = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = if stack.is_empty() {
            name.to_string()
        } else {
            format!("{}.{}", stack.last().unwrap(), name)
        };
        stack.push(path.clone());
        (path, stack.len())
    });
    let snap = kgtosa_memtrack::snapshot();
    SpanGuard {
        path,
        depth,
        start: Instant::now(),
        entry_peak: snap.peak_bytes,
        entry_allocs: snap.alloc_count,
        done: false,
    }
}

impl SpanGuard {
    /// Consumes the guard and returns the measurements.
    pub fn finish(mut self) -> SpanRecord {
        self.record()
    }

    fn record(&mut self) -> SpanRecord {
        self.done = true;
        let wall_s = self.start.elapsed().as_secs_f64();
        let snap = kgtosa_memtrack::snapshot();
        let record = SpanRecord {
            path: self.path.clone(),
            wall_s,
            live_bytes: snap.live_bytes,
            peak_delta_bytes: snap.peak_bytes.saturating_sub(self.entry_peak),
            allocs: snap.alloc_count.saturating_sub(self.entry_allocs),
        };
        // Pop this span (and anything leaked above it) off the stack.
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.truncate(self.depth.saturating_sub(1));
        });
        registry::record_span(&record.path, record.wall_s, record.peak_delta_bytes, record.allocs);
        sink::emit_span(&record, self.start);
        record
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.done {
            self.record();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_builds_dotted_paths() {
        let outer = span("unit_outer");
        let mid_record = {
            let mid = span("mid");
            let inner = span("leaf");
            let inner_record = inner.finish();
            assert_eq!(inner_record.path, "unit_outer.mid.leaf");
            mid.finish()
        };
        assert_eq!(mid_record.path, "unit_outer.mid");
        let outer_record = outer.finish();
        assert_eq!(outer_record.path, "unit_outer");
        // A fresh span after everything closed starts a new root.
        assert_eq!(span("unit_after").finish().path, "unit_after");
    }

    #[test]
    fn drop_records_like_finish() {
        {
            let _g = span("unit_drop.outer");
            let _h = span("child");
        }
        let stats = registry::span_stats();
        let hit = stats
            .iter()
            .find(|(name, _)| name == "unit_drop.outer.child")
            .expect("child span recorded");
        assert_eq!(hit.1.count, 1);
        assert!(stats.iter().any(|(name, _)| name == "unit_drop.outer"));
    }

    #[test]
    fn spans_are_thread_isolated() {
        let _outer = span("unit_thread.outer");
        let other = std::thread::spawn(|| span("solo").finish().path)
            .join()
            .unwrap();
        // The spawned thread has its own stack: no "unit_thread." prefix.
        assert_eq!(other, "solo");
    }

    #[test]
    fn wall_time_is_positive() {
        let g = span("unit_timing");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let record = g.finish();
        assert!(record.wall_s >= 0.002);
    }
}
