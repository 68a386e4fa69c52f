//! Request-scoped telemetry contexts.
//!
//! A [`TelemetryContext`] is a trace identity plus its own counter
//! deltas, *layered over* the process-global registry: every counter add
//! is still recorded globally exactly as before, and additionally into the
//! context current on the recording thread. This is what makes two
//! concurrent extractions attributable — each request enters its own
//! context, and [`TelemetryContext::counter_delta`] reads the scoped view
//! instead of the commingled globals. When tracing, creating a context writes a JSONL
//! `context` event and every event emitted inside it carries its id as
//! `ctx`, which is how a rendered Chrome trace gets one process track per
//! context.
//!
//! ## Propagation
//!
//! The current context lives on a thread-local stack ([`TelemetryContext::enter`]
//! pushes, the returned [`ContextScope`] pops on drop). Causal propagation
//! across threads is explicit and cheap: capture [`TelemetryContext::current`]
//! before spawning, call `enter()` on the worker. The kgtosa-par pool does
//! this at every scope boundary, so all workspace parallelism inherits the
//! spawning context automatically.
//!
//! ## Determinism and overhead contract
//!
//! Contexts observe, they never steer: no numeric code path reads context
//! state, so context-on and context-off runs are bit-identical (asserted
//! by `models/tests/context_differential.rs` and
//! `core/tests/context_isolation.rs`). With no context entered anywhere in
//! the process, the interception hooks cost one relaxed atomic load; with
//! a context active, a short mutex op per instrument update — the same
//! <2% wall budget the profiler holds.

use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock, Weak};
use std::time::Instant;

use crate::json::Json;

/// Sentinel bit pattern meaning "still running" in `end_s_bits`.
const RUNNING: u64 = u64::MAX;

/// Distinct counter names captured per context. A runaway request (e.g.
/// one minting a fresh counter name per item) saturates at the cap instead
/// of growing its context without bound.
const MAX_COUNTER_KEYS: usize = 4096;

/// Live entries kept in the process-wide context registry.
const MAX_CONTEXTS: usize = 1024;

#[derive(Debug)]
pub(crate) struct ContextInner {
    id: u64,
    name: String,
    started: Instant,
    /// Elapsed seconds at [`TelemetryContext::finish`] as f64 bits, or
    /// [`RUNNING`].
    end_s_bits: AtomicU64,
    counters: Mutex<HashMap<String, u64>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Process-wide count of entered scopes: the single relaxed load that
/// gates every interception hook when contexts are unused.
static ENTERED: AtomicUsize = AtomicUsize::new(0);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static STACK: RefCell<Vec<Arc<ContextInner>>> = const { RefCell::new(Vec::new()) };
}

fn context_registry() -> &'static RwLock<Vec<Weak<ContextInner>>> {
    static REG: OnceLock<RwLock<Vec<Weak<ContextInner>>>> = OnceLock::new();
    REG.get_or_init(|| RwLock::new(Vec::new()))
}

/// Whether any thread anywhere currently has an entered context. One
/// relaxed atomic load — the hot-path gate.
#[inline]
pub(crate) fn scoping_active() -> bool {
    ENTERED.load(Ordering::Relaxed) > 0
}

/// The context current on *this* thread, if any. Never panics: the
/// thread-local may be gone during thread teardown or borrowed inside the
/// panic hook, both of which degrade to `None`.
fn current_inner() -> Option<Arc<ContextInner>> {
    if !scoping_active() {
        return None;
    }
    STACK
        .try_with(|s| s.try_borrow().ok().and_then(|v| v.last().cloned()))
        .ok()
        .flatten()
}

/// Whether this thread is inside an entered context.
pub fn context_active() -> bool {
    current_inner().is_some()
}

/// The current context's id (the `ctx` field stamped onto trace events).
pub(crate) fn current_id() -> Option<u64> {
    current_inner().map(|c| c.id)
}

/// Interception hook, called by the registry's counters. Gated on
/// [`scoping_active`] before touching the TLS.
pub(crate) fn on_counter(name: &str, n: u64) {
    if let Some(ctx) = current_inner() {
        let mut map = lock(&ctx.counters);
        if let Some(v) = map.get_mut(name) {
            *v += n;
        } else if map.len() < MAX_COUNTER_KEYS {
            map.insert(name.to_string(), n);
        }
    }
}

/// A request/task-scoped telemetry identity. Cloning shares the context;
/// it stays live (counted on `/healthz`) as long as any handle exists.
#[derive(Debug, Clone)]
pub struct TelemetryContext {
    inner: Arc<ContextInner>,
}

/// RAII guard returned by [`TelemetryContext::enter`]; pops the context
/// off this thread's stack on drop. Not `Send`: the scope must end on the
/// thread that opened it.
#[derive(Debug)]
pub struct ContextScope {
    id: u64,
    _not_send: PhantomData<*const ()>,
}

impl TelemetryContext {
    /// Creates and registers a fresh context, and writes a `context` event
    /// to the trace when tracing. Cheap: one small allocation plus a
    /// registry push; no instrument is touched until it is entered.
    pub fn new(name: &str) -> Self {
        let inner = Arc::new(ContextInner {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            name: name.to_string(),
            started: Instant::now(),
            end_s_bits: AtomicU64::new(RUNNING),
            counters: Mutex::default(),
        });
        {
            let mut reg = context_registry()
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            reg.retain(|w| w.strong_count() > 0);
            if reg.len() < MAX_CONTEXTS {
                reg.push(Arc::downgrade(&inner));
            }
        }
        crate::sink::emit_event(
            "context",
            vec![
                ("id".into(), Json::Num(inner.id as f64)),
                ("name".into(), Json::Str(name.to_string())),
            ],
        );
        TelemetryContext { inner }
    }

    /// The context current on this thread, if any — what a spawner
    /// captures to propagate causality onto its workers.
    pub fn current() -> Option<Self> {
        current_inner().map(|inner| TelemetryContext { inner })
    }

    /// Makes this context current on the calling thread until the returned
    /// scope drops. Nests: the innermost entered context receives the
    /// attributions.
    pub fn enter(&self) -> ContextScope {
        let pushed = STACK
            .try_with(|s| {
                if let Ok(mut v) = s.try_borrow_mut() {
                    v.push(Arc::clone(&self.inner));
                    true
                } else {
                    false
                }
            })
            .unwrap_or(false);
        if pushed {
            ENTERED.fetch_add(1, Ordering::Relaxed);
        }
        ContextScope {
            id: if pushed { self.inner.id } else { 0 },
            _not_send: PhantomData,
        }
    }

    pub fn id(&self) -> u64 {
        self.inner.id
    }

    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Seconds since creation, frozen by [`finish`](Self::finish).
    pub fn wall_s(&self) -> f64 {
        let bits = self.inner.end_s_bits.load(Ordering::Relaxed);
        if bits == RUNNING {
            self.inner.started.elapsed().as_secs_f64()
        } else {
            f64::from_bits(bits)
        }
    }

    pub fn finished(&self) -> bool {
        self.inner.end_s_bits.load(Ordering::Relaxed) != RUNNING
    }

    /// Freezes the context's wall time (idempotent) and returns it;
    /// [`wall_s`](Self::wall_s) reads this final value from then on.
    pub fn finish(&self) -> f64 {
        let elapsed = self.inner.started.elapsed().as_secs_f64();
        let _ = self.inner.end_s_bits.compare_exchange(
            RUNNING,
            elapsed.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        self.wall_s()
    }

    /// This context's delta of a global counter (0 when never bumped
    /// inside the context).
    pub fn counter_delta(&self, name: &str) -> u64 {
        lock(&self.inner.counters).get(name).copied().unwrap_or(0)
    }

    /// Derived cache hit ratio over this context's own lookups — the
    /// per-request counterpart of the global `cache.hit_ratio` gauge
    /// (stale and corrupt lookups count as misses). `None` before the
    /// first lookup.
    pub fn cache_hit_ratio(&self) -> Option<f64> {
        let hits = self.counter_delta("cache.hits") as f64;
        let lookups = hits
            + self.counter_delta("cache.misses") as f64
            + self.counter_delta("cache.stale") as f64
            + self.counter_delta("cache.corrupt") as f64;
        (lookups > 0.0).then(|| hits / lookups)
    }
}

impl Drop for ContextScope {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        ENTERED.fetch_sub(1, Ordering::Relaxed);
        let _ = STACK.try_with(|s| {
            if let Ok(mut v) = s.try_borrow_mut() {
                // Pop this entry (and anything leaked above it), matching
                // the span stack's truncation idiom.
                if let Some(i) = v.iter().rposition(|c| c.id == self.id) {
                    v.truncate(i);
                }
            }
        });
    }
}

/// Every context still alive (some handle exists), oldest first.
pub(crate) fn live_contexts() -> Vec<TelemetryContext> {
    context_registry()
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .filter_map(Weak::upgrade)
        .map(|inner| TelemetryContext { inner })
        .collect()
}

/// Number of live contexts (the `/healthz` payload reports it).
pub fn active_context_count() -> usize {
    live_contexts().len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_attribute_to_the_innermost_entered_context() {
        let outer = TelemetryContext::new("ctx.test.outer");
        let inner = TelemetryContext::new("ctx.test.inner");
        assert_ne!(outer.id(), inner.id());

        let _o = outer.enter();
        crate::counter("ctx.test.counter").add(3);
        {
            let _i = inner.enter();
            assert_eq!(TelemetryContext::current().unwrap().id(), inner.id());
            crate::counter("ctx.test.counter").add(10);
        }
        crate::counter("ctx.test.counter").add(4);

        assert_eq!(outer.counter_delta("ctx.test.counter"), 7);
        assert_eq!(inner.counter_delta("ctx.test.counter"), 10);
    }

    #[test]
    fn uncontexted_updates_touch_no_context() {
        let ctx = TelemetryContext::new("ctx.test.idle");
        crate::counter("ctx.test.idle.counter").inc();
        assert_eq!(ctx.counter_delta("ctx.test.idle.counter"), 0);
    }

    #[test]
    fn propagates_across_threads_via_current_and_enter() {
        let ctx = TelemetryContext::new("ctx.test.xthread");
        let _g = ctx.enter();
        let captured = TelemetryContext::current().expect("context is current");
        std::thread::spawn(move || {
            let _w = captured.enter();
            crate::counter("ctx.test.xthread.work").add(5);
        })
        .join()
        .unwrap();
        assert_eq!(ctx.counter_delta("ctx.test.xthread.work"), 5);
    }

    #[test]
    fn finish_freezes_wall_time() {
        let ctx = TelemetryContext::new("ctx.test.finish");
        assert!(!ctx.finished());
        let w = ctx.finish();
        assert!(ctx.finished());
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(ctx.wall_s(), w, "wall time frozen at finish");
        assert_eq!(ctx.finish(), w, "finish is idempotent");
    }

    #[test]
    fn cache_hit_ratio_derives_from_scoped_counters() {
        let ctx = TelemetryContext::new("ctx.test.ratio");
        assert_eq!(ctx.cache_hit_ratio(), None, "no lookups yet");
        let _g = ctx.enter();
        crate::counter("cache.hits").add(3);
        crate::counter("cache.misses").add(1);
        drop(_g);
        assert_eq!(ctx.cache_hit_ratio(), Some(0.75));
    }

    #[test]
    fn registry_lists_live_contexts() {
        let ctx = TelemetryContext::new("ctx.test.registry");
        {
            let _g = ctx.enter();
            crate::counter("ctx.test.registry.hits").inc();
        }
        let live = live_contexts();
        let mine = live.iter().find(|c| c.id() == ctx.id()).expect("live context listed");
        assert_eq!(mine.name(), "ctx.test.registry");
        assert_eq!(mine.counter_delta("ctx.test.registry.hits"), 1);
        assert!(!mine.finished());
        assert!(active_context_count() >= 1);
    }

    #[test]
    fn dropped_contexts_leave_the_registry() {
        let id = {
            let ctx = TelemetryContext::new("ctx.test.dropme");
            ctx.id()
        };
        assert!(
            !live_contexts().iter().any(|c| c.id() == id),
            "dropped context {id} still listed"
        );
    }
}
