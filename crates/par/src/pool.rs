//! The scoped thread pool and its chunked primitives.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Interned `"par.<name>"` region label. Region names are compile-time
/// string literals at every call site, so the intern table is bounded by
/// the number of distinct regions in the binary; after the first region
/// entry the hot path is one read-locked map probe instead of a fresh
/// `String` allocation per parallel region.
fn region_label(name: &str) -> &'static str {
    static LABELS: OnceLock<std::sync::RwLock<HashMap<String, &'static str>>> = OnceLock::new();
    let labels = LABELS.get_or_init(|| std::sync::RwLock::new(HashMap::new()));
    if let Some(&label) = labels
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .get(name)
    {
        return label;
    }
    let mut map = labels.write().unwrap_or_else(PoisonError::into_inner);
    map.entry(name.to_string())
        .or_insert_with(|| Box::leak(format!("par.{name}").into_boxed_str()))
}

/// Elements per row-block chunk. Chunk boundaries derive from this and the
/// problem shape only — never from the thread count — which is half of the
/// determinism contract (see the crate docs).
pub const CHUNK_ELEMS: usize = 1 << 15;

/// Element-operations below which a kernel should stay serial: scoped
/// thread spawn costs tens of microseconds, so parallelism only pays once
/// the work comfortably exceeds it.
pub const MIN_PAR_WORK: usize = 1 << 16;

/// Rows per chunk for a row-blocked kernel whose rows have `cols`
/// elements of work each.
pub fn chunk_rows(cols: usize) -> usize {
    (CHUNK_ELEMS / cols.max(1)).max(1)
}

/// Process-global thread count; 0 means "not resolved yet".
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread override installed by [`with_threads`]; 0 = none.
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// The machine's parallelism, clamped to a sane range.
pub fn recommended_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 64)
}

fn env_threads() -> Option<usize> {
    std::env::var("KGTOSA_THREADS")
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()
        .map(|n| n.max(1))
}

/// Sets the global thread count (the CLI's `--threads N`). Takes effect
/// for every subsequent kernel call in the process.
pub fn set_threads(n: usize) {
    GLOBAL_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// The thread count kernels on this thread will use right now.
pub fn current_threads() -> usize {
    let over = OVERRIDE.with(Cell::get);
    if over != 0 {
        return over;
    }
    match GLOBAL_THREADS.load(Ordering::Relaxed) {
        0 => {
            let n = env_threads().unwrap_or_else(recommended_threads);
            // A racing first call resolves to the same value; last store wins.
            GLOBAL_THREADS.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Runs `f` with the calling thread's kernels pinned to `n` threads
/// (restored afterwards, panic-safe). The override is per-thread, so
/// concurrent tests can pin different counts without racing.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|c| c.replace(n.max(1)));
    let _restore = Restore(prev);
    f()
}

/// A handle describing how much parallelism to use. Creating one is free:
/// the pool spawns scoped threads per parallel region rather than keeping
/// persistent workers, so the handle is just a thread-count policy.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool running `threads` workers per region (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The pool sized by the current global/override thread count.
    pub fn current() -> Self {
        Self::new(current_threads())
    }

    /// A single-threaded pool (kernels use it below [`MIN_PAR_WORK`]).
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// The pool for a kernel with `work` total element-operations: the
    /// current pool when the work is large enough to amortize thread
    /// spawns, the serial pool otherwise. The cutover depends only on the
    /// problem size, so it cannot break determinism.
    pub fn for_work(work: usize) -> Self {
        if work >= MIN_PAR_WORK {
            Self::current()
        } else {
            Self::serial()
        }
    }

    /// Worker count of this pool.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Splits `data` into `chunk_len`-sized chunks and runs
    /// `f(chunk_index, chunk)` over them, in parallel when the pool has
    /// more than one thread. Chunks are disjoint `&mut` slices, so each
    /// output element is written by exactly one worker and the result is
    /// identical to the serial loop at any thread count.
    pub fn par_chunks_mut<T, F>(&self, name: &str, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let chunk_len = chunk_len.max(1);
        let n_chunks = data.len().div_ceil(chunk_len);
        let workers = self.threads.min(n_chunks);
        if workers <= 1 {
            for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
                f(i, chunk);
            }
            return;
        }
        let _span = kgtosa_obs::span(region_label(name));
        let queue = Mutex::new(data.chunks_mut(chunk_len).enumerate());
        let telemetry = Telemetry::new(n_chunks);
        // Causal context propagation: workers run under the telemetry
        // context of the thread that opened the region, so scoped counter
        // and span attributions stay per-request. Observability only —
        // chunking and scheduling never read the context.
        let ctx = kgtosa_obs::TelemetryContext::current();
        let region_start = std::time::Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let _ctx = ctx.as_ref().map(|c| c.enter());
                    let mut handled = 0u64;
                    let mut busy_s = 0.0f64;
                    loop {
                        let item = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                        let Some((i, chunk)) = item else { break };
                        telemetry.claimed();
                        handled += 1;
                        let t0 = std::time::Instant::now();
                        f(i, chunk);
                        busy_s += t0.elapsed().as_secs_f64();
                    }
                    telemetry.worker_done(handled, busy_s);
                });
            }
        });
        telemetry.region_done(workers, region_start.elapsed().as_secs_f64());
    }

    /// Computes `f(i, &items[i])` for every item and returns the results
    /// **in input order**, regardless of which worker computed what.
    /// Scheduling is dynamic (an atomic cursor), which balances uneven
    /// per-item cost (PPR pushes, SPARQL subqueries) without affecting
    /// the output.
    pub fn par_map_collect<T, R, F>(&self, name: &str, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let _span = kgtosa_obs::span(region_label(name));
        let next = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
        let telemetry = Telemetry::new(items.len());
        let ctx = kgtosa_obs::TelemetryContext::current();
        let region_start = std::time::Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let _ctx = ctx.as_ref().map(|c| c.enter());
                    let mut local: Vec<(usize, R)> = Vec::new();
                    let mut busy_s = 0.0f64;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        telemetry.claimed();
                        let t0 = std::time::Instant::now();
                        local.push((i, f(i, &items[i])));
                        busy_s += t0.elapsed().as_secs_f64();
                    }
                    telemetry.worker_done(local.len() as u64, busy_s);
                    collected
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .append(&mut local);
                });
            }
        });
        telemetry.region_done(workers, region_start.elapsed().as_secs_f64());
        let mut pairs = collected
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        pairs.sort_unstable_by_key(|&(i, _)| i);
        debug_assert_eq!(pairs.len(), items.len());
        pairs.into_iter().map(|(_, r)| r).collect()
    }
}

/// Shared per-region metric handles, looked up once per region.
struct Telemetry {
    total: usize,
    claimed: AtomicUsize,
    depth: std::sync::Arc<kgtosa_obs::Gauge>,
    per_worker: std::sync::Arc<kgtosa_obs::Histogram>,
    /// Seconds each worker spent inside the user closure (lock waits and
    /// scheduling excluded) — the profiler's view of where worker wall
    /// time actually went.
    busy: std::sync::Arc<kgtosa_obs::Histogram>,
    busy_total: Mutex<f64>,
}

impl Telemetry {
    fn new(total: usize) -> Self {
        Self {
            total,
            claimed: AtomicUsize::new(0),
            depth: kgtosa_obs::gauge("par.queue_depth"),
            per_worker: kgtosa_obs::histogram_with_bounds(
                "par.tasks_per_worker",
                &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0],
            ),
            busy: kgtosa_obs::histogram("par.worker_busy_s"),
            busy_total: Mutex::new(0.0),
        }
    }

    fn claimed(&self) {
        let done = self.claimed.fetch_add(1, Ordering::Relaxed) + 1;
        self.depth.set(self.total.saturating_sub(done) as i64);
    }

    fn worker_done(&self, handled: u64, busy_s: f64) {
        self.per_worker.observe(handled as f64);
        self.busy.observe(busy_s);
        *self
            .busy_total
            .lock()
            .unwrap_or_else(PoisonError::into_inner) += busy_s;
    }

    /// Publishes the region's worker utilization: busy worker-seconds over
    /// available worker-seconds (`workers × region wall`). 1.0 means every
    /// worker computed the whole time; low values expose queue contention
    /// or load imbalance. Last region wins — it's a live gauge, and the
    /// per-region history lives in the `par.worker_busy_s` histogram.
    fn region_done(&self, workers: usize, wall_s: f64) {
        let capacity = workers as f64 * wall_s;
        if capacity > 0.0 {
            let busy = *self
                .busy_total
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let util = (busy / capacity).clamp(0.0, 1.0);
            kgtosa_obs::gauge_f64("par.utilization").set(util);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_rows_is_shape_only() {
        assert_eq!(chunk_rows(0), CHUNK_ELEMS);
        assert_eq!(chunk_rows(1), CHUNK_ELEMS);
        assert_eq!(chunk_rows(CHUNK_ELEMS), 1);
        assert_eq!(chunk_rows(CHUNK_ELEMS * 10), 1);
        assert_eq!(chunk_rows(64), CHUNK_ELEMS / 64);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = current_threads();
        let inner = with_threads(3, current_threads);
        assert_eq!(inner, 3);
        assert_eq!(current_threads(), outer);
        // Nested overrides unwind correctly.
        with_threads(2, || {
            assert_eq!(current_threads(), 2);
            with_threads(5, || assert_eq!(current_threads(), 5));
            assert_eq!(current_threads(), 2);
        });
    }

    #[test]
    fn par_chunks_mut_covers_every_chunk_once() {
        for threads in [1, 2, 4, 8] {
            let mut data = vec![0u32; 1000];
            Pool::new(threads).par_chunks_mut("test.chunks", &mut data, 7, |ci, chunk| {
                for (off, v) in chunk.iter_mut().enumerate() {
                    *v = (ci * 7 + off) as u32 + 1;
                }
            });
            assert!(
                data.iter().enumerate().all(|(i, &v)| v == i as u32 + 1),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn par_map_collect_preserves_input_order() {
        let items: Vec<usize> = (0..513).collect();
        let serial = Pool::new(1).par_map_collect("test.map", &items, |i, &x| i * 1000 + x);
        for threads in [2, 3, 8] {
            let par = Pool::new(threads).par_map_collect("test.map", &items, |i, &x| i * 1000 + x);
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn par_map_collect_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(Pool::new(4)
            .par_map_collect("test.map", &empty, |_, &x| x)
            .is_empty());
        assert_eq!(
            Pool::new(4).par_map_collect("test.map", &[41u32], |_, &x| x + 1),
            vec![42]
        );
    }

    #[test]
    fn for_work_selects_serial_below_threshold() {
        assert_eq!(Pool::for_work(MIN_PAR_WORK - 1).threads(), 1);
        let big = Pool::for_work(MIN_PAR_WORK);
        assert_eq!(big.threads(), current_threads());
    }

    #[test]
    fn parallel_regions_publish_busy_time_and_utilization() {
        let before = kgtosa_obs::histogram("par.worker_busy_s").count();
        let items: Vec<u64> = (0..256).collect();
        let _ = Pool::new(4).par_map_collect("test.busy", &items, |_, &x| {
            let mut acc = 0u64;
            for i in 0..2000 {
                acc = acc.wrapping_add(x * i);
            }
            acc
        });
        assert!(
            kgtosa_obs::histogram("par.worker_busy_s").count() > before,
            "each worker must report its busy time"
        );
        let util = kgtosa_obs::gauge_f64("par.utilization").get();
        assert!((0.0..=1.0).contains(&util), "utilization out of range: {util}");
    }

    #[test]
    fn region_labels_are_interned_statics() {
        let a = region_label("test.intern");
        let b = region_label("test.intern");
        assert_eq!(a, "par.test.intern");
        // Same leaked allocation both times, not merely equal text.
        assert!(std::ptr::eq(a, b));
        assert_eq!(region_label("test.intern2"), "par.test.intern2");
    }

    #[test]
    fn workers_inherit_the_spawning_context() {
        let ctx = kgtosa_obs::TelemetryContext::new("par.test.ctx");
        let _g = ctx.enter();
        let items: Vec<u64> = (0..64).collect();
        for threads in [2, 4, 8] {
            let _ = Pool::new(threads).par_map_collect("test.ctx", &items, |_, &x| {
                kgtosa_obs::counter("par.test.ctx.units").inc();
                x
            });
        }
        let mut data = vec![0u8; 128];
        Pool::new(4).par_chunks_mut("test.ctx", &mut data, 8, |_, chunk| {
            kgtosa_obs::counter("par.test.ctx.units").add(chunk.len() as u64);
        });
        // Every unit of work, regardless of which worker thread ran it,
        // attributed to the spawning thread's context: 3×64 map items and
        // 128 chunk elements.
        assert_eq!(ctx.counter_delta("par.test.ctx.units"), 3 * 64 + 128);
    }

    #[test]
    fn uneven_work_still_ordered() {
        // Make late items cheap and early items expensive so dynamic
        // scheduling finishes out of order; collection must re-order.
        let items: Vec<u64> = (0..64).rev().collect();
        let out = Pool::new(8).par_map_collect("test.uneven", &items, |_, &x| {
            let mut acc = 0u64;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_add(i);
            }
            (x, acc).0
        });
        assert_eq!(out, items);
    }
}
