//! # kgtosa-memtrack — a tracking global allocator
//!
//! The paper reports training *memory* as one of its three headline metrics
//! (Figures 1, 6, 7, 8; Table IV). On the original testbed that is process
//! RSS; here the equivalent signal is live/peak heap bytes, captured by
//! wrapping the system allocator with atomic counters.
//!
//! Install in a binary with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: kgtosa_memtrack::TrackingAllocator = kgtosa_memtrack::TrackingAllocator;
//! ```
//!
//! then bracket a phase with [`reset_peak`] / [`peak_bytes`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// A `GlobalAlloc` wrapper counting live and peak heap bytes.
pub struct TrackingAllocator;

// SAFETY: delegates all allocation to `System`, only adding counters.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            add(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        sub(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            sub(layout.size());
            add(new_size);
        }
        new_ptr
    }
}

#[inline]
fn add(n: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(n, Ordering::Relaxed) + n;
    // Lock-free peak update.
    let mut peak = PEAK.load(Ordering::Relaxed);
    while live > peak {
        match PEAK.compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(p) => peak = p,
        }
    }
}

#[inline]
fn sub(n: usize) {
    LIVE.fetch_sub(n, Ordering::Relaxed);
}

/// Currently live heap bytes.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Peak live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Resets the peak to the current live value and returns the old peak.
/// Call at the start of a measured phase.
pub fn reset_peak() -> usize {
    PEAK.swap(LIVE.load(Ordering::Relaxed), Ordering::Relaxed)
}

/// Total heap allocations since process start (`alloc` + growing
/// `realloc` calls). Monotonic — deallocations do not decrease it.
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// A point-in-time view of the allocator counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemSnapshot {
    pub live_bytes: usize,
    pub peak_bytes: usize,
    pub alloc_count: u64,
}

/// Captures all three counters at once. Diffing two snapshots gives a
/// phase's heap growth and allocation churn (used by `kgtosa-obs` spans).
pub fn snapshot() -> MemSnapshot {
    MemSnapshot {
        live_bytes: live_bytes(),
        peak_bytes: peak_bytes(),
        alloc_count: alloc_count(),
    }
}

/// Convenience: runs `f`, returning its result plus the peak heap bytes
/// observed during the call (relative to the live level at entry).
pub fn measure_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = live_bytes();
    reset_peak();
    let out = f();
    let peak = peak_bytes();
    (out, peak.saturating_sub(base))
}

/// Formats a byte count as a human-readable string (e.g. `1.5 GiB`).
pub fn format_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0usize;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the allocator is not installed in unit tests (no
    // #[global_allocator] here), so counters only move via direct calls.

    /// The counters are process-global and tests run on parallel threads:
    /// every test that moves `PEAK` holds this, so no `reset_peak` lands
    /// inside another test's measurement.
    static PEAK_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        PEAK_TESTS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn format_bytes_units() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.0 KiB");
        assert_eq!(format_bytes(3 * 1024 * 1024), "3.0 MiB");
    }

    #[test]
    fn counters_move() {
        let _serial = serial();
        add(1000);
        assert!(live_bytes() >= 1000);
        assert!(peak_bytes() >= 1000);
        sub(1000);
        reset_peak();
        assert_eq!(peak_bytes(), live_bytes());
    }

    #[test]
    fn snapshot_tracks_alloc_count() {
        let _serial = serial();
        let before = snapshot();
        add(100);
        add(200);
        sub(300);
        let after = snapshot();
        // Other tests may allocate concurrently; only monotonicity and the
        // two increments from this test are guaranteed.
        assert!(after.alloc_count >= before.alloc_count + 2);
    }

    #[test]
    fn measure_peak_returns_result() {
        let _serial = serial();
        let (v, peak) = measure_peak(|| {
            add(5000);
            sub(5000);
            42
        });
        assert_eq!(v, 42);
        assert!(peak >= 5000);
    }
}
