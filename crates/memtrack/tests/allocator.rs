//! Integration test with the tracking allocator actually installed —
//! exercising the real alloc/dealloc/realloc paths, which unit tests
//! cannot do (no `#[global_allocator]` in lib tests).

use std::sync::{Mutex, MutexGuard, PoisonError};

use kgtosa_memtrack::{format_bytes, live_bytes, measure_peak, peak_bytes, reset_peak};

#[global_allocator]
static ALLOC: kgtosa_memtrack::TrackingAllocator = kgtosa_memtrack::TrackingAllocator;

/// The live/peak counters are process-global and every test here asserts
/// on them around megabyte allocations of its own, so the tests take
/// turns instead of running on the harness's parallel threads. The
/// harness still frees a finished test's bookkeeping while the next one
/// runs, so every bound below leaves far more slack than that.
fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn tracks_vec_allocations() {
    let _turn = serial();
    let before = live_bytes();
    let v: Vec<u8> = vec![0u8; 2 << 20];
    assert!(
        live_bytes() >= before + (1 << 20),
        "2 MiB allocation must be visible"
    );
    drop(v);
    assert!(live_bytes() < before + (1 << 20));
}

#[test]
fn peak_survives_drop() {
    let _turn = serial();
    reset_peak();
    let base = peak_bytes();
    {
        let _big: Vec<u64> = vec![0; 500_000]; // ~4 MB
        assert!(peak_bytes() >= base + 3_000_000);
    }
    // Dropped, but peak remembers.
    assert!(peak_bytes() >= base + 3_000_000);
    reset_peak();
    assert!(peak_bytes() < base + 3_000_000);
}

#[test]
fn measure_peak_isolates_phases() {
    let _turn = serial();
    let (_, peak1) = measure_peak(|| {
        let _v: Vec<u8> = vec![1; 3 << 20];
    });
    let (_, peak2) = measure_peak(|| {
        let _v: Vec<u8> = vec![1; 64];
    });
    assert!(peak1 >= 2 << 20);
    assert!(peak2 < 1 << 20, "second phase must not inherit first peak: {peak2}");
}

#[test]
fn realloc_keeps_accounting_consistent() {
    let _turn = serial();
    reset_peak();
    let before = live_bytes();
    let mut v: Vec<u8> = Vec::new();
    for i in 0..100_000u32 {
        v.push((i % 251) as u8); // forces repeated reallocs
    }
    assert!(live_bytes() >= before + 100_000);
    drop(v);
    // All growth returned (within noise from the test harness itself).
    assert!(live_bytes() < before + 100_000);
    assert!(!format_bytes(live_bytes()).is_empty());
}
