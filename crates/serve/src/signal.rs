//! Async-signal-safe SIGTERM/SIGINT latch for graceful drain.
//!
//! No runtime, no pipe tricks: the handler stores one relaxed atomic and
//! returns (the only thing that is async-signal-safe anyway), and the
//! daemon's drain watcher polls [`triggered`].

#[cfg(unix)]
mod imp {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_term(_sig: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Installs the latch for SIGTERM and SIGINT. Idempotent.
    pub fn install() {
        unsafe {
            signal(SIGTERM, on_term as *const () as usize);
            signal(SIGINT, on_term as *const () as usize);
        }
    }

    /// True once a termination signal has been delivered.
    pub fn triggered() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }

    /// Trips the latch in-process (tests exercise the drain path without
    /// raising a real signal).
    pub fn trigger_for_test() {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
    pub fn triggered() -> bool {
        false
    }
    pub fn trigger_for_test() {}
}

pub use imp::{install, trigger_for_test, triggered};
