//! Crash-path telemetry: a process panic hook that gets the trace to disk
//! before the process dies.
//!
//! Without it, a panic mid-run loses everything buffered in the JSONL
//! writer since the last once-a-second flush, and the operator learns
//! nothing about *where* in the pipeline the crash happened. The hook emits one
//! final `panic` event carrying the message, source location, and the
//! live span stack of the panicking thread, flushes the stream, and then
//! defers to whatever hook was installed before it (normally the default
//! backtrace printer).
//!
//! Every step is panic-safe: the span stack is read through `try_borrow`,
//! the trace writer through `try_lock`, and the registry/sink mutexes are
//! poison-tolerant — so a panic raised while any of those locks are held
//! degrades to a partial dump instead of a deadlock or an abort.

use std::panic::{self, PanicHookInfo};
use std::sync::atomic::{AtomicBool, Ordering};

use crate::json::Json;
use crate::sink;
use crate::span;

static INSTALLED: AtomicBool = AtomicBool::new(false);

/// Installs the crash-path hook (idempotent — the second and later calls
/// are no-ops). Chains the previously installed hook, so the standard
/// backtrace output is preserved.
pub fn install_panic_hook() {
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let previous = panic::take_hook();
    panic::set_hook(Box::new(move |info: &PanicHookInfo<'_>| {
        report_panic(info);
        previous(info);
    }));
}

/// Whether [`install_panic_hook`] has run in this process.
pub fn panic_hook_installed() -> bool {
    INSTALLED.load(Ordering::SeqCst)
}

fn payload_message(info: &PanicHookInfo<'_>) -> String {
    let payload = info.payload();
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn report_panic(info: &PanicHookInfo<'_>) {
    let msg = payload_message(info);
    let location = info
        .location()
        .map(|l| format!("{}:{}:{}", l.file(), l.line(), l.column()));
    let spans = span::live_stack();

    // Human-readable context on stderr (the chained default hook prints
    // the message itself; we add the span that was live).
    if let Some(stack) = spans.as_ref().filter(|s| !s.is_empty()) {
        // Entries are full dotted paths; the innermost carries the rest.
        eprintln!(
            "kgtosa: panic inside span `{}`",
            stack.last().map(String::as_str).unwrap_or("?")
        );
    }

    let mut fields = vec![("msg".to_string(), Json::Str(msg))];
    if let Some(loc) = location {
        fields.push(("location".to_string(), Json::Str(loc)));
    }
    match spans {
        Some(stack) => fields.push((
            "spans".to_string(),
            Json::Arr(stack.into_iter().map(Json::Str).collect()),
        )),
        None => fields.push(("spans_unavailable".to_string(), Json::Bool(true))),
    }
    sink::emit_event_panic_safe("panic", fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_is_idempotent_and_chains() {
        install_panic_hook();
        install_panic_hook();
        assert!(panic_hook_installed());
        // A caught panic must still unwind normally through the hook.
        let caught = std::panic::catch_unwind(|| {
            let _g = crate::span("panic_hook_test.op");
            panic!("synthetic failure for the hook test");
        });
        assert!(caught.is_err());
        // And the span stack must be usable again afterwards.
        assert_eq!(crate::span("panic_hook_test.after").finish().path, "panic_hook_test.after");
    }
}
