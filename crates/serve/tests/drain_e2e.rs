//! Drain-semantics e2e: a SIGTERM (via the test latch) mid-traffic must
//! stop new admissions, let in-flight requests complete or
//! deadline-cancel, and leave complete telemetry behind — the JSONL
//! trace parses line-by-line and renders to a valid Chrome trace.
//!
//! This test arms process-global observability sinks and the global
//! signal latch, so it lives alone in its own test binary.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use kgtosa_obs::Json;
use kgtosa_rdf::FaultPlan;
use kgtosa_serve::client::post_json;
use kgtosa_serve::{signal, ServeConfig, ServeState, Server};

#[test]
fn drain_completes_inflight_and_flushes_traces() {
    let dir = std::env::temp_dir().join(format!("kgtosa-drain-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let jsonl = dir.join("trace.jsonl");
    kgtosa_obs::init_trace_to(jsonl.to_str().unwrap()).expect("arm JSONL trace");

    let state = ServeState::from_dataset(ServeConfig {
        dataset: "mag".into(),
        scale: 0.02,
        seed: 7,
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("serve state");
    let server = Server::bind(Arc::clone(&state)).expect("bind");
    let addr = server.addr();
    let server_thread = std::thread::spawn(move || server.run().expect("serve loop"));

    // Slow every endpoint page down so the in-flight request is still
    // running when the drain signal lands.
    *state.fault.lock().unwrap() = Some(FaultPlan {
        seed: 7,
        latency_rate: 1.0,
        latency_us: 20_000,
        ..FaultPlan::default()
    });
    let task = state.nc_tasks()[0].name.clone();
    let slow_body = format!("{{\"task\":\"{task}\",\"pattern\":\"d2h1\",\"deadline_ms\":30000}}");
    let slow = {
        let body = slow_body.clone();
        std::thread::spawn(move || post_json(addr, "/extract", &body, Duration::from_secs(60)))
    };
    // A second request with an already-hopeless budget: drain must answer
    // it 504, not strand it.
    let doomed = {
        let body = format!("{{\"task\":\"{task}\",\"pattern\":\"d2h2\",\"deadline_ms\":1}}");
        std::thread::spawn(move || post_json(addr, "/extract", &body, Duration::from_secs(60)))
    };
    std::thread::sleep(Duration::from_millis(60));

    // SIGTERM path: the latch the real handler sets.
    signal::trigger_for_test();
    let report = server_thread.join().expect("server thread");

    // In-flight work completed (or deadline-cancelled), never dropped.
    let slow_reply = slow.join().unwrap().expect("in-flight request must get a response");
    assert_eq!(slow_reply.status, 200, "in-flight extract completes during drain: {}", slow_reply.body);
    let doomed_reply = doomed.join().unwrap().expect("doomed request must get a response");
    assert_eq!(doomed_reply.status, 504, "hopeless budget is cancelled, not stranded");
    assert!(report.served >= 2);
    assert!(report.deadline_expired >= 1);

    // No new admissions after drain: the listener is gone.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "post-drain connections must be refused"
    );

    // Telemetry is complete: every JSONL line parses, and the Chrome
    // trace rendered from it passes the structural validator.
    kgtosa_obs::shutdown();
    let text = std::fs::read_to_string(&jsonl).expect("JSONL trace exists");
    let mut events = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        Json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        events += 1;
    }
    assert!(events > 0, "drain left an empty trace");
    let chrome_text = kgtosa_obs::render_chrome_trace(&text).expect("JSONL trace renders");
    let stats = kgtosa_obs::validate_chrome_trace(&chrome_text).expect("chrome trace validates");
    assert!(stats.span_events > 0, "chrome trace has span events");
    let _ = std::fs::remove_dir_all(&dir);
}
