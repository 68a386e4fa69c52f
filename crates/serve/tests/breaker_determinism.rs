//! Breaker determinism: the circuit breaker's trip / half-open / close
//! trajectory must be a pure function of the seeded fault schedule, not of
//! the fetch thread count — and degraded (cache-served) answers must be
//! bit-identical to the fresh answers they stand in for.
//!
//! Scope note: the invariance property is stated over extraction shapes
//! whose compiled var-groups each hold exactly one subquery (single-class
//! NC tasks under `d1h1`/`d2h1`/`d1h2`). For those, pagination through the
//! fault → retry → breaker stack is serialized by construction, so the
//! breaker sees the identical admit/record schedule at any `threads`
//! setting. `d2h2` compiles two subqueries into each var-group, which the
//! fetch pool genuinely runs concurrently; its *outcomes* stay
//! deterministic (the fault schedule keys on query text) but the breaker's
//! transition ordinals depend on interleaving — so it is deliberately
//! excluded here and covered by the loadgen invariants instead.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use kgtosa_core::{extract_sparql, ExtractionTask, GraphPattern};
use kgtosa_obs::httpd::HttpRequest;
use kgtosa_obs::Json;
use kgtosa_rdf::{
    BreakerPolicy, CircuitBreaker, FaultPlan, FetchConfig, FetchMode, RdfStore, RetryPolicy,
};
use kgtosa_serve::{handle_guarded, ServeConfig, ServeState};
use proptest::prelude::*;

/// The store (owning its graph) and the NC task every schedule extracts.
fn world() -> &'static (RdfStore<'static>, ExtractionTask) {
    static WORLD: OnceLock<(RdfStore<'static>, ExtractionTask)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let ds = kgtosa_datagen::mag(0.02, 7);
        let t = &ds.nc[0];
        let task = ExtractionTask::node_classification(&t.name, &t.target_class, t.targets());
        (RdfStore::shared(Arc::new(ds.gen.kg)), task)
    })
}

/// Everything the `rdf.breaker.*` counters are derived from, read off one
/// breaker instance.
#[derive(Debug, PartialEq)]
struct Snapshot {
    state: &'static str,
    trips: u64,
    rejections: u64,
    probes: u64,
    closes: u64,
    trajectory: Vec<String>,
}

/// Replays the fixed request schedule (two passes over the serialized
/// patterns) through a fresh breaker at the given thread count.
fn run_schedule(fault_seed: u64, threads: usize) -> Snapshot {
    let (store, task) = world();
    let breaker = CircuitBreaker::new(BreakerPolicy {
        trip_threshold: 2,
        cooldown_requests: 4,
        seed: fault_seed,
    });
    let patterns = [GraphPattern::D1H1, GraphPattern::D2H1, GraphPattern::D1H2];
    for _pass in 0..2 {
        for pattern in &patterns {
            let cfg = FetchConfig {
                batch_size: 256,
                threads,
                retry: Some(RetryPolicy {
                    max_attempts: 2,
                    base_backoff_us: 1,
                    max_backoff_us: 10,
                    jitter_seed: fault_seed,
                    request_deadline: None,
                    fetch_deadline: None,
                }),
                fault: Some(FaultPlan {
                    seed: fault_seed,
                    fault_rate: 0.7,
                    max_burst: 3,
                    fatal_rate: 0.4,
                    latency_rate: 0.0,
                    latency_us: 0,
                }),
                mode: FetchMode::Partial,
                breaker: Some(breaker.clone()),
                ..FetchConfig::default()
            };
            // Partial mode keeps paginating past failures, so the breaker
            // sees the full page schedule either way; an Err here (e.g.
            // breaker open at fetch start) is part of the trajectory.
            let _ = extract_sparql(store, task, pattern, &cfg);
        }
    }
    Snapshot {
        state: breaker.state().label(),
        trips: breaker.trips(),
        rejections: breaker.rejections(),
        probes: breaker.probes(),
        closes: breaker.closes(),
        trajectory: breaker.trajectory(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Same fault seed ⇒ identical breaker counter trajectory at 1, 4, and
    /// 8 fetch threads.
    #[test]
    fn breaker_trajectory_is_a_pure_function_of_the_fault_seed(fault_seed in 0u64..1_000_000) {
        let base = run_schedule(fault_seed, 1);
        for threads in [4usize, 8] {
            let other = run_schedule(fault_seed, threads);
            prop_assert_eq!(
                &base, &other,
                "breaker trajectory diverged between 1 and {} threads", threads
            );
        }
    }
}

/// The property above must not hold vacuously: an all-fatal schedule has to
/// actually trip the breaker and reject work, identically at every thread
/// count.
#[test]
fn all_fatal_schedule_trips_and_rejects_identically() {
    let (store, task) = world();
    let mut snaps = Vec::new();
    for threads in [1usize, 4, 8] {
        let breaker = CircuitBreaker::new(BreakerPolicy {
            trip_threshold: 2,
            cooldown_requests: 4,
            seed: 7,
        });
        for _ in 0..3 {
            let cfg = FetchConfig {
                batch_size: 256,
                threads,
                fault: Some(FaultPlan {
                    seed: 7,
                    fault_rate: 1.0,
                    max_burst: 1,
                    fatal_rate: 1.0,
                    latency_rate: 0.0,
                    latency_us: 0,
                }),
                mode: FetchMode::Partial,
                breaker: Some(breaker.clone()),
                ..FetchConfig::default()
            };
            let _ = extract_sparql(store, task, &GraphPattern::D2H1, &cfg);
        }
        snaps.push((breaker.trips(), breaker.rejections(), breaker.trajectory()));
    }
    assert!(snaps[0].0 > 0, "all-fatal schedule must trip: {snaps:?}");
    assert!(snaps[0].1 > 0, "open breaker must reject requests: {snaps:?}");
    assert_eq!(snaps[0], snaps[1]);
    assert_eq!(snaps[0], snaps[2]);
}

fn post(state: &ServeState, path: &str, body: &str) -> (u16, Json) {
    let req = HttpRequest {
        method: "POST".into(),
        path: path.into(),
        query: String::new(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    };
    let resp = handle_guarded(state, &req, Instant::now());
    let text = String::from_utf8(resp.body.clone()).expect("utf8 body");
    let json = Json::parse(&text).unwrap_or(Json::Null);
    (resp.status, json)
}

/// A degraded answer (served from the artifact cache while the breaker is
/// open) is bit-identical to the fresh answer: same subgraph fingerprint,
/// flagged `degraded` so the caller knows it may be stale.
#[test]
fn degraded_cache_answers_are_bit_identical_to_fresh() {
    let dir = std::env::temp_dir().join(format!("kgtosa-degraded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let state = ServeState::from_dataset(ServeConfig {
        dataset: "mag".into(),
        scale: 0.02,
        seed: 7,
        cache_dir: Some(dir.clone()),
        breaker: BreakerPolicy { trip_threshold: 2, cooldown_requests: 64, seed: 7 },
        ..ServeConfig::default()
    })
    .expect("serve state");
    let task = state.nc_tasks()[0].name.clone();
    let body = format!("{{\"task\":\"{task}\",\"pattern\":\"d1h1\",\"deadline_ms\":30000}}");

    // Fresh answer, then a healthy cache hit: same fingerprint, not degraded.
    let (status, fresh) = post(&state, "/extract", &body);
    assert_eq!(status, 200, "fresh extract: {fresh:?}");
    assert_eq!(fresh.get("degraded").and_then(Json::as_bool), Some(false));
    let fingerprint = fresh
        .get("subgraph_fingerprint")
        .and_then(Json::as_str)
        .expect("fresh fingerprint")
        .to_string();
    let (status, hit) = post(&state, "/extract", &body);
    assert_eq!(status, 200);
    assert_eq!(hit.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(hit.get("degraded").and_then(Json::as_bool), Some(false));

    // Storm the backend until the breaker opens (uncached pattern, so every
    // request reaches the endpoint and fails fatally).
    *state.fault.lock().unwrap() = Some(FaultPlan {
        seed: 7,
        fault_rate: 1.0,
        max_burst: 1,
        fatal_rate: 1.0,
        latency_rate: 0.0,
        latency_us: 0,
    });
    let storm = format!("{{\"task\":\"{task}\",\"pattern\":\"d2h1\",\"deadline_ms\":30000}}");
    for _ in 0..20 {
        let _ = post(&state, "/extract", &storm);
        if state.breaker.state() != kgtosa_rdf::BreakerState::Closed {
            break;
        }
    }
    assert_ne!(
        state.breaker.state(),
        kgtosa_rdf::BreakerState::Closed,
        "fault storm must open the breaker"
    );

    // The cached pattern still answers — explicitly degraded, bit-identical.
    let (status, degraded) = post(&state, "/extract", &body);
    assert_eq!(status, 200, "cache-only answer while the breaker is open: {degraded:?}");
    assert_eq!(degraded.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(degraded.get("degraded").and_then(Json::as_bool), Some(true));
    assert_eq!(
        degraded.get("subgraph_fingerprint").and_then(Json::as_str),
        Some(fingerprint.as_str()),
        "degraded answer must be bit-identical to the fresh one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
