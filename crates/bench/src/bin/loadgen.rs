//! loadgen — replay mixed `/extract` + `/infer` traffic against an
//! in-process `kgtosa-serve` daemon through three regimes, and measure
//! what the robustness layers actually buy:
//!
//! 1. **steady** — a sustainable request mix; expects ~zero sheds and
//!    full goodput.
//! 2. **overload** — far more concurrent clients than the admission
//!    queue admits; the daemon must shed (`429`) instead of letting
//!    latency collapse, while goodput stays positive.
//! 3. **fault-storm** — a 100%-fatal `FaultPlan` is armed at runtime;
//!    uncached extractions give up and trip the circuit breaker (fast
//!    `503`s), cached extractions keep being answered bit-identically
//!    with an explicit `"degraded": true` marker, and once the storm
//!    lifts the breaker probes its way closed again.
//!
//! Prints a per-regime latency/goodput table and writes
//! `results/serve.json` (rows + breaker trajectory + drain report).
//! The run fails hard (exit 1) if an invariant breaks: sheds in
//! overload, breaker trip *and* re-close, degraded answers matching the
//! fresh fingerprint, zero handler panics.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use kgtosa_bench::{save_json, Env};
use kgtosa_models::{CheckpointConfig, NcDataset, TrainConfig};
use kgtosa_obs::Json;
use kgtosa_rdf::{BreakerPolicy, RetryPolicy};
use kgtosa_serve::client::{get, post_json};
use kgtosa_serve::{ServeConfig, ServeState, Server};

#[global_allocator]
static ALLOC: kgtosa_memtrack::TrackingAllocator = kgtosa_memtrack::TrackingAllocator;

/// Requests sent in each regime.
const N_STEADY: usize = 600;
const N_OVERLOAD: usize = 400;
const N_STORM: usize = 200;

/// One request's fate, as observed by the client.
#[derive(Debug, Clone)]
struct Outcome {
    status: u16,
    ms: f64,
    degraded: bool,
    fingerprint: Option<String>,
}

#[derive(Debug, Clone)]
struct RegimeRow {
    regime: String,
    requests: usize,
    ok: usize,
    shed_429: usize,
    breaker_503: usize,
    deadline_504: usize,
    other_errors: usize,
    degraded: usize,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    goodput_rps: f64,
    elapsed_s: f64,
}

kgtosa_obs::json_row!(RegimeRow {
    regime,
    requests,
    ok,
    shed_429,
    breaker_503,
    deadline_504,
    other_errors,
    degraded,
    p50_ms,
    p95_ms,
    p99_ms,
    goodput_rps,
    elapsed_s,
});

#[derive(Debug)]
struct ServeBenchReport {
    scale: f64,
    seed: u64,
    regimes: Vec<RegimeRow>,
    breaker_trips: u64,
    breaker_closes: u64,
    breaker_trajectory: Vec<String>,
    drained_served: u64,
    drained_sheds: u64,
    handler_panics: u64,
    deadline_expired: u64,
}

kgtosa_obs::json_row!(ServeBenchReport {
    scale,
    seed,
    regimes,
    breaker_trips,
    breaker_closes,
    breaker_trajectory,
    drained_served,
    drained_sheds,
    handler_panics,
    deadline_expired,
});

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((q * sorted_ms.len() as f64).ceil() as usize).clamp(1, sorted_ms.len()) - 1;
    sorted_ms[idx]
}

/// Fans `total` requests out over `clients` threads; `make` renders the
/// (path, body) of the `i`-th global request.
fn run_clients(
    addr: std::net::SocketAddr,
    clients: usize,
    total: usize,
    make: impl Fn(usize) -> (String, String) + Sync,
) -> Vec<Outcome> {
    let next = AtomicUsize::new(0);
    let timeout = Duration::from_secs(60);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            return out;
                        }
                        let (path, body) = make(i);
                        let t0 = Instant::now();
                        match post_json(addr, &path, &body, timeout) {
                            Ok(reply) => {
                                let parsed = Json::parse(&reply.body).ok();
                                let degraded = parsed
                                    .as_ref()
                                    .and_then(|j| j.get("degraded"))
                                    .and_then(Json::as_bool)
                                    .unwrap_or(false);
                                let fingerprint = parsed
                                    .as_ref()
                                    .and_then(|j| j.get("subgraph_fingerprint"))
                                    .and_then(Json::as_str)
                                    .map(str::to_string);
                                out.push(Outcome {
                                    status: reply.status,
                                    ms: t0.elapsed().as_secs_f64() * 1e3,
                                    degraded,
                                    fingerprint,
                                });
                            }
                            Err(_) => out.push(Outcome {
                                status: 0,
                                ms: t0.elapsed().as_secs_f64() * 1e3,
                                degraded: false,
                                fingerprint: None,
                            }),
                        }
                    }
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    })
}

fn summarize(regime: &str, outcomes: &[Outcome], elapsed_s: f64) -> RegimeRow {
    let mut ok_ms: Vec<f64> = outcomes.iter().filter(|o| o.status == 200).map(|o| o.ms).collect();
    ok_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let count = |s: u16| outcomes.iter().filter(|o| o.status == s).count();
    let ok = ok_ms.len();
    RegimeRow {
        regime: regime.to_string(),
        requests: outcomes.len(),
        ok,
        shed_429: count(429),
        breaker_503: count(503),
        deadline_504: count(504),
        other_errors: outcomes.len() - ok - count(429) - count(503) - count(504),
        degraded: outcomes.iter().filter(|o| o.degraded).count(),
        p50_ms: percentile(&ok_ms, 0.50),
        p95_ms: percentile(&ok_ms, 0.95),
        p99_ms: percentile(&ok_ms, 0.99),
        goodput_rps: if elapsed_s > 0.0 { ok as f64 / elapsed_s } else { 0.0 },
        elapsed_s,
    }
}

fn main() {
    let env = Env::from_env();

    println!(
        "loadgen — kgtosa-serve under steady / overload / fault-storm regimes (scale {})",
        env.scale
    );

    // A served checkpoint: train a small RGCN on the exact dataset +
    // shape the daemon loads, so /infer answers are the trainer's bits.
    let workdir = std::env::temp_dir().join(format!("kgtosa-loadgen-{}", std::process::id()));
    let ckpt_dir = workdir.join("ckpt");
    let cache_dir = workdir.join("cache");
    let _ = std::fs::remove_dir_all(&workdir);
    std::fs::create_dir_all(&ckpt_dir).expect("create checkpoint dir");
    let dataset = kgtosa_datagen::mag(env.scale, env.seed);
    let task = &dataset.nc[0];
    let task_name = task.name.clone();
    {
        let (graph, _) = kgtosa_core::transform(&dataset.gen.kg);
        let data = NcDataset {
            kg: &dataset.gen.kg,
            graph: &graph,
            labels: &task.labels,
            num_labels: task.num_labels,
            train: &task.train,
            valid: &task.valid,
            test: &task.test,
        };
        let cfg = TrainConfig {
            epochs: 3,
            dim: env.dim,
            lr: 0.02,
            seed: env.seed,
            checkpoint: Some(CheckpointConfig::new(&ckpt_dir)),
            ..Default::default()
        };
        let report = kgtosa_models::train_rgcn_nc(&data, &cfg);
        println!("trained RGCN checkpoint: metric {:.4}", report.metric);
    }
    let infer_nodes: Vec<String> =
        task.test.iter().take(8).map(|v| v.0.to_string()).collect();
    let infer_nodes = infer_nodes.join(",");
    drop(dataset);

    // A deliberately small daemon: 2 workers and a short queue so the
    // overload regime actually exercises shedding, quick retry giveups
    // and a tight breaker so the storm regime trips and recovers fast.
    let serve_cfg = ServeConfig {
        dataset: "mag".into(),
        scale: env.scale,
        seed: env.seed,
        dim: env.dim,
        lr: 0.02,
        workers: 2,
        queue_cap: 8,
        default_deadline: Duration::from_secs(30),
        max_deadline: Duration::from_secs(60),
        breaker: BreakerPolicy { trip_threshold: 5, cooldown_requests: 8, seed: env.seed },
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff_us: 100,
            max_backoff_us: 1_000,
            jitter_seed: env.seed,
            ..RetryPolicy::default()
        },
        cache_dir: Some(cache_dir),
        checkpoint_dir: Some(ckpt_dir),
        ..ServeConfig::default()
    };
    let state = ServeState::from_dataset(serve_cfg).expect("serve state");
    let server = Server::bind(state).expect("bind daemon");
    let addr = server.addr();
    let server_thread = std::thread::spawn(move || server.run().expect("serve loop"));
    println!("daemon on http://{addr} — steady {N_STEADY}, overload {N_OVERLOAD}, storm {N_STORM} requests");

    let panics0 = kgtosa_obs::counter("serve.handler_panics").get();
    let extract_body = |pattern: &str| {
        format!("{{\"task\":\"{task_name}\",\"pattern\":\"{pattern}\",\"deadline_ms\":30000}}")
    };
    let infer_body =
        format!("{{\"checkpoint\":\"RGCN\",\"task\":\"{task_name}\",\"nodes\":[{infer_nodes}],\"deadline_ms\":30000}}");

    let mut rows = Vec::new();

    // Regime 1 — steady: 4 clients, 2:1 extract (d1h1/d2h1, warming the
    // artifact cache) to infer.
    let t0 = Instant::now();
    let steady = run_clients(addr, 4, N_STEADY, |i| match i % 3 {
        0 => ("/infer".into(), infer_body.clone()),
        1 => ("/extract".into(), extract_body("d1h1")),
        _ => ("/extract".into(), extract_body("d2h1")),
    });
    rows.push(summarize("steady", &steady, t0.elapsed().as_secs_f64()));
    // Reference fingerprint for the storm's degraded answers. The storm
    // serves *d1h1* from the cache, so the reference must be a d1h1
    // answer specifically — steady outcomes arrive in client-completion
    // order and mix d1h1 with d2h1, so picking "any fingerprint" races.
    let fresh = post_json(addr, "/extract", &extract_body("d1h1"), Duration::from_secs(30))
        .expect("reference d1h1 extract");
    assert_eq!(fresh.status, 200, "reference d1h1 extract failed: {}", fresh.body);
    let fresh_fingerprint = Json::parse(&fresh.body)
        .ok()
        .and_then(|j| j.get("subgraph_fingerprint").and_then(Json::as_str).map(str::to_string))
        .expect("reference d1h1 answer carries a fingerprint");

    // Regime 2 — overload: 48 clients against a queue of 8 drained by 2
    // workers; /infer is uncacheable full-graph work, so the queue backs
    // up and admission must shed.
    let t0 = Instant::now();
    let overload = run_clients(addr, 48, N_OVERLOAD, |_| ("/infer".into(), infer_body.clone()));
    rows.push(summarize("overload", &overload, t0.elapsed().as_secs_f64()));

    // Regime 3 — fault storm: 100% fatal faults; d2h2 misses the cache
    // and trips the breaker, d1h1 keeps being served from the cache as an
    // explicitly degraded answer.
    let storm_spec = format!("{{\"spec\":\"seed={},rate=1.0,fatal-rate=1.0\"}}", env.seed);
    let r = post_json(addr, "/admin/fault", &storm_spec, Duration::from_secs(5)).expect("arm fault");
    assert_eq!(r.status, 200, "arming the fault plan failed: {}", r.body);
    let t0 = Instant::now();
    let storm = run_clients(addr, 8, N_STORM, |i| {
        if i % 2 == 0 {
            ("/extract".into(), extract_body("d1h1"))
        } else {
            ("/extract".into(), extract_body("d2h2"))
        }
    });
    rows.push(summarize("fault-storm", &storm, t0.elapsed().as_secs_f64()));

    // Recovery: lift the storm and keep knocking until a half-open probe
    // closes the breaker again.
    let r = post_json(addr, "/admin/fault", "{\"off\":true}", Duration::from_secs(5)).expect("clear fault");
    assert_eq!(r.status, 200);
    let mut recovered = false;
    for _ in 0..500 {
        let reply = post_json(addr, "/extract", &extract_body("d2h2"), Duration::from_secs(60))
            .expect("recovery request");
        if reply.status == 200 {
            recovered = true;
            break;
        }
    }
    assert!(recovered, "breaker never re-closed after the storm lifted");

    // Final daemon-side stats, then drain.
    let stats = get(addr, "/serve", Duration::from_secs(5)).expect("GET /serve");
    let stats = Json::parse(&stats.body).expect("stats JSON");
    let breaker = stats.get("breaker").expect("breaker stats");
    let trips = breaker.get("trips").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let closes = breaker.get("closes").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let trajectory: Vec<String> = match breaker.get("trajectory") {
        Some(Json::Arr(items)) => items.iter().filter_map(|j| j.as_str().map(str::to_string)).collect(),
        _ => Vec::new(),
    };
    let r = post_json(addr, "/admin/shutdown", "{}", Duration::from_secs(5)).expect("shutdown");
    assert_eq!(r.status, 202);
    let drain = server_thread.join().expect("server thread");
    let handler_panics = kgtosa_obs::counter("serve.handler_panics").get() - panics0;

    println!(
        "\n{:<12} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>9} {:>9} {:>9} {:>9}",
        "regime", "reqs", "ok", "429", "503", "504", "degr", "p50 ms", "p95 ms", "p99 ms", "rps"
    );
    for r in &rows {
        println!(
            "{:<12} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            r.regime, r.requests, r.ok, r.shed_429, r.breaker_503, r.deadline_504, r.degraded,
            r.p50_ms, r.p95_ms, r.p99_ms, r.goodput_rps
        );
    }
    println!(
        "\nbreaker: {trips} trip(s), {closes} close(s); trajectory: {}",
        trajectory.join(" ")
    );
    println!(
        "drain: served={} sheds={} handler_panics={} deadline_expired={}",
        drain.served, drain.sheds, drain.handler_panics, drain.deadline_expired
    );

    // Invariants — these are the point of the daemon; fail loudly.
    assert!(rows[1].shed_429 > 0, "overload regime must shed");
    assert!(rows[1].ok > 0, "overload regime must keep positive goodput");
    assert!(trips > 0, "fault storm must trip the breaker");
    assert!(closes > 0, "breaker must re-close after recovery");
    assert!(rows[2].breaker_503 > 0, "open breaker must fail misses fast");
    assert!(rows[2].degraded > 0, "cached answers must keep flowing, marked degraded");
    assert_eq!(handler_panics, 0, "no handler may panic under load");
    for o in storm.iter().filter(|o| o.degraded) {
        assert_eq!(
            o.fingerprint.as_deref(),
            Some(fresh_fingerprint.as_str()),
            "degraded cache-served subgraph must be bit-identical to the fresh one"
        );
    }

    save_json(
        "serve",
        ServeBenchReport {
            scale: env.scale,
            seed: env.seed,
            regimes: rows,
            breaker_trips: trips,
            breaker_closes: closes,
            breaker_trajectory: trajectory,
            drained_served: drain.served,
            drained_sheds: drain.sheds,
            handler_panics,
            deadline_expired: drain.deadline_expired,
        },
    );

    let _ = std::fs::remove_dir_all(&workdir);
    kgtosa_obs::shutdown();
}
