//! End-to-end daemon tests over real TCP: extract/infer round trips,
//! admission shedding, deadline budgets, and panic isolation.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use kgtosa_models::{CheckpointConfig, NcDataset, TrainConfig};
use kgtosa_obs::Json;
use kgtosa_serve::client::{call, get, post_json, HttpReply};
use kgtosa_serve::{DrainReport, ServeConfig, ServeState, Server};

const SCALE: f64 = 0.02;
const SEED: u64 = 7;
const DIM: usize = 8;

fn base_config() -> ServeConfig {
    ServeConfig {
        dataset: "mag".into(),
        scale: SCALE,
        seed: SEED,
        dim: DIM,
        workers: 2,
        ..ServeConfig::default()
    }
}

struct Daemon {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<DrainReport>,
}

impl Daemon {
    fn spawn(cfg: ServeConfig) -> Self {
        let state = ServeState::from_dataset(cfg).expect("serve state");
        let server = Server::bind(Arc::clone(&state)).expect("bind");
        let addr = server.addr();
        let thread = std::thread::spawn(move || server.run().expect("serve loop"));
        Daemon { addr, thread }
    }

    fn shutdown(self) -> DrainReport {
        let r = post_json(self.addr, "/admin/shutdown", "", Duration::from_secs(5))
            .expect("shutdown request");
        assert_eq!(r.status, 202);
        self.thread.join().expect("server thread")
    }
}

fn ok_json(reply: &HttpReply) -> Json {
    assert_eq!(reply.status, 200, "expected 200, got {}: {}", reply.status, reply.body);
    Json::parse(&reply.body).expect("response body is JSON")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kgtosa-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Trains a small RGCN checkpoint on the exact dataset + shape the
/// daemon will load, returning (dir, task name, reported metric hash).
fn train_checkpoint(tag: &str) -> (PathBuf, String, u64) {
    let dir = temp_dir(tag);
    let dataset = kgtosa_datagen::mag(SCALE, SEED);
    let task = &dataset.nc[0];
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
        epochs: 2,
        dim: DIM,
        lr: 0.02,
        seed: SEED,
        checkpoint: Some(CheckpointConfig::new(&dir)),
        ..Default::default()
    };
    let report = kgtosa_models::train_rgcn_nc(&data, &cfg);
    (dir, task.name.clone(), report.param_hash)
}

#[test]
fn extract_and_infer_round_trip() {
    let (ckpt_dir, task_name, param_hash) = train_checkpoint("roundtrip");
    let cache_dir = temp_dir("roundtrip-cache");
    let daemon = Daemon::spawn(ServeConfig {
        cache_dir: Some(cache_dir.clone()),
        checkpoint_dir: Some(ckpt_dir.clone()),
        ..base_config()
    });

    // Index + obs builtin routes answer.
    assert_eq!(get(daemon.addr, "/", Duration::from_secs(5)).unwrap().status, 200);
    assert_eq!(get(daemon.addr, "/metrics", Duration::from_secs(5)).unwrap().status, 200);
    assert_eq!(get(daemon.addr, "/healthz", Duration::from_secs(5)).unwrap().status, 200);
    let stats = ok_json(&get(daemon.addr, "/serve", Duration::from_secs(5)).unwrap());
    assert_eq!(stats.get("dataset").and_then(Json::as_str), Some("mag"));
    assert_eq!(stats.get("checkpoints").and_then(Json::as_f64), Some(1.0));

    // First extraction misses the cache, an identical one hits it. The
    // hit is answered from the stored payload, the miss from the fresh
    // extraction: both describe the same subgraph, field for field.
    for pattern in ["d1h1", "d2h1", "d1h2", "d2h2"] {
        let body = format!("{{\"task\":\"{task_name}\",\"pattern\":\"{pattern}\",\"deadline_ms\":30000}}");
        let first = ok_json(&post_json(daemon.addr, "/extract", &body, Duration::from_secs(30)).unwrap());
        assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false), "{pattern}");
        assert_eq!(first.get("degraded").and_then(Json::as_bool), Some(false), "{pattern}");
        let second = ok_json(&post_json(daemon.addr, "/extract", &body, Duration::from_secs(30)).unwrap());
        assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true), "{pattern}");
        for field in ["method", "triples", "nodes", "targets", "subgraph_fingerprint"] {
            assert!(first.get(field).is_some(), "{pattern}: {field} missing");
            assert_eq!(second.get(field), first.get(field), "{pattern}: {field}");
        }
    }

    // Inference against the trained checkpoint serves the trainer's
    // exact parameters (param_hash matches the training report).
    let infer = format!("{{\"checkpoint\":\"RGCN\",\"task\":\"{task_name}\",\"deadline_ms\":30000}}");
    let reply = ok_json(&post_json(daemon.addr, "/infer", &infer, Duration::from_secs(30)).unwrap());
    assert_eq!(
        reply.get("param_hash").and_then(Json::as_str),
        Some(format!("{param_hash:016x}").as_str())
    );
    match reply.get("predictions") {
        Some(Json::Arr(preds)) => assert!(!preds.is_empty()),
        other => panic!("predictions missing: {other:?}"),
    }

    // "nodes" entries are node ids: a fraction, a negative or an id past
    // the graph is a 400 — never an answer for the truncated id.
    let infer_nodes = |nodes: &str| {
        let body = format!("{{\"checkpoint\":\"RGCN\",\"task\":\"{task_name}\",\"nodes\":[{nodes}]}}");
        post_json(daemon.addr, "/infer", &body, Duration::from_secs(30)).unwrap()
    };
    for bad in ["3.7", "-1", "1e30", "2, 3.7"] {
        assert_eq!(infer_nodes(bad).status, 400, "nodes [{bad}]");
    }
    let three = ok_json(&infer_nodes("3"));
    match three.get("predictions") {
        Some(Json::Arr(preds)) => assert_eq!(preds.len(), 1),
        other => panic!("predictions missing: {other:?}"),
    }
    assert_eq!(three.get("param_hash"), reply.get("param_hash"));

    // A node list is answered from its receptive field; the default request
    // (the whole test split) is the reference it must agree with, position
    // by position — out of order and with a repeat.
    let test = &kgtosa_datagen::mag(SCALE, SEED).nc[0].test;
    let picks = [test.len() - 1, 0, 2, 0];
    let ids: Vec<String> = picks.iter().map(|&i| test[i].0.to_string()).collect();
    let (Some(Json::Arr(all)), Some(Json::Arr(some))) = (
        reply.get("predictions"),
        ok_json(&infer_nodes(&ids.join(","))).get("predictions").cloned(),
    ) else {
        panic!("predictions missing");
    };
    let expect: Vec<Json> = picks.iter().map(|&i| all[i].clone()).collect();
    assert_eq!(some, expect);
    assert_eq!(ok_json(&infer_nodes("")).get("predictions"), Some(&Json::Arr(Vec::new())));

    // Unknowns are 4xx, not daemon damage.
    let bad_task = post_json(daemon.addr, "/extract", "{\"task\":\"nope\"}", Duration::from_secs(5)).unwrap();
    assert_eq!(bad_task.status, 404);
    let bad_ckpt = post_json(daemon.addr, "/infer", "{\"checkpoint\":\"nope\"}", Duration::from_secs(5)).unwrap();
    assert_eq!(bad_ckpt.status, 404);
    let no_route = get(daemon.addr, "/nope", Duration::from_secs(5)).unwrap();
    assert_eq!(no_route.status, 404);
    let bad_method = call(daemon.addr, "DELETE", "/", &[], b"", Duration::from_secs(5)).unwrap();
    assert_eq!(bad_method.status, 405);

    let report = daemon.shutdown();
    assert!(report.served >= 8);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn handler_panic_is_isolated() {
    let daemon = Daemon::spawn(base_config());
    let reply = post_json(daemon.addr, "/admin/panic", "", Duration::from_secs(5)).unwrap();
    assert_eq!(reply.status, 500);
    assert!(reply.body.contains("panic"), "500 body names the panic: {}", reply.body);
    // The daemon survives and keeps answering.
    let stats = ok_json(&get(daemon.addr, "/serve", Duration::from_secs(5)).unwrap());
    assert!(stats.get("served").and_then(Json::as_f64).unwrap() >= 1.0);
    let report = daemon.shutdown();
    assert!(report.handler_panics >= 1, "panic counted in the drain report");
}

#[test]
fn inflight_byte_budget_sheds_with_429() {
    let daemon = Daemon::spawn(ServeConfig { max_inflight_bytes: 1, ..base_config() });
    let reply = post_json(daemon.addr, "/extract", "{\"task\":\"x\"}", Duration::from_secs(5)).unwrap();
    assert_eq!(reply.status, 429, "body bytes over budget must shed: {}", reply.body);
    // Body-less requests fit the zero budget and still work.
    assert_eq!(get(daemon.addr, "/serve", Duration::from_secs(5)).unwrap().status, 200);
    let report = daemon.shutdown();
    assert!(report.sheds >= 1);
}

#[test]
fn deeply_nested_body_is_400_and_the_daemon_keeps_serving() {
    let daemon = Daemon::spawn(base_config());
    // Parsed on a 2 MiB worker stack: without a nesting cap this overflows
    // it and aborts the whole process.
    let hostile = "[".repeat(100_000);
    let reply = post_json(daemon.addr, "/extract", &hostile, Duration::from_secs(30)).unwrap();
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert!(reply.body.contains("nesting"), "{}", reply.body);
    let task = &kgtosa_datagen::mag(SCALE, SEED).nc[0].name;
    let body = format!("{{\"task\":\"{task}\",\"pattern\":\"d1h1\",\"deadline_ms\":30000}}");
    ok_json(&post_json(daemon.addr, "/extract", &body, Duration::from_secs(30)).unwrap());
    daemon.shutdown();
}

#[test]
fn oversized_body_is_413() {
    let daemon = Daemon::spawn(ServeConfig { max_body_bytes: 64, ..base_config() });
    let big = format!("{{\"pad\":\"{}\"}}", "x".repeat(200));
    let reply = post_json(daemon.addr, "/extract", &big, Duration::from_secs(5)).unwrap();
    assert_eq!(reply.status, 413);
    daemon.shutdown();
}

#[test]
fn queued_time_counts_against_the_deadline() {
    let daemon = Daemon::spawn(base_config());
    // The admission timestamp is taken at accept; holding the connection
    // open before sending burns the whole 1ms budget, so the handler must
    // answer 504 without doing any work.
    let mut stream = TcpStream::connect(daemon.addr).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let body = "{\"task\":\"x\",\"deadline_ms\":1}";
    write!(
        stream,
        "POST /extract HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .unwrap();
    let mut raw = String::new();
    use std::io::Read;
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 504"), "expected 504, got: {raw}");
    let report = daemon.shutdown();
    assert!(report.deadline_expired >= 1);
}
