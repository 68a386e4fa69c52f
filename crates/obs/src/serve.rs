//! Embedded metrics HTTP server (std-only, no framework).
//!
//! `serve_metrics("127.0.0.1:9464")` binds a listener and answers on a
//! background thread:
//!
//! * `GET /metrics`  — the live registry in Prometheus text exposition
//!   format ([`crate::render_prometheus`]),
//! * `GET /spans`    — per-span aggregates as JSON,
//! * `GET /progress` — progress tasks with rate and ETA as JSON,
//! * `GET /prof`     — self-time attribution over the live registry,
//! * `GET /contexts` — every live telemetry context's scoped span tree,
//!   counters, gauges, and recorded SLO violations as JSON,
//! * `GET /healthz`  — readiness JSON: `200` while no live context has an
//!   SLO violation, `503` otherwise,
//! * `GET /`         — a plain-text index of the routes.
//!
//! The server exists for *introspection of long runs* (scrape cadence:
//! seconds), so one accept loop handling requests sequentially is the
//! right weight — there is no worker pool to interfere with the
//! deterministic kernels being measured.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

use crate::httpd::{builtin_route, read_request, write_response, HttpResponse, MAX_HEAD_BYTES};
use crate::registry;

static BOUND: OnceLock<SocketAddr> = OnceLock::new();

/// Where the metrics server is listening, if it was started.
pub fn serve_addr() -> Option<SocketAddr> {
    BOUND.get().copied()
}

/// Binds `addr` (e.g. `127.0.0.1:9464`; port `0` picks a free port) and
/// serves metrics on a detached background thread. Returns the bound
/// address. Idempotent: a second call returns the first server's address.
pub fn serve_metrics(addr: &str) -> std::io::Result<SocketAddr> {
    if let Some(existing) = serve_addr() {
        return Ok(existing);
    }
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let _ = BOUND.set(local);
    register_core_metrics();
    std::thread::Builder::new()
        .name("kgtosa-metrics".into())
        .spawn(move || {
            for stream in listener.incoming().flatten() {
                let _ = handle_connection(stream);
            }
        })?;
    Ok(local)
}

/// Starts the server from `KGTOSA_METRICS_ADDR` when set and non-empty.
/// Bind failures are reported on stderr, not fatal: a long job should not
/// die because its observer port is taken.
pub fn init_serve_from_env() -> Option<SocketAddr> {
    match std::env::var("KGTOSA_METRICS_ADDR") {
        Ok(addr) if !addr.is_empty() => match serve_metrics(&addr) {
            Ok(local) => {
                crate::info!("metrics server listening on http://{local}/metrics");
                Some(local)
            }
            Err(e) => {
                eprintln!("kgtosa-obs: cannot bind KGTOSA_METRICS_ADDR={addr}: {e}");
                None
            }
        },
        _ => None,
    }
}

/// Pre-registers the pipeline's cross-crate instruments so `/metrics`
/// exports them from the first scrape, not only after their first
/// update: the cache counters and byte gauge (kgtosa-cache), the
/// parallel-runtime queue depth (kgtosa-par), and the derived cache hit
/// ratio. Registration is idempotent, so the owning crates' own lookups
/// return these same instruments.
pub fn register_core_metrics() {
    for name in ["cache.hits", "cache.misses", "cache.stale", "cache.corrupt", "cache.evictions"] {
        let _ = registry::counter(name);
    }
    let _ = registry::gauge("cache.bytes");
    let _ = registry::gauge("par.queue_depth");
    let _ = registry::gauge_f64("cache.hit_ratio");
    let _ = registry::counter("slo.violations");
}

fn handle_connection(mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let req = match read_request(&mut stream, MAX_HEAD_BYTES, 8192) {
        Ok(req) => req,
        Err(_) => return Ok(()),
    };
    let response = if req.method != "GET" {
        HttpResponse::text(405, "method not allowed\n")
    } else if let Some(builtin) = builtin_route(&req) {
        builtin
    } else if req.path == "/" {
        HttpResponse::text(
            200,
            "kgtosa metrics server\nroutes: /metrics /spans /progress /prof /contexts /healthz\n",
        )
    } else {
        HttpResponse::text(404, "not found\n")
    };
    write_response(&mut stream, &response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::io::{Read, Write};

    fn http_get(addr: SocketAddr, path: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        let status: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
        let content_type = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Type: "))
            .unwrap_or("")
            .to_string();
        (status, content_type, body.to_string())
    }

    #[test]
    fn serves_metrics_spans_progress() {
        crate::counter("test.serve.hits").add(2);
        let p = crate::progress_task("test.serve.task", Some(5));
        p.advance(1);
        crate::span("test_serve_span").finish();
        let addr = serve_metrics("127.0.0.1:0").expect("bind loopback");
        // Idempotent: second start returns the same address.
        assert_eq!(serve_metrics("127.0.0.1:0").unwrap(), addr);
        assert_eq!(serve_addr(), Some(addr));

        let (status, ctype, body) = http_get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(ctype.contains("version=0.0.4"), "{ctype}");
        assert!(body.contains("kgtosa_test_serve_hits_total 2"), "{body}");
        assert!(body.contains("# TYPE kgtosa_test_serve_hits_total counter"));

        let (status, ctype, body) = http_get(addr, "/spans");
        assert_eq!(status, 200);
        assert!(ctype.contains("application/json"));
        let json = Json::parse(&body).expect("spans is valid JSON");
        assert!(json.get("spans").unwrap().get("test_serve_span").is_some());

        let (status, _, body) = http_get(addr, "/progress");
        assert_eq!(status, 200);
        let json = Json::parse(&body).expect("progress is valid JSON");
        let tasks = match json.get("tasks") {
            Some(Json::Arr(items)) => items,
            other => panic!("expected tasks array, got {other:?}"),
        };
        assert!(tasks
            .iter()
            .any(|t| t.get("name").and_then(Json::as_str) == Some("test.serve.task")));

        let (status, _, _) = http_get(addr, "/nope");
        assert_eq!(status, 404);
        let (status, _, body) = http_get(addr, "/");
        assert_eq!(status, 200);
        assert!(body.contains("/metrics"));
        assert!(body.contains("/prof"));

        // Core cross-crate instruments are pre-registered on bind, so the
        // very first scrape already exports them.
        let (_, _, body) = http_get(addr, "/metrics");
        for family in [
            "kgtosa_cache_hits_total",
            "kgtosa_cache_misses_total",
            "kgtosa_cache_bytes",
            "kgtosa_par_queue_depth",
            "kgtosa_cache_hit_ratio",
        ] {
            assert!(body.contains(family), "missing {family} in first scrape:\n{body}");
        }

        let (status, ctype, body) = http_get(addr, "/prof");
        assert_eq!(status, 200);
        assert!(ctype.contains("application/json"));
        let json = Json::parse(&body).expect("prof is valid JSON");
        let spans = match json.get("spans") {
            Some(Json::Arr(items)) => items,
            other => panic!("expected spans array, got {other:?}"),
        };
        assert!(spans
            .iter()
            .any(|s| s.get("name").and_then(Json::as_str) == Some("test_serve_span")));
        assert!(spans.iter().all(|s| s.get("self_s").is_some()));
    }

    #[test]
    fn serves_contexts_and_healthz() {
        let addr = serve_metrics("127.0.0.1:0").expect("bind loopback");
        let ctx = crate::TelemetryContext::new("serve.test.request");
        {
            let _g = ctx.enter();
            crate::counter("serve.test.lookups").add(4);
            crate::span("serve_test.work").finish();
        }
        ctx.finish();

        let (status, ctype, body) = http_get(addr, "/contexts");
        assert_eq!(status, 200);
        assert!(ctype.contains("application/json"));
        let json = Json::parse(&body).expect("contexts is valid JSON");
        let items = match json.get("contexts") {
            Some(Json::Arr(items)) => items,
            other => panic!("expected contexts array, got {other:?}"),
        };
        let mine = items
            .iter()
            .find(|c| c.get("name").and_then(Json::as_str) == Some("serve.test.request"))
            .expect("live context listed");
        assert_eq!(
            mine.get("counters")
                .and_then(|c| c.get("serve.test.lookups"))
                .and_then(Json::as_f64),
            Some(4.0)
        );
        assert!(mine
            .get("spans")
            .and_then(|s| s.get("serve_test.work"))
            .is_some());

        // Healthy with no SLO rules installed.
        let (status, ctype, body) = http_get(addr, "/healthz");
        assert_eq!(status, 200);
        assert!(ctype.contains("application/json"));
        let json = Json::parse(&body).expect("healthz is valid JSON");
        assert_eq!(json.get("ready").and_then(Json::as_bool), Some(true));
        assert!(json.get("active_contexts").and_then(Json::as_f64).unwrap() >= 1.0);

        // Arm a rule only this test's context can break (every other
        // context keeps the probe counter at 0 and so satisfies `<=0`),
        // sweep, and readiness must flip to 503 while the context lives.
        {
            let _g = ctx.enter();
            crate::counter("serve.test.healthz.probe").inc();
        }
        let rules = crate::parse_slo_spec("counter:serve.test.healthz.probe<=0").unwrap();
        crate::install_slo_rules(rules);
        assert!(crate::evaluate_slo_now() >= 1, "probe rule must fire");
        let (status, _, body) = http_get(addr, "/healthz");
        assert_eq!(status, 503, "violating context flips readiness: {body}");
        let json = Json::parse(&body).unwrap();
        assert_eq!(json.get("ready").and_then(Json::as_bool), Some(false));
        assert!(json.get("slo_violations").and_then(Json::as_f64).unwrap() >= 1.0);
        assert!(!ctx.violations().is_empty());

        // Disarm so sibling tests see a rule-free process again.
        crate::install_slo_rules(Vec::new());
        let (status, _, _) = http_get(addr, "/healthz");
        assert_eq!(status, 200);
    }
}
