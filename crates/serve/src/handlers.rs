//! Request routing and the `/extract`, `/infer`, and `/admin/*` handlers.
//!
//! Every handler runs inside [`handle_guarded`]: a per-request
//! [`kgtosa_obs::TelemetryContext`] (when telemetry is consumed) plus a
//! `catch_unwind` barrier — a panicking handler answers `500`, bumps
//! `serve.handler_panics`, and the daemon keeps serving.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::PoisonError;
use std::time::{Duration, Instant};

use kgtosa_cache::CacheOutcome;
use kgtosa_core::{
    extract_and_publish, extract_sparql, load_cached, sparql_cache_key, ExtractionResult,
    ExtractionTask, ExtractionView, GraphPattern,
};
use kgtosa_kg::Vid;
use kgtosa_obs::httpd::{builtin_route, HttpRequest, HttpResponse};
use kgtosa_obs::Json;
use kgtosa_rdf::{BreakerState, FaultPlan, FetchConfig};

use crate::state::{KgEpoch, ModelError, ServeState};

/// Parses the body as JSON when non-empty; an empty body is `{}`.
pub(crate) fn body_json(req: &HttpRequest) -> Result<Json, String> {
    if req.body.is_empty() {
        return Ok(Json::Obj(Vec::new()));
    }
    let text = std::str::from_utf8(&req.body).map_err(|_| "body is not UTF-8".to_string())?;
    Json::parse(text)
}

fn hex_u64(s: &str) -> Option<u64> {
    u64::from_str_radix(s.trim_start_matches("0x"), 16).ok()
}

/// The per-request deadline: JSON `deadline_ms`, else the
/// `X-Kgtosa-Deadline-Ms` header, else the configured default — clamped
/// to the configured maximum either way.
fn request_deadline(state: &ServeState, req: &HttpRequest, body: &Json) -> Duration {
    let requested = body
        .get("deadline_ms")
        .and_then(Json::as_f64)
        .map(|ms| ms.max(0.0) as u64)
        .or_else(|| req.header("x-kgtosa-deadline-ms").and_then(|v| v.parse().ok()));
    state.cfg.clamp_deadline(requested)
}

/// Top-level entry: telemetry context + panic isolation around [`route`].
pub fn handle_guarded(state: &ServeState, req: &HttpRequest, admitted: Instant) -> HttpResponse {
    let ctx = kgtosa_obs::telemetry_active().then(|| {
        kgtosa_obs::TelemetryContext::new(&format!(
            "serve.{}",
            req.path.trim_start_matches('/').replace('/', ".")
        ))
    });
    let out = {
        let _scope = ctx.as_ref().map(|c| c.enter());
        catch_unwind(AssertUnwindSafe(|| route(state, req, admitted)))
    };
    if let Some(ctx) = ctx {
        ctx.finish();
    }
    state.served.fetch_add(1, Ordering::Relaxed);
    match out {
        Ok(resp) => resp,
        Err(_) => {
            kgtosa_obs::counter("serve.handler_panics").inc();
            HttpResponse::error(500, "handler panicked; request isolated")
        }
    }
}

fn route(state: &ServeState, req: &HttpRequest, admitted: Instant) -> HttpResponse {
    if let Some(resp) = builtin_route(req) {
        return resp;
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/") => HttpResponse::text(
            200,
            "kgtosa serve\nroutes: POST /extract  POST /infer  GET /serve  \
             GET /metrics /spans /progress /prof /contexts /healthz  \
             POST /admin/update /admin/fault /admin/shutdown\n",
        ),
        ("GET", "/serve") => serve_stats(state),
        ("POST", "/extract") => with_deadline(state, req, admitted, extract_handler),
        ("POST", "/infer") => with_deadline(state, req, admitted, infer_handler),
        ("POST", "/admin/update") => crate::update::admin_update(state, req),
        ("POST", "/admin/fault") => admin_fault(state, req),
        ("POST", "/admin/shutdown") => {
            state.draining.store(true, Ordering::SeqCst);
            HttpResponse::json(202, "{\"draining\":true}")
        }
        ("POST", "/admin/panic") => panic!("deliberate panic requested via /admin/panic"),
        ("POST", _) | ("GET", _) => HttpResponse::error(404, format!("no route {}", req.path)),
        _ => HttpResponse::error(405, format!("method {} not allowed", req.method)),
    }
}

/// Parses the body, resolves the deadline budget, and rejects requests
/// whose budget was already consumed by queueing before any work runs.
fn with_deadline(
    state: &ServeState,
    req: &HttpRequest,
    admitted: Instant,
    handler: fn(&ServeState, &Json, Duration) -> HttpResponse,
) -> HttpResponse {
    let body = match body_json(req) {
        Ok(b) => b,
        Err(e) => return HttpResponse::error(400, format!("bad request body: {e}")),
    };
    let deadline = request_deadline(state, req, &body);
    let Some(remaining) = deadline.checked_sub(admitted.elapsed()) else {
        kgtosa_obs::counter("serve.deadline_expired").inc();
        return HttpResponse::error(504, "deadline exhausted while queued");
    };
    handler(state, &body, remaining)
}

/// `POST /extract` — resolve the task, run Algorithm 3 through the cache
/// + breaker + retry stack with the remaining budget as fetch deadline.
fn extract_handler(state: &ServeState, body: &Json, remaining: Duration) -> HttpResponse {
    let pattern_label = body
        .get("pattern")
        .and_then(Json::as_str)
        .unwrap_or("d1h1");
    let Some(pattern) = GraphPattern::VARIANTS
        .into_iter()
        .find(|p| p.label() == pattern_label)
    else {
        return HttpResponse::error(400, format!("unknown pattern {pattern_label:?}"));
    };
    // One epoch for the whole request: task resolution, extraction, and
    // the reported fingerprint all see the same generation even if a
    // delta lands concurrently.
    let epoch = state.epoch();
    let task = match resolve_task(state, &epoch, body) {
        Ok(t) => t,
        Err(resp) => return *resp,
    };

    // Breaker state *before* the attempt decides whether a cache-served
    // answer is a normal hit or an explicit degraded (stale-tolerant)
    // response while the backend is quarantined.
    let breaker_before = state.breaker.state();
    let fetch = FetchConfig {
        retry: Some(state.cfg.retry.capped_to_budget(remaining)),
        fault: state.fault.lock().unwrap_or_else(PoisonError::into_inner).clone(),
        page_cache: Some(epoch.page_cache.clone()),
        breaker: Some(state.breaker.clone()),
        ..FetchConfig::default()
    };

    let started = Instant::now();
    // One lookup per request. A hit is answered from the payload's
    // validated bytes; no subgraph graph is built for it.
    let outcome = match &state.cache {
        Some(cache) => {
            let key = sparql_cache_key(epoch.fingerprint, &task, &pattern);
            let lookup = cache.lookup(&key);
            match lookup
                .payload
                .as_deref()
                .and_then(|p| load_cached(p, epoch.kg.num_nodes()))
            {
                Some(view) => Ok(Extracted::from_view(&view)),
                None => extract_and_publish(&epoch.store, &task, &pattern, &fetch, cache, &key)
                    .map(|res| Extracted::from_result(&res, lookup.outcome == CacheOutcome::Hit)),
            }
        }
        None => extract_sparql(&epoch.store, &task, &pattern, &fetch)
            .map(|res| Extracted::from_result(&res, false)),
    };
    match outcome {
        Ok(out) => {
            let degraded = out.cached && breaker_before != BreakerState::Closed;
            let fields = vec![
                ("status".into(), Json::Str("ok".into())),
                ("method".into(), Json::Str(out.method)),
                ("pattern".into(), Json::Str(pattern.label())),
                ("task".into(), Json::Str(task.name.clone())),
                ("triples".into(), Json::Num(out.triples as f64)),
                ("nodes".into(), Json::Num(out.nodes as f64)),
                ("targets".into(), Json::Num(out.targets as f64)),
                ("completeness".into(), Json::Num(out.completeness)),
                ("cached".into(), Json::Bool(out.cached)),
                ("degraded".into(), Json::Bool(degraded)),
                (
                    "breaker".into(),
                    Json::Str(breaker_before.label().into()),
                ),
                (
                    "subgraph_fingerprint".into(),
                    Json::Str(format!("{:016x}", out.subgraph_fingerprint)),
                ),
                (
                    "kg_fingerprint".into(),
                    Json::Str(format!("{:016x}", epoch.fingerprint)),
                ),
                ("epoch".into(), Json::Num(epoch.version as f64)),
                (
                    "elapsed_ms".into(),
                    Json::Num(started.elapsed().as_secs_f64() * 1e3),
                ),
            ];
            HttpResponse::json(200, Json::Obj(fields).to_string())
        }
        Err(e) if e.is_breaker_open() => {
            let body = Json::Obj(vec![
                ("error".into(), Json::Str(e.to_string())),
                ("breaker".into(), Json::Str("open".into())),
                ("degraded".into(), Json::Bool(false)),
            ]);
            HttpResponse::json(503, body.to_string())
        }
        Err(e) if e.is_deadline() => {
            kgtosa_obs::counter("serve.deadline_expired").inc();
            HttpResponse::error(504, e.to_string())
        }
        Err(e) => HttpResponse::error(500, e.to_string()),
    }
}

/// What an `/extract` reply reports about the subgraph it served.
struct Extracted {
    method: String,
    triples: usize,
    nodes: usize,
    targets: usize,
    completeness: f64,
    cached: bool,
    subgraph_fingerprint: u64,
}

impl Extracted {
    fn from_view(view: &ExtractionView<'_>) -> Self {
        Extracted {
            method: view.method().to_string(),
            triples: view.snapshot().num_triples(),
            nodes: view.snapshot().num_nodes(),
            targets: view.num_targets(),
            completeness: 1.0,
            cached: true,
            subgraph_fingerprint: view.fingerprint(),
        }
    }

    fn from_result(res: &ExtractionResult, cache_hit: bool) -> Self {
        Extracted {
            method: res.report.method.clone(),
            triples: res.report.triples,
            nodes: res.subgraph.kg.num_nodes(),
            targets: res.targets.len(),
            completeness: res.report.completeness,
            cached: cache_hit || res.report.cached,
            subgraph_fingerprint: kgtosa_kg::fingerprint(&res.subgraph.kg),
        }
    }
}

/// Resolves the extraction target set: `"task"` names a datagen NC task;
/// `"target_class"` builds an ad-hoc task from every node of a class.
fn resolve_task(
    state: &ServeState,
    epoch: &KgEpoch,
    body: &Json,
) -> Result<ExtractionTask, Box<HttpResponse>> {
    if let Some(name) = body.get("task").and_then(Json::as_str) {
        let Some(task) = state.nc_tasks().iter().find(|t| t.name == name) else {
            let known: Vec<&str> = state.nc_tasks().iter().map(|t| t.name.as_str()).collect();
            return Err(Box::new(HttpResponse::error(
                404,
                format!("unknown task {name:?}; available: {known:?}"),
            )));
        };
        return Ok(ExtractionTask::node_classification(
            &task.name,
            &task.target_class,
            task.targets(),
        ));
    }
    if let Some(class) = body.get("target_class").and_then(Json::as_str) {
        let Some(cid) = epoch.kg.find_class(class) else {
            return Err(Box::new(HttpResponse::error(
                404,
                format!("class {class:?} not found in the loaded KG"),
            )));
        };
        let targets = epoch.kg.nodes_of_class(cid);
        return Ok(ExtractionTask::node_classification(class, class, targets));
    }
    Err(Box::new(HttpResponse::error(
        400,
        "body must name a \"task\" or a \"target_class\"",
    )))
}

/// `POST /infer` — resolve a checkpoint by fingerprint (hex) or method
/// label, lazily rebuild the frozen model, and predict for the requested
/// nodes (default: the task's test split).
fn infer_handler(state: &ServeState, body: &Json, remaining: Duration) -> HttpResponse {
    let Some(ck) = body.get("checkpoint").and_then(Json::as_str) else {
        return HttpResponse::error(400, "body must name a \"checkpoint\" (hex fingerprint or method)");
    };
    let info = hex_u64(ck)
        .and_then(|fp| state.registry().by_fingerprint(fp))
        .or_else(|| state.registry().by_method(ck));
    let Some(info) = info.cloned() else {
        let known: Vec<String> = state
            .registry()
            .entries()
            .iter()
            .map(|e| format!("{} ({:016x})", e.method, e.fingerprint))
            .collect();
        return HttpResponse::error(404, format!("unknown checkpoint {ck:?}; available: {known:?}"));
    };
    if info.method != "RGCN" {
        return HttpResponse::error(
            501,
            format!("method {:?} is not servable (only full-batch RGCN NC checkpoints are)", info.method),
        );
    }
    let task_name = body.get("task").and_then(Json::as_str);
    let task = match task_name {
        Some(name) => match state.nc_tasks().iter().find(|t| t.name == name) {
            Some(t) => t,
            None => return HttpResponse::error(404, format!("unknown task {name:?}")),
        },
        None => match state.nc_tasks().first() {
            Some(t) => t,
            None => return HttpResponse::error(400, "dataset has no NC tasks; pass \"task\""),
        },
    };
    let epoch = state.epoch();
    let nodes: Vec<Vid> = match body.get("nodes") {
        Some(Json::Arr(items)) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                match item.as_f64() {
                    Some(n)
                        if n >= 0.0 && n.fract() == 0.0 && (n as usize) < epoch.graph.num_nodes() =>
                    {
                        out.push(Vid(n as u32))
                    }
                    _ => {
                        return HttpResponse::error(
                            400,
                            format!("\"nodes\" entries must be node ids < {}", epoch.graph.num_nodes()),
                        )
                    }
                }
            }
            out
        }
        Some(_) => return HttpResponse::error(400, "\"nodes\" must be an array of node ids"),
        None => task.test.clone(),
    };

    let started = Instant::now();
    let model = match state.model_for(&epoch, &info, task.num_labels) {
        Ok(m) => m,
        Err(e @ ModelError::Misfit { .. }) => return HttpResponse::error(409, e.to_string()),
        Err(e) => return HttpResponse::error(500, e.to_string()),
    };
    // The forward pass is all-or-nothing; refuse it up front when the
    // remaining budget is already gone rather than burn a worker.
    if started.elapsed() >= remaining {
        kgtosa_obs::counter("serve.deadline_expired").inc();
        return HttpResponse::error(504, "deadline exhausted before inference");
    }
    let preds = model.predict_nodes(&epoch.graph, &nodes);
    let fields = vec![
        ("status".into(), Json::Str("ok".into())),
        ("method".into(), Json::Str(info.method.clone())),
        ("task".into(), Json::Str(task.name.clone())),
        (
            "checkpoint_fingerprint".into(),
            Json::Str(format!("{:016x}", info.fingerprint)),
        ),
        ("completed_epoch".into(), Json::Num(info.completed_epoch as f64)),
        (
            "param_hash".into(),
            Json::Str(format!("{:016x}", model.param_hash())),
        ),
        (
            "predictions".into(),
            Json::Arr(preds.iter().map(|&p| Json::Num(p as f64)).collect()),
        ),
        (
            "elapsed_ms".into(),
            Json::Num(started.elapsed().as_secs_f64() * 1e3),
        ),
    ];
    HttpResponse::json(200, Json::Obj(fields).to_string())
}

/// `POST /admin/fault` — swap the deterministic fault plan at runtime:
/// `{"spec": "rate=1.0,fatal-rate=1.0"}` arms it, `{"off": true}` clears.
fn admin_fault(state: &ServeState, req: &HttpRequest) -> HttpResponse {
    let body = match body_json(req) {
        Ok(b) => b,
        Err(e) => return HttpResponse::error(400, format!("bad request body: {e}")),
    };
    let next = if body.get("off").and_then(Json::as_bool) == Some(true) {
        None
    } else if let Some(spec) = body.get("spec").and_then(Json::as_str) {
        match FaultPlan::parse(spec) {
            Ok(plan) => Some(plan),
            Err(e) => return HttpResponse::error(400, format!("bad fault spec: {e}")),
        }
    } else {
        return HttpResponse::error(400, "body must carry \"spec\" or \"off\": true");
    };
    let armed = next.is_some();
    *state.fault.lock().unwrap_or_else(PoisonError::into_inner) = next;
    HttpResponse::json(
        200,
        Json::Obj(vec![("fault_armed".into(), Json::Bool(armed))]).to_string(),
    )
}

/// `GET /serve` — live robustness stats: queue/shed/panic counters,
/// breaker counters and its full transition trajectory.
fn serve_stats(state: &ServeState) -> HttpResponse {
    let b = &state.breaker;
    let epoch = state.epoch();
    let trajectory: Vec<Json> = b.trajectory().into_iter().map(Json::Str).collect();
    let fields = vec![
        ("dataset".into(), Json::Str(state.cfg.dataset.clone())),
        (
            "kg_fingerprint".into(),
            Json::Str(format!("{:016x}", epoch.fingerprint)),
        ),
        (
            "epoch".into(),
            Json::Obj(vec![
                ("version".into(), Json::Num(epoch.version as f64)),
                ("nodes".into(), Json::Num(epoch.stats.num_nodes as f64)),
                ("triples".into(), Json::Num(epoch.stats.num_triples as f64)),
                ("classes".into(), Json::Num(epoch.stats.num_classes as f64)),
                (
                    "relations".into(),
                    Json::Num(epoch.stats.num_relations as f64),
                ),
                ("avg_degree".into(), Json::Num(epoch.stats.avg_degree())),
            ]),
        ),
        (
            "draining".into(),
            Json::Bool(state.draining.load(Ordering::SeqCst)),
        ),
        ("served".into(), Json::Num(state.served.load(Ordering::Relaxed) as f64)),
        (
            "inflight_bytes".into(),
            Json::Num(state.inflight_bytes.load(Ordering::Relaxed) as f64),
        ),
        (
            "checkpoints".into(),
            Json::Num(state.registry().entries().len() as f64),
        ),
        (
            "breaker".into(),
            Json::Obj(vec![
                ("state".into(), Json::Str(b.state().label().into())),
                ("trips".into(), Json::Num(b.trips() as f64)),
                ("rejections".into(), Json::Num(b.rejections() as f64)),
                ("probes".into(), Json::Num(b.probes() as f64)),
                ("closes".into(), Json::Num(b.closes() as f64)),
                ("trajectory".into(), Json::Arr(trajectory)),
            ]),
        ),
    ];
    HttpResponse::json(200, Json::Obj(fields).to_string())
}
