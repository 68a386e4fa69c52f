//! `POST /admin/update` — apply a triple delta to the live daemon.
//!
//! The update path is the serving end of the `kgtosa-delta` stack:
//!
//! 1. parse the op list and pin it to the current epoch's canonical
//!    fingerprint (an optional `"base_fingerprint"` field lets callers
//!    enforce compare-and-swap semantics; a mismatch answers `409`);
//! 2. [`kgtosa_kg::apply_delta`] — all-or-nothing; any rejected op leaves
//!    the daemon serving the old epoch and answers `400`;
//! 3. build the next [`KgEpoch`] (fresh store and page cache,
//!    incrementally maintained multiset fingerprint and class-pair counts;
//!    its adjacency is left to the first `/infer` that needs it) and **swap
//!    it in before sweeping the cache**, so the staleness window — requests
//!    that pay a cache miss because their entry has not been migrated yet —
//!    is bounded by the sweep, not by the epoch build;
//! 4. build the [`StalenessOracle`] from the new epoch's class-pair counts
//!    and the delta (no walk of the KG), and sweep the artifact cache:
//!    entries the oracle proves untouched are migrated to the new
//!    fingerprint; stale entries are incrementally repaired against the new
//!    store ([`kgtosa_core::repair_entry`], which lifts the old triples in
//!    the payload's one validating walk) and republished, or invalidated
//!    when repair is disabled or inapplicable. Each republished file is
//!    written on this thread and synced and renamed by the sweep's flusher
//!    thread while the next entry is repaired; the sweep joins the flusher
//!    before the reply, so every migrated or repaired entry is on disk and
//!    visible by then.
//!
//! Everything is counted: `delta.applied`, `delta.ops`,
//! `delta.migrations`, `delta.invalidations`, `delta.repairs`,
//! `delta.rebuilds` — visible per-request through the telemetry context
//! and globally on `/metrics`.
//!
//! The graph `apply_delta` returns is moved into the next epoch, and the
//! handler's own hold on the old epoch ends when it returns: from then on
//! only requests that began before the swap keep the old graph alive (see
//! [`KgEpoch`]).

use std::sync::{Arc, PoisonError};
use std::time::Instant;

use kgtosa_core::{
    repair_entry, sweep_cache_after_delta, DeltaSweepOutcome, RepairConfig, StalenessOracle,
};
use kgtosa_kg::{apply_delta, DeltaApplication, DeltaOp, KgDelta};
use kgtosa_obs::httpd::{HttpRequest, HttpResponse};
use kgtosa_obs::Json;
use kgtosa_rdf::FetchConfig;

use crate::handlers::{body_json, hex_u64};
use crate::state::{KgEpoch, ServeState};

fn parse_op(item: &Json) -> Result<DeltaOp, String> {
    let op = item
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| "each op needs \"op\": \"add\" or \"remove\"".to_string())?;
    let field = |k: &str| {
        item.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("op {op:?} missing string field {k:?}"))
    };
    match op {
        "add" => Ok(DeltaOp::Add {
            s: field("s")?,
            s_class: field("s_class")?,
            p: field("p")?,
            o: field("o")?,
            o_class: field("o_class")?,
        }),
        "remove" => Ok(DeltaOp::Remove {
            s: field("s")?,
            p: field("p")?,
            o: field("o")?,
        }),
        other => Err(format!("unknown op {other:?} (expected add|remove)")),
    }
}

fn parse_ops(body: &Json) -> Result<Vec<DeltaOp>, String> {
    match body.get("ops") {
        Some(Json::Arr(items)) if !items.is_empty() => items.iter().map(parse_op).collect(),
        Some(Json::Arr(_)) => Err("\"ops\" must not be empty".into()),
        _ => Err("body must carry an \"ops\" array".into()),
    }
}

/// Handles `POST /admin/update`.
pub fn admin_update(state: &ServeState, req: &HttpRequest) -> HttpResponse {
    let body = match body_json(req) {
        Ok(b) => b,
        Err(e) => return HttpResponse::error(400, format!("bad request body: {e}")),
    };
    let ops = match parse_ops(&body) {
        Ok(ops) => ops,
        Err(e) => return HttpResponse::error(400, e),
    };
    let do_repair = body.get("repair").and_then(Json::as_bool).unwrap_or(true);

    let started = Instant::now();
    // One update at a time; readers keep cloning the epoch Arc meanwhile.
    // The lock guards no data, so one left poisoned by an update that
    // panicked (handlers run under `catch_unwind`) is as good as new.
    let _serialized = state.update_lock.lock().unwrap_or_else(PoisonError::into_inner);
    let old = state.epoch();

    if let Some(base) = body.get("base_fingerprint").and_then(Json::as_str) {
        match hex_u64(base) {
            Some(fp) if fp == old.fingerprint => {}
            Some(fp) => {
                let fields = Json::Obj(vec![
                    ("error".into(), Json::Str("base fingerprint mismatch".into())),
                    ("expected".into(), Json::Str(format!("{:016x}", old.fingerprint))),
                    ("got".into(), Json::Str(format!("{fp:016x}"))),
                ]);
                return HttpResponse::json(409, fields.to_string());
            }
            None => {
                return HttpResponse::error(400, "\"base_fingerprint\" must be a hex u64")
            }
        }
    }

    let delta = KgDelta {
        base_fingerprint: old.fingerprint,
        ops,
    };
    let num_ops = delta.ops.len();
    let app = match apply_delta(&old.kg, old.fingerprint, old.multiset, &delta) {
        Ok(app) => app,
        // The base fingerprint is ours by construction, so any rejection
        // here is a bad op (unknown term on remove, absent triple, ...).
        Err(e) => return HttpResponse::error(400, format!("delta rejected: {e}")),
    };
    let DeltaApplication {
        kg,
        multiset,
        added,
        removed,
        new_nodes,
    } = app;
    let fingerprint = kgtosa_kg::fingerprint(&kg);
    let mut class_pairs = old.class_pairs.clone();
    class_pairs.apply(&kg, &added, &removed);
    let epoch = Arc::new(KgEpoch::build(
        Arc::new(kg),
        fingerprint,
        multiset,
        class_pairs,
        old.version + 1,
    ));
    // Swap *before* sweeping: the daemon serves the new graph immediately;
    // the staleness window (cache misses on not-yet-migrated entries) is
    // bounded by the sweep below.
    state.swap_epoch(epoch.clone());
    let swapped_after = started.elapsed();
    kgtosa_obs::counter("delta.applied").inc();
    kgtosa_obs::counter("delta.ops").add(num_ops as u64);

    let sweep_started = Instant::now();
    let mut outcome = DeltaSweepOutcome::default();
    let mut rebuilds = 0u64;
    if let Some(cache) = &state.cache {
        let oracle = StalenessOracle::from_class_pairs(
            &epoch.kg,
            &epoch.class_pairs,
            &added,
            &removed,
            &new_nodes,
        );
        let repair_cfg = RepairConfig {
            max_candidate_ratio: state.cfg.repair_frontier_ratio,
            ..RepairConfig::default()
        };
        let fetch = FetchConfig {
            page_cache: Some(epoch.page_cache.clone()),
            ..FetchConfig::default()
        };
        let old_nodes = old.kg.num_nodes();
        let swept = sweep_cache_after_delta(
            cache,
            old.fingerprint,
            epoch.fingerprint,
            old_nodes,
            epoch.kg.num_nodes(),
            &oracle,
            |info, payload| {
                if !do_repair {
                    return None;
                }
                let (bytes, report) = repair_entry(
                    &epoch.store,
                    info,
                    payload,
                    old_nodes,
                    &added,
                    &removed,
                    &fetch,
                    &repair_cfg,
                )?;
                rebuilds += u64::from(report.fallback.is_some());
                Some(bytes)
            },
        );
        match swept {
            Ok(o) => outcome = o,
            Err(e) => {
                // The epoch already swapped; entries left behind under the
                // old fingerprint are unreachable (wrong key), so this
                // degrades to cold cache, not wrong answers.
                kgtosa_obs::info!("delta: cache sweep failed: {e}");
            }
        }
        kgtosa_obs::counter("delta.migrations").add(outcome.report.migrated as u64);
        kgtosa_obs::counter("delta.invalidations").add(outcome.invalidated as u64);
        kgtosa_obs::counter("delta.repairs").add(outcome.repaired as u64);
        kgtosa_obs::counter("delta.rebuilds").add(rebuilds);
    }
    let staleness_window = sweep_started.elapsed();
    kgtosa_obs::info!(
        "delta: epoch {} → {} ({num_ops} ops, +{} −{} triples, {} new nodes), \
         cache: {} migrated / {} repaired / {} invalidated, window {:.1}ms",
        old.version,
        epoch.version,
        added.len(),
        removed.len(),
        new_nodes.len(),
        outcome.report.migrated,
        outcome.repaired,
        outcome.invalidated,
        staleness_window.as_secs_f64() * 1e3
    );

    let fields = vec![
        ("status".into(), Json::Str("ok".into())),
        ("epoch".into(), Json::Num(epoch.version as f64)),
        (
            "kg_fingerprint".into(),
            Json::Str(format!("{:016x}", epoch.fingerprint)),
        ),
        (
            "previous_fingerprint".into(),
            Json::Str(format!("{:016x}", old.fingerprint)),
        ),
        ("ops".into(), Json::Num(num_ops as f64)),
        ("added".into(), Json::Num(added.len() as f64)),
        ("removed".into(), Json::Num(removed.len() as f64)),
        ("new_nodes".into(), Json::Num(new_nodes.len() as f64)),
        ("nodes".into(), Json::Num(epoch.kg.num_nodes() as f64)),
        ("triples".into(), Json::Num(epoch.kg.num_triples() as f64)),
        (
            "cache".into(),
            Json::Obj(vec![
                ("scanned".into(), Json::Num(outcome.report.scanned as f64)),
                ("migrated".into(), Json::Num(outcome.report.migrated as f64)),
                ("stale".into(), Json::Num(outcome.stale as f64)),
                ("repaired".into(), Json::Num(outcome.repaired as f64)),
                ("rebuilds".into(), Json::Num(rebuilds as f64)),
                (
                    "invalidated".into(),
                    Json::Num(outcome.invalidated as f64),
                ),
                ("failed".into(), Json::Num(outcome.report.failed as f64)),
            ]),
        ),
        (
            "swap_ms".into(),
            Json::Num(swapped_after.as_secs_f64() * 1e3),
        ),
        (
            "staleness_window_ms".into(),
            Json::Num(staleness_window.as_secs_f64() * 1e3),
        ),
        (
            "elapsed_ms".into(),
            Json::Num(started.elapsed().as_secs_f64() * 1e3),
        ),
    ];
    HttpResponse::json(200, Json::Obj(fields).to_string())
}
