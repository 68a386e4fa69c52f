//! Update-stream phase: the write path beside serve-read's read path. Each
//! round, one client posts seeded deltas to `/admin/update`, each followed
//! by a read of a key the delta made stale and of one it did not.

use std::path::Path;
use std::time::Instant;

use kgtosa_cache::ArtifactCache;
use kgtosa_core::{
    decode_extraction, encode_extraction_parts, extract_sparql_cached_with_fingerprint,
    parent_triples, repair_extraction, sweep_cache_after_delta, task_params, ExtractionTask,
    GraphPattern, RepairConfig, StalenessOracle,
};
use kgtosa_kg::{apply_delta, fingerprint, DeltaOp, KgDelta, MultisetFingerprint};
use kgtosa_obs::Json;
use kgtosa_rdf::{FetchConfig, RdfStore};

use crate::gen::{update_body, DeltaStream};
use crate::report::{ms, Report};
use crate::stats::{median, percentile, BEST_DECILE};
use crate::trace::Tracer;
use crate::world::{key_pattern, key_task, local_fingerprints, reply_field, Daemon, View};

/// The daemon's counters this phase reports as per-layer metrics.
const DELTA_COUNTERS: [&str; 4] = [
    "delta.migrations",
    "delta.repairs",
    "delta.invalidations",
    "delta.rebuilds",
];

fn text_field(body: &str, field: &str) -> Option<String> {
    reply_field(body, field)?.as_str().map(str::to_string)
}

/// The update-stream phase of one run: [`Update::round`] once per round,
/// then [`Update::finish`].
pub struct Update<'a> {
    daemon: &'a Daemon,
    small: &'a View<'a>,
    seed: u64,
    /// Updates sent each round.
    per_round: usize,
    stream: DeltaStream,
    /// Updates sent so far.
    sent: usize,
    update_ms: Vec<f64>,
    read_ms: Vec<f64>,
    swap_ms: Vec<f64>,
    staleness_ms: Vec<f64>,
    /// Live-heap growth summed over the update slices only.
    grown_bytes: usize,
    first_reply: Option<String>,
    /// The daemon's KG fingerprint after the latest update.
    kg_fingerprint: String,
    counters_before: Vec<u64>,
}

impl<'a> Update<'a> {
    pub fn new(daemon: &'a Daemon, small: &'a View<'a>, per_round: usize, seed: u64) -> Self {
        Update {
            daemon,
            small,
            seed,
            per_round,
            stream: DeltaStream::new(small.kg(), seed),
            sent: 0,
            update_ms: Vec::new(),
            read_ms: Vec::new(),
            swap_ms: Vec::new(),
            staleness_ms: Vec::new(),
            grown_bytes: 0,
            first_reply: None,
            kg_fingerprint: String::new(),
            counters_before: DELTA_COUNTERS
                .iter()
                .map(|c| kgtosa_obs::counter(c).get())
                .collect(),
        }
    }

    pub fn round(&mut self, tracer: &Tracer, report: &mut Report) {
        let daemon = self.daemon;
        let (stale, fresh): (Vec<_>, Vec<_>) = daemon.keys.iter().partition(|k| k.paper_scoped);
        let live_before = kgtosa_memtrack::live_bytes();
        tracer.span("phase.update", || {
            for _ in 0..self.per_round {
                let Some(ops) = self.stream.next_ops() else {
                    break;
                };
                let n = self.sent;
                let body = update_body(&ops);
                let (start_s, sent) = (tracer.now(), Instant::now());
                let reply = daemon.post("/admin/update", &body);
                self.update_ms.push(ms(sent.elapsed()));
                tracer.record("client/admin/update", start_s, tracer.now(), n as u64);
                let (status, body) = match reply {
                    Ok(r) => (r.status, r.body),
                    Err(e) => (0, e.to_string()),
                };
                report.op(status == 200, || {
                    format!("/admin/update answered {status}: {body}")
                });
                let reply = Json::parse(&body).unwrap_or(Json::Null);
                let number = |field| reply.get(field).and_then(Json::as_f64);
                self.kg_fingerprint = reply
                    .get("kg_fingerprint")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string();
                self.swap_ms.extend(number("swap_ms"));
                self.staleness_ms.extend(number("staleness_window_ms"));
                self.first_reply.get_or_insert(body);
                self.sent += 1;

                // Reads on the new epoch: both must be answered from it, the
                // stale key by its repaired entry, the fresh one by its
                // migrated entry.
                for key in [stale[n % stale.len()], fresh[n % fresh.len()]] {
                    let (start_s, sent) = (tracer.now(), Instant::now());
                    let reply = daemon.post("/extract", &key.body());
                    self.read_ms.push(ms(sent.elapsed()));
                    tracer.record("client/extract", start_s, tracer.now(), n as u64);
                    let ok = reply.as_ref().is_ok_and(|r| {
                        r.status == 200
                            && text_field(&r.body, "kg_fingerprint").as_deref()
                                == Some(self.kg_fingerprint.as_str())
                    });
                    report.op(ok, || {
                        format!("read of {} after update {n} failed", key.label())
                    });
                }
            }
        });
        self.grown_bytes += kgtosa_memtrack::live_bytes().saturating_sub(live_before);
    }

    pub fn finish(self, replay_cache: &Path, tracer: &Tracer, report: &mut Report) {
        let (daemon, small, updates) = (self.daemon, self.small, self.sent);
        report.set("update_p10_ms", percentile(&self.update_ms, BEST_DECILE));
        report.set(
            "heap_growth_kb_per_update",
            self.grown_bytes as f64 / updates as f64 / 1024.0,
        );

        // After the stream the daemon must serve exactly what a local
        // apply_delta + extract_sparql on the final KG produces. The stream
        // is regenerated from the seed rather than kept, so nothing the
        // client holds is counted as heap growth above.
        let mut replayed = DeltaStream::new(small.kg(), self.seed);
        let deltas: Vec<Vec<DeltaOp>> = (0..updates)
            .map(|_| replayed.next_ops().expect("same stream"))
            .collect();
        let base_fp = fingerprint(small.kg());
        let all = KgDelta {
            base_fingerprint: base_fp,
            ops: deltas.concat(),
        };
        let final_kg = apply_delta(
            small.kg(),
            base_fp,
            MultisetFingerprint::of(small.kg()),
            &all,
        )
        .expect("generated ops apply")
        .kg;
        report.op(
            format!("{:016x}", fingerprint(&final_kg)) == self.kg_fingerprint,
            || "the daemon's final KG differs from a local apply_delta of the same stream".into(),
        );
        let expected = local_fingerprints(&daemon.keys, &final_kg, small.task());
        for (key, expected) in daemon.keys.iter().zip(&expected) {
            let answered = daemon
                .post("/extract", &key.body())
                .ok()
                .filter(|r| r.status == 200)
                .and_then(|r| text_field(&r.body, "subgraph_fingerprint"));
            report.op(answered.as_ref() == Some(expected), || {
                format!(
                    "{} after the stream: daemon {answered:?}, local {expected}",
                    key.label()
                )
            });
        }
        // Shown, not asserted: the updates both repaired and migrated entries.
        let moved: Vec<u64> = DELTA_COUNTERS
            .iter()
            .zip(&self.counters_before)
            .map(|(c, before)| kgtosa_obs::counter(c).get() - before)
            .collect();
        report.op(moved[0] > 0 && moved[1] > 0, || {
            format!(
                "{} migrations and {} repairs over {updates} updates",
                moved[0], moved[1]
            )
        });

        if tracer.enabled() {
            for (name, value) in DELTA_COUNTERS.iter().zip(&moved) {
                report.set(name, *value as f64);
            }
            report.set("serve.update.swap_ms", median(&self.swap_ms));
            report.set("serve.update.staleness_ms", median(&self.staleness_ms));
            report.set("serve.read_after_update.ms", median(&self.read_ms));
            let first_reply = self.first_reply.as_deref().expect("an update was sent");
            tracer.span("replay.update", || {
                replay(
                    daemon,
                    small,
                    &deltas[0],
                    first_reply,
                    replay_cache,
                    tracer,
                    report,
                )
            });
        }
    }
}

/// Replays the first update's parts on the base KG — apply, fingerprint,
/// index rebuild, cache sweep with repair — against a private cache warmed
/// with the same six keys, and checks it lands where the daemon landed.
fn replay(
    daemon: &Daemon,
    small: &View<'_>,
    ops: &[DeltaOp],
    daemon_reply: &str,
    cache_dir: &Path,
    tracer: &Tracer,
    report: &mut Report,
) {
    let (kg, nc) = (small.kg(), small.task());
    let base_fp = fingerprint(kg);
    let cache = ArtifactCache::open(cache_dir).expect("open replay cache");
    for key in &daemon.keys {
        extract_sparql_cached_with_fingerprint(
            &small.store,
            &key_task(key, kg, nc),
            &key_pattern(key),
            &FetchConfig::default(),
            &cache,
            base_fp,
        )
        .expect("warm the replay cache");
    }

    let delta = KgDelta {
        base_fingerprint: base_fp,
        ops: ops.to_vec(),
    };
    let multiset = MultisetFingerprint::of(kg);
    let app = tracer
        .span("kg.apply_delta", || {
            apply_delta(kg, base_fp, multiset, &delta)
        })
        .expect("generated ops apply");
    let new_fp = tracer.span("kg.fingerprint", || fingerprint(&app.kg));
    let store = tracer.span("update.store_build", || RdfStore::new(&app.kg));
    let (graph, _) = tracer.span("update.transform", || kgtosa_core::transform(&app.kg));
    let oracle = StalenessOracle::new(&app.kg, &app.added, &app.removed, &app.new_nodes);
    let repair_cfg = RepairConfig {
        max_candidate_ratio: daemon.state.cfg.repair_frontier_ratio,
        ..RepairConfig::default()
    };
    let outcome = tracer
        .span("core.sweep", || {
            sweep_cache_after_delta(
                &cache,
                base_fp,
                new_fp,
                kg.num_nodes(),
                app.kg.num_nodes(),
                &oracle,
                // The daemon's repair hook, part by part.
                |info, payload| {
                    let label = info.pattern.as_deref()?;
                    let pattern = GraphPattern::VARIANTS
                        .into_iter()
                        .find(|p| p.label() == label)?;
                    let class = info.task.as_deref()?.strip_prefix("nc:")?;
                    let old = decode_extraction(payload, kg.num_nodes()).ok()?;
                    let targets = old
                        .targets
                        .iter()
                        .map(|&t| old.subgraph.map_up(t))
                        .collect();
                    let task = ExtractionTask::node_classification(class, class, targets);
                    if info.params != Some(task_params(&task)) {
                        return None;
                    }
                    let old_triples = parent_triples(&app.kg, &old.subgraph);
                    let (res, _) = tracer
                        .span("core.repair_extraction", || {
                            repair_extraction(
                                &store,
                                &graph,
                                &task,
                                &pattern,
                                &old_triples,
                                &app.added,
                                &app.removed,
                                &FetchConfig::default(),
                                &repair_cfg,
                            )
                        })
                        .ok()?;
                    let quality = kgtosa_kg::quality(&res.subgraph.kg, &res.targets);
                    Some(encode_extraction_parts(
                        &res.report.method,
                        &res.subgraph,
                        &res.targets,
                        app.kg.num_nodes(),
                        &quality,
                    ))
                },
            )
        })
        .expect("replay sweep");

    let daemon_cache = reply_field(daemon_reply, "cache");
    let daemon_count = |field| {
        daemon_cache
            .as_ref()
            .and_then(|c| c.get(field))
            .and_then(Json::as_f64)
    };
    let same = text_field(daemon_reply, "kg_fingerprint") == Some(format!("{new_fp:016x}"))
        && daemon_count("migrated") == Some(outcome.report.migrated as f64)
        && daemon_count("repaired") == Some(outcome.repaired as f64);
    report.op(same, || {
        format!("replayed update parts ({outcome:?}, {new_fp:016x}) differ from the daemon's: {daemon_reply}")
    });

    let total_ms = |name| tracer.durations(name).iter().sum::<f64>() * 1e3;
    report.set("kg.apply_delta.ms", total_ms("kg.apply_delta"));
    report.set("kg.fingerprint.ms", total_ms("kg.fingerprint"));
    report.set("core.transform.ms", total_ms("update.transform"));
    report.set(
        "serve.epoch_build.ms",
        total_ms("update.store_build") + total_ms("update.transform"),
    );
    report.set("core.sweep.ms", total_ms("core.sweep"));
    report.set(
        "core.repair_extraction.ms",
        median(&tracer.durations("core.repair_extraction")) * 1e3,
    );
}
