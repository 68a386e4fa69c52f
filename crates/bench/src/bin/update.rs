//! Update-stream experiment — incremental TOSG repair vs full re-extract.
//!
//! The paper treats extraction as one-time preprocessing (§V-C); the
//! `kgtosa-delta` stack makes it maintainable instead: a live stream of
//! triple deltas patches the KG, the staleness oracle decides which
//! cached TOSGs each delta can touch, and `repair_extraction` splices
//! the delta into the stale ones. This binary drives R rounds of K-op
//! deltas against MAG at two scales and reports, per round:
//!
//! * `repair_s` vs `full_s` — repairing the cached payload the way the
//!   daemon does (`kgtosa_core::repair_entry`: view, lift, repair,
//!   re-encode) vs re-running the full SPARQL extraction and encoding its
//!   payload (repair must win, and its cost must track the delta frontier
//!   and the TOSG, not `|KG|`: the per-scale totals expose the scaling
//!   ratio);
//! * the cache-sweep outcome (migrated / repaired / invalidated) and the
//!   staleness window it bounds, with the same repair function as hook;
//! * a differential `identical` flag — every repaired payload is compared
//!   byte-for-byte against the fresh extraction's payload before it counts.
//!
//! Results land in `results/delta.json`; CI gates on zero mismatches,
//! a non-empty invalidation path, and repair beating full re-extract.

use std::time::Instant;

use kgtosa_bench::{nc_extraction_task, save_json, Env};
use kgtosa_cache::ArtifactCache;
use kgtosa_core::{
    encode_extraction, extract_sparql, extract_sparql_cached_with_fingerprint, repair_entry,
    sparql_cache_key, sweep_cache_after_delta, ExtractionTask, GraphPattern, RepairConfig,
    StalenessOracle,
};
use kgtosa_kg::{apply_delta, fingerprint, DeltaOp, KgDelta, MultisetFingerprint};
use kgtosa_rdf::{FetchConfig, RdfStore};

#[global_allocator]
static ALLOC: kgtosa_memtrack::TrackingAllocator = kgtosa_memtrack::TrackingAllocator;

const ROUNDS: usize = 4;
const OPS_PER_ROUND: usize = 8;

/// One delta round at one scale, all four patterns folded in.
#[derive(Debug)]
struct RoundRecord {
    scale: f64,
    round: usize,
    ops: usize,
    kg_triples: usize,
    candidates: usize,
    repair_s: f64,
    full_s: f64,
    identical: bool,
    migrated: usize,
    repaired: usize,
    invalidated: usize,
    staleness_window_s: f64,
}

kgtosa_obs::json_row!(RoundRecord {
    scale,
    round,
    ops,
    kg_triples,
    candidates,
    repair_s,
    full_s,
    identical,
    migrated,
    repaired,
    invalidated,
    staleness_window_s,
});

#[derive(Debug, Default)]
struct Totals {
    repair_s: f64,
    full_s: f64,
    migrations: usize,
    repairs: usize,
    invalidations: usize,
    mismatches: usize,
}

kgtosa_obs::json_row!(Totals { repair_s, full_s, migrations, repairs, invalidations, mismatches });

#[derive(Debug)]
struct Scaling {
    small_scale: f64,
    large_scale: f64,
    small_triples: usize,
    large_triples: usize,
    repair_s_small: f64,
    repair_s_large: f64,
    full_s_small: f64,
    full_s_large: f64,
    /// How much repair slowed down going small → large. The delta size is
    /// identical at both scales, so this ratio staying far below
    /// `full_ratio` is the "cost tracks the frontier, not |KG|" evidence.
    repair_ratio: f64,
    full_ratio: f64,
}

kgtosa_obs::json_row!(Scaling {
    small_scale,
    large_scale,
    small_triples,
    large_triples,
    repair_s_small,
    repair_s_large,
    full_s_small,
    full_s_large,
    repair_ratio,
    full_ratio,
});

#[derive(Debug)]
struct Report {
    rounds: Vec<RoundRecord>,
    totals: Totals,
    scaling: Scaling,
}

kgtosa_obs::json_row!(Report { rounds, totals, scaling });

/// K ops for round `r`: half adds (a new paper citing an existing one,
/// and existing papers gaining citations), half removes of live triples.
/// Deterministic, and sequential-valid by construction.
fn round_ops(kg: &kgtosa_kg::KnowledgeGraph, r: usize, tag: &str) -> Vec<DeltaOp> {
    let paper = kg.find_class("Paper").expect("mag has Papers");
    let papers = kg.nodes_of_class(paper);
    let mut ops = Vec::new();
    for i in 0..OPS_PER_ROUND / 2 {
        let target = papers[(r * 131 + i * 977) % papers.len()];
        ops.push(DeltaOp::Add {
            s: format!("DeltaPaper_{tag}_{r}_{i}"),
            s_class: "Paper".into(),
            p: "cites".into(),
            o: kg.node_term(target).into(),
            o_class: "Paper".into(),
        });
    }
    let mut taken = std::collections::HashSet::new();
    let triples = kg.triples();
    for i in 0..OPS_PER_ROUND - OPS_PER_ROUND / 2 {
        let mut idx = (r * 8191 + i * 127) % triples.len();
        while !taken.insert(idx) {
            idx = (idx + 1) % triples.len();
        }
        let t = triples[idx];
        ops.push(DeltaOp::Remove {
            s: kg.node_term(t.s).into(),
            p: kg.relation_term(t.p).into(),
            o: kg.node_term(t.o).into(),
        });
    }
    ops
}

fn run_scale(scale: f64, seed: u64, tag: &str, records: &mut Vec<RoundRecord>) -> (f64, f64, usize) {
    let dataset = kgtosa_datagen::mag(scale, seed);
    let task = nc_extraction_task(&dataset.nc[0]);
    let patent_task = {
        let kg = &dataset.gen.kg;
        let c = kg.find_class("Patent").expect("mag has Patents");
        ExtractionTask::node_classification("Patent", "Patent", kg.nodes_of_class(c))
    };
    let dir = std::env::var("KGTOSA_CACHE_DIR")
        .unwrap_or_else(|_| "results/update-bench".into());
    let cache = ArtifactCache::open(format!("{dir}-{tag}")).expect("open cache dir");
    cache.clear().expect("reset cache dir");
    let fetch = FetchConfig::default();

    let mut kg = dataset.gen.kg.clone();
    let mut multiset = MultisetFingerprint::of(&kg);
    let base_triples = kg.num_triples();
    println!(
        "\nscale {scale}: {} nodes, {base_triples} triples",
        kg.num_nodes()
    );
    let (mut scale_repair, mut scale_full) = (0.0f64, 0.0f64);

    for r in 0..ROUNDS {
        let fp = fingerprint(&kg);
        let old_store = RdfStore::new(&kg);
        // The artifact state a server would hold: every pattern of the
        // paper task cached, plus one unrelated (Patent) entry that each
        // sweep must migrate, never invalidate.
        for pattern in &GraphPattern::VARIANTS {
            extract_sparql_cached_with_fingerprint(&old_store, &task, pattern, &fetch, &cache, fp)
                .expect("warm extraction");
        }
        extract_sparql_cached_with_fingerprint(
            &old_store,
            &patent_task,
            &GraphPattern::VARIANTS[0],
            &fetch,
            &cache,
            fp,
        )
        .expect("warm patent entry");

        let ops = round_ops(&kg, r, tag);
        let delta = KgDelta { base_fingerprint: fp, ops };
        let num_ops = delta.ops.len();
        let app = apply_delta(&kg, fp, multiset, &delta).expect("delta applies");
        let new_fp = fingerprint(&app.kg);
        let new_store = RdfStore::new(&app.kg);

        // Repair vs full, differentially checked per pattern: each cached
        // payload is repaired as the daemon repairs it, and must equal the
        // payload of a fresh extraction on the updated graph.
        let (mut repair_s, mut full_s) = (0.0f64, 0.0f64);
        let mut candidates = 0usize;
        let mut identical = true;
        let entries = cache.entries().expect("list the cache");
        for pattern in &GraphPattern::VARIANTS {
            let key = sparql_cache_key(fp, &task, pattern);
            let info = entries
                .iter()
                .find(|e| e.file_name == key.file_name())
                .expect("the warm entry is listed");
            let payload = cache.lookup(&key).payload.expect("the warm entry hits");
            let t0 = Instant::now();
            let (repaired, rep_report) = repair_entry(
                &new_store,
                info,
                &payload,
                kg.num_nodes(),
                &app.added,
                &app.removed,
                &fetch,
                &RepairConfig::default(),
            )
            .expect("a warm paper entry is repairable");
            repair_s += t0.elapsed().as_secs_f64();
            candidates += rep_report.candidates;
            let t1 = Instant::now();
            let fresh = extract_sparql(&new_store, &task, pattern, &fetch).expect("fresh");
            let quality = kgtosa_kg::quality(&fresh.subgraph.kg, &fresh.targets);
            let fresh_payload = encode_extraction(&fresh, app.kg.num_nodes(), &quality);
            full_s += t1.elapsed().as_secs_f64();
            identical &= repaired == fresh_payload;
        }

        // Sweep the cache the way `kgtosa serve` does. Alternate rounds
        // exercise both stale paths: repair-and-republish, and plain
        // invalidation.
        let do_repair = r % 2 == 0;
        let oracle = StalenessOracle::new(&app.kg, &app.added, &app.removed, &app.new_nodes);
        let sweep_started = Instant::now();
        let outcome = sweep_cache_after_delta(
            &cache,
            fp,
            new_fp,
            kg.num_nodes(),
            app.kg.num_nodes(),
            &oracle,
            |info, payload| {
                if !do_repair {
                    return None;
                }
                repair_entry(
                    &new_store,
                    info,
                    payload,
                    kg.num_nodes(),
                    &app.added,
                    &app.removed,
                    &fetch,
                    &RepairConfig::default(),
                )
                .map(|(bytes, _)| bytes)
            },
        )
        .expect("cache sweep");
        let staleness_window_s = sweep_started.elapsed().as_secs_f64();

        println!(
            "  round {r}: {num_ops} ops, {candidates} candidates, repair {repair_s:.4}s vs full {full_s:.4}s \
             ({} migrated / {} repaired / {} invalidated, window {:.1}ms, identical: {identical})",
            outcome.report.migrated,
            outcome.repaired,
            outcome.invalidated,
            staleness_window_s * 1e3
        );
        records.push(RoundRecord {
            scale,
            round: r,
            ops: num_ops,
            kg_triples: app.kg.num_triples(),
            candidates,
            repair_s,
            full_s,
            identical,
            migrated: outcome.report.migrated,
            repaired: outcome.repaired,
            invalidated: outcome.invalidated,
            staleness_window_s,
        });
        scale_repair += repair_s;
        scale_full += full_s;
        multiset = app.multiset;
        kg = app.kg;
    }
    (scale_repair, scale_full, base_triples)
}

fn main() {
    let env = Env::from_env();
    println!(
        "Update stream — incremental TOSG repair vs full re-extract on MAG \
         ({ROUNDS} rounds x {OPS_PER_ROUND} ops, scales {} and {})",
        env.scale,
        env.scale * 2.0
    );
    let mut records = Vec::new();
    let (repair_small, full_small, small_triples) =
        run_scale(env.scale, env.seed, "small", &mut records);
    let (repair_large, full_large, large_triples) =
        run_scale(env.scale * 2.0, env.seed, "large", &mut records);

    let totals = Totals {
        repair_s: records.iter().map(|r| r.repair_s).sum(),
        full_s: records.iter().map(|r| r.full_s).sum(),
        migrations: records.iter().map(|r| r.migrated).sum(),
        repairs: records.iter().map(|r| r.repaired).sum(),
        invalidations: records.iter().map(|r| r.invalidated).sum(),
        mismatches: records.iter().filter(|r| !r.identical).count(),
    };
    let scaling = Scaling {
        small_scale: env.scale,
        large_scale: env.scale * 2.0,
        small_triples,
        large_triples,
        repair_s_small: repair_small,
        repair_s_large: repair_large,
        full_s_small: full_small,
        full_s_large: full_large,
        repair_ratio: repair_large / repair_small.max(1e-9),
        full_ratio: full_large / full_small.max(1e-9),
    };
    println!(
        "\ntotals: repair {:.4}s vs full {:.4}s ({:.1}x), {} migrations / {} repairs / {} invalidations, {} mismatches",
        totals.repair_s,
        totals.full_s,
        totals.full_s / totals.repair_s.max(1e-9),
        totals.migrations,
        totals.repairs,
        totals.invalidations,
        totals.mismatches
    );
    println!(
        "scaling (same {OPS_PER_ROUND}-op deltas, {:.2}x more triples): repair {:.2}x slower, full {:.2}x slower",
        large_triples as f64 / small_triples.max(1) as f64,
        scaling.repair_ratio,
        scaling.full_ratio
    );
    save_json("delta", Report { rounds: records, totals, scaling });
}
