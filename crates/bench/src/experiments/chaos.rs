//! Chaos scenario — SPARQL-based extraction under injected endpoint
//! faults, quantifying what the fault-tolerance layer costs and proving
//! what it guarantees:
//!
//! 1. **baseline** — fault-free extraction.
//! 2. **transient+retry** — every request fails up to `burst` times before
//!    succeeding; the retry layer must absorb all of it and produce a
//!    subgraph *bit-identical* to the baseline (asserted).
//! 3. **fatal+partial** — a fraction of requests fail permanently; partial
//!    mode degrades to an incomplete subgraph with an explicit
//!    completeness fraction instead of aborting.
//!
//! Prints a per-regime table (seconds, retries, completeness).

use crate::{measure, nc_extraction_task, Columns, Kg, World};
use kgtosa_core::{extract_sparql, ExtractionResult, GraphPattern};
use kgtosa_rdf::{FaultPlan, FetchConfig, FetchMode, RetryPolicy};

#[derive(Debug, Clone)]
pub struct ChaosRow {
    regime: String,
    seconds: f64,
    triples: usize,
    requests: usize,
    completeness: f64,
    retries: u64,
    giveups: u64,
    faults_injected: u64,
}

kgtosa_obs::json_row!(ChaosRow {
    regime,
    seconds,
    triples,
    requests,
    completeness,
    retries,
    giveups,
    faults_injected,
});

impl Columns for ChaosRow {
    const MEASURED: &'static [&'static str] = &["seconds"];
}

pub fn run(world: &World<'_>) -> Vec<ChaosRow> {
    let env = world.env;
    say!(
        world,
        "Chaos — KG-TOSA_d2h1 extraction on PV/MAG under injected endpoint faults (scale {})",
        env.scale
    );

    let ext_task = nc_extraction_task(&world.dataset(Kg::Mag).nc[0]);
    let store = world.store(Kg::Mag);
    let pattern = GraphPattern::D2H1;
    // Small pages so the fault schedule has many requests to hit even at
    // bench scales.
    let base_fetch = FetchConfig { batch_size: 256, ..Default::default() };

    let mut rows: Vec<ChaosRow> = Vec::new();
    // Each regime runs inside its own telemetry context, so the
    // fault-layer counters are scoped deltas rather than diffs of the
    // process-global counters.
    let mut run = |regime: &str, fetch: &FetchConfig| -> ExtractionResult {
        let ctx = kgtosa_obs::TelemetryContext::new(&format!("chaos.{regime}"));
        let (res, seconds, _) = {
            let _scope = ctx.enter();
            measure(|| {
                extract_sparql(store, &ext_task, &pattern, fetch)
                    .unwrap_or_else(|e| panic!("{regime} extraction failed: {e}"))
            })
        };
        ctx.finish();
        rows.push(ChaosRow {
            regime: regime.to_string(),
            seconds,
            triples: res.report.triples,
            requests: res.report.requests,
            completeness: res.report.completeness,
            retries: ctx.counter_delta("rdf.retries"),
            giveups: ctx.counter_delta("rdf.giveups"),
            faults_injected: ctx.counter_delta("rdf.faults"),
        });
        res
    };

    let clean = run("baseline", &base_fetch);

    let transient = run(
        "transient+retry",
        &FetchConfig {
            fault: Some(FaultPlan {
                seed: env.seed,
                fault_rate: 1.0,
                max_burst: 2,
                ..Default::default()
            }),
            retry: Some(RetryPolicy { jitter_seed: env.seed, ..Default::default() }),
            ..base_fetch.clone()
        },
    );
    assert_eq!(
        transient.subgraph.kg.triples(),
        clean.subgraph.kg.triples(),
        "transient faults below the retry budget must not change the extraction"
    );
    assert_eq!(transient.report.completeness, 1.0);

    let partial = run(
        "fatal+partial",
        &FetchConfig {
            fault: Some(FaultPlan {
                seed: env.seed,
                fault_rate: 0.3,
                fatal_rate: 0.3,
                ..Default::default()
            }),
            retry: Some(RetryPolicy { jitter_seed: env.seed, ..Default::default() }),
            mode: FetchMode::Partial,
            ..base_fetch
        },
    );
    assert!(
        partial.report.triples <= clean.report.triples,
        "a degraded extraction cannot contain more than the full one"
    );

    say!(
        world,
        "\n{:<16} {:>9} {:>9} {:>9} {:>13} {:>8} {:>8} {:>8}",
        "regime", "secs", "triples", "requests", "completeness", "faults", "retries", "giveups"
    );
    for r in &rows {
        say!(
            world,
            "{:<16} {:>9.3} {:>9} {:>9} {:>12.1}% {:>8} {:>8} {:>8}",
            r.regime,
            r.seconds,
            r.triples,
            r.requests,
            100.0 * r.completeness,
            r.faults_injected,
            r.retries,
            r.giveups
        );
    }
    let overhead = if rows[0].seconds > 0.0 {
        100.0 * (rows[1].seconds - rows[0].seconds) / rows[0].seconds
    } else {
        0.0
    };
    say!(world, "\nretry-layer overhead under 100% transient fault rate: {overhead:+.1}%");
    rows
}
