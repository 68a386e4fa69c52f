//! Extraction work follows the TOSG, not the paths that reach it: the rows
//! the endpoint returns for each of the four graph patterns stay within a
//! small constant of the extracted triples, and that constant does not grow
//! with the KG. A 2-hop subquery answered once per path (anchor, middle
//! vertex, final edge) rather than once per triple fails both checks: its
//! rows per TOSG triple grow with the degrees, so with the KG.
//!
//! Rows are counted exactly (`rdf.rows` in a telemetry context), at two
//! rungs of PV/MAG, with the page sizes `benchmark/` uses for each pattern.

use kgtosa_core::{extract_sparql, ExtractionTask, GraphPattern};
use kgtosa_obs::TelemetryContext;
use kgtosa_rdf::{FetchConfig, RdfStore};

const RUNGS: [f64; 2] = [0.05, 0.1];
/// Most endpoint rows a pattern may fetch per TOSG triple.
const MAX_ROWS_PER_TRIPLE: f64 = 5.0;
/// Most a pattern's rows per TOSG triple may move from one rung to the
/// next, relative.
const MAX_DRIFT: f64 = 0.10;

/// The benchmark's page size for a pattern: quoted at MAG 4, shrunk in
/// proportion to the scale.
fn page_size(pattern: &GraphPattern, scale: f64) -> usize {
    let at_scale_4 = if pattern.hops == 1 {
        5_000.0
    } else {
        100_000.0
    };
    ((at_scale_4 * scale / 4.0).round() as usize).max(1)
}

/// Endpoint rows per TOSG triple of each pattern at one rung.
fn rows_per_triple(scale: f64) -> Vec<(String, f64)> {
    let data = kgtosa_datagen::mag(scale, 7);
    let kg = &data.gen.kg;
    let nc = &data.nc[0];
    let task = ExtractionTask::node_classification(&nc.name, &nc.target_class, nc.targets());
    let store = RdfStore::new(kg);
    [
        GraphPattern::D1H1,
        GraphPattern::D2H1,
        GraphPattern::D1H2,
        GraphPattern::D2H2,
    ]
    .iter()
    .map(|pattern| {
        let fetch = FetchConfig {
            batch_size: page_size(pattern, scale),
            ..Default::default()
        };
        let ctx = TelemetryContext::new("extraction_rows");
        let res = {
            let _scope = ctx.enter();
            extract_sparql(&store, &task, pattern, &fetch).expect("fault-free extraction")
        };
        ctx.finish();
        let triples = res.report.triples;
        assert!(
            triples > 0,
            "{} at MAG {scale} extracts nothing",
            pattern.label()
        );
        let rows = ctx.counter_delta("rdf.rows");
        (pattern.label(), rows as f64 / triples as f64)
    })
    .collect()
}

#[test]
fn rows_fetched_per_tosg_triple_are_bounded_and_flat() {
    let [low, high] = RUNGS.map(rows_per_triple);
    for (rung, ratios) in RUNGS.iter().zip([&low, &high]) {
        for (label, ratio) in ratios {
            assert!(
                *ratio <= MAX_ROWS_PER_TRIPLE,
                "{label} at MAG {rung} fetches {ratio:.2} rows per TOSG triple \
                 (at most {MAX_ROWS_PER_TRIPLE})"
            );
        }
    }
    for ((label, at_low), (_, at_high)) in low.iter().zip(&high) {
        let drift = (at_high / at_low - 1.0).abs();
        assert!(
            drift <= MAX_DRIFT,
            "{label}: {at_low:.3} rows per TOSG triple at MAG {} but {at_high:.3} at MAG {}",
            RUNGS[0],
            RUNGS[1]
        );
    }
}
