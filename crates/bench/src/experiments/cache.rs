//! Cache amortization experiment — cold vs warm TOSG extraction.
//!
//! The paper's cost model (§V-C, Table IV) treats extraction as a
//! one-time preprocessing cost amortized over many training runs. The
//! content-addressed artifact cache makes that amortization literal:
//! the first (cold) extraction per pattern pays the full SPARQL fetch,
//! every later (warm) run loads the published artifact with zero
//! endpoint requests. This experiment measures both phases for all four
//! `KG-TOSA_{d,h}` patterns and reports the speedup. The cache (cleared
//! first) lives in `KGTOSA_CACHE_DIR`, else `cache-bench/` under the output
//! directory; a world without an output directory gets a temporary
//! directory, removed afterwards, whatever the environment says.

use crate::{measure, nc_extraction_task, Columns, Kg, World};
use kgtosa_cache::{ArtifactCache, CacheOutcome};
use kgtosa_core::{extract_sparql_cached, GraphPattern};
use kgtosa_rdf::FetchConfig;
use std::path::PathBuf;

/// One phase of one pattern's extraction.
#[derive(Debug)]
pub struct CacheRecord {
    pattern: String,
    phase: String,
    outcome: String,
    seconds: f64,
    requests: usize,
    triples: usize,
    peak_bytes: usize,
}

kgtosa_obs::json_row!(CacheRecord {
    pattern,
    phase,
    outcome,
    seconds,
    requests,
    triples,
    peak_bytes,
});

impl Columns for CacheRecord {
    const MEASURED: &'static [&'static str] = &["seconds", "peak_bytes"];
}

pub fn run(world: &World<'_>) -> Vec<CacheRecord> {
    say!(
        world,
        "Cache amortization — cold vs warm SPARQL extraction on MAG (scale {})",
        world.env.scale
    );
    let dataset = world.dataset(Kg::Mag);
    let kg = &dataset.gen.kg;
    let task = nc_extraction_task(&dataset.nc[0]);
    say!(world, "MAG (scaled): {} nodes, {} triples", kg.num_nodes(), kg.num_triples());

    let kept = world.out().map(|out| {
        std::env::var_os("KGTOSA_CACHE_DIR").map_or_else(|| out.join("cache-bench"), PathBuf::from)
    });
    let dir = kept.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("kgtosa-cache-bench-{}", std::process::id()))
    });
    let cache = ArtifactCache::open(&dir).expect("open cache dir");
    cache.clear().expect("reset cache dir"); // cold must mean cold
    let store = world.store(Kg::Mag);
    let fetch = FetchConfig::default();

    let mut records: Vec<CacheRecord> = Vec::new();
    say!(
        world,
        "{:<8} {:<5} {:<8} {:>10} {:>9} {:>10} {:>12}",
        "pattern", "phase", "outcome", "seconds", "requests", "triples", "peak-mem"
    );
    for pattern in GraphPattern::VARIANTS {
        for phase in ["cold", "warm"] {
            let ((res, outcome), seconds, peak) = measure(|| {
                extract_sparql_cached(store, &task, &pattern, &fetch, &cache)
                    .expect("extraction")
            });
            let expected = if phase == "cold" { CacheOutcome::Miss } else { CacheOutcome::Hit };
            assert_eq!(outcome, expected, "{phase} {} resolved unexpectedly", pattern.label());
            say!(
                world,
                "{:<8} {:<5} {:<8} {:>10.4} {:>9} {:>10} {:>12}",
                pattern.label(),
                phase,
                outcome.label(),
                seconds,
                res.report.requests,
                res.report.triples,
                peak
            );
            records.push(CacheRecord {
                pattern: pattern.label(),
                phase: phase.into(),
                outcome: outcome.label().into(),
                seconds,
                requests: res.report.requests,
                triples: res.report.triples,
                peak_bytes: peak,
            });
        }
    }

    say!(world, "\namortization (cold seconds / warm seconds):");
    for pair in records.chunks(2) {
        if let [cold, warm] = pair {
            say!(
                world,
                "  {:<8} {:>8.1}x  ({} requests saved per warm run)",
                cold.pattern,
                cold.seconds / warm.seconds.max(1e-9),
                cold.requests
            );
        }
    }
    let disk = cache.disk_stats().expect("cache stats");
    say!(world, "cache dir {}: {} artifacts, {} bytes", dir.display(), disk.entries, disk.bytes);
    if kept.is_none() {
        std::fs::remove_dir_all(&dir).expect("remove temporary cache dir");
    }
    records
}
