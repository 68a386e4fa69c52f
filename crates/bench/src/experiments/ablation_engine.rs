//! Ablation of the SPARQL extraction machinery (the optimizations
//! Algorithm 3 argues for):
//!
//! 1. **pagination batch size** (`bs`) — every subquery is evaluated once
//!    whatever `bs` is, so the sweep shows what a request itself costs (an
//!    O(bs) slice plus accounting): a small constant factor from 64 to 1M,
//!    not a cost linear in the request count,
//! 2. **worker threads** (`P`) — subqueries are fetched in parallel,
//! 3. **index choice** — hexastore prefix scans vs a forced full scan
//!    (what a store without the orderings would have to do).

use std::time::Instant;

use crate::{nc_extraction_task, Columns, Kg, World};
use kgtosa_core::{compile_subqueries, GraphPattern};
use kgtosa_rdf::{fetch_triples_robust, FetchConfig, InProcessEndpoint};

pub struct SweepRow {
    what: String,
    value: String,
    seconds: f64,
    requests: usize,
    triples: usize,
}

kgtosa_obs::json_row!(SweepRow { what, value, seconds, requests, triples });

impl Columns for SweepRow {
    const MEASURED: &'static [&'static str] = &["seconds"];
}

pub fn run(world: &World<'_>) -> Vec<SweepRow> {
    say!(world, "Ablation — SPARQL extraction machinery (scale {})", world.env.scale);
    let dataset = world.dataset(Kg::Mag);
    let kg = &dataset.gen.kg;
    let task = nc_extraction_task(&dataset.nc[0]);
    let store = world.store(Kg::Mag);
    // d1h1 keeps a single triple-var projection across subqueries, which
    // keeps the sweep loops simple.
    let subqueries = compile_subqueries(&task, &GraphPattern::D1H1);
    let queries: Vec<_> = subqueries.iter().map(|sq| sq.query.clone()).collect();
    let vars = subqueries[0].triple_vars.clone();
    let mut rows: Vec<SweepRow> = Vec::new();

    say!(world, "\n-- pagination batch size (threads = 2) --");
    say!(world, "{:>10} {:>10} {:>10} {:>10}", "bs", "seconds", "requests", "triples");
    for bs in [64usize, 512, 4096, 32_768, 1_000_000] {
        let ep = InProcessEndpoint::new(store);
        let start = Instant::now();
        let triples = fetch_triples_robust(
            &ep,
            store,
            &queries,
            (&vars.0, &vars.1, &vars.2),
            &FetchConfig { batch_size: bs, threads: 2, ..FetchConfig::default() },
        )
        .unwrap()
        .triples;
        let secs = start.elapsed().as_secs_f64();
        say!(
            world,
            "{:>10} {:>10.4} {:>10} {:>10}",
            bs,
            secs,
            ep.stats().requests(),
            triples.len()
        );
        rows.push(SweepRow {
            what: "batch_size".into(),
            value: bs.to_string(),
            seconds: secs,
            requests: ep.stats().requests(),
            triples: triples.len(),
        });
    }

    say!(world, "\n-- worker threads (bs = 4096) --");
    say!(world, "{:>10} {:>10} {:>10}", "P", "seconds", "triples");
    for threads in [1usize, 2, 4, 8] {
        let ep = InProcessEndpoint::new(store);
        let start = Instant::now();
        let triples = fetch_triples_robust(
            &ep,
            store,
            &queries,
            (&vars.0, &vars.1, &vars.2),
            &FetchConfig { batch_size: 4096, threads, ..FetchConfig::default() },
        )
        .unwrap()
        .triples;
        let secs = start.elapsed().as_secs_f64();
        say!(world, "{:>10} {:>10.4} {:>10}", threads, secs, triples.len());
        rows.push(SweepRow {
            what: "threads".into(),
            value: threads.to_string(),
            seconds: secs,
            requests: ep.stats().requests(),
            triples: triples.len(),
        });
    }

    say!(world, "\n-- index choice: hexastore prefix scan vs full scan --");
    let hex = store.hexastore();
    let raw: Vec<[u32; 3]> = hex.scan(None, None, None).collect();
    // Probe: all (s, ?, ?) scans for the first 2000 subjects.
    let probes: Vec<u32> = (0..kg.num_nodes().min(2000) as u32).collect();
    let start = Instant::now();
    let mut indexed_hits = 0usize;
    for &s in &probes {
        indexed_hits += hex.scan(Some(s), None, None).count();
    }
    let indexed = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut scan_hits = 0usize;
    for &s in &probes {
        scan_hits += raw.iter().filter(|t| t[0] == s).count();
    }
    let full = start.elapsed().as_secs_f64();
    assert_eq!(indexed_hits, scan_hits);
    say!(
        world,
        "{} probes: hexastore {:.4}s vs full scan {:.4}s ({:.0}x)",
        probes.len(),
        indexed,
        full,
        full / indexed.max(1e-9)
    );
    rows.push(SweepRow {
        what: "index".into(),
        value: "hexastore".into(),
        seconds: indexed,
        requests: probes.len(),
        triples: indexed_hits,
    });
    rows.push(SweepRow {
        what: "index".into(),
        value: "full_scan".into(),
        seconds: full,
        requests: probes.len(),
        triples: scan_hits,
    });
    rows
}
