//! Context isolation and propagation under a shared worker pool.
//!
//! Two telemetry contexts run interleaved extractions concurrently at
//! 1, 4, and 8 worker threads. Isolation means two things, both
//! asserted here:
//!
//! * **Correct per-context counters** — every endpoint request of the
//!   SPARQL run lands in its context's scoped delta, and none leak into
//!   the in-memory walk run that issued zero requests, even though the
//!   pool's worker threads are shared and workers inherit whichever
//!   context spawned the region.
//! * **Bit-identical outputs** — the subgraph snapshot bytes match an
//!   uncontexted run at the same thread count exactly. Telemetry must
//!   never affect numerics.

use std::sync::Barrier;

use kgtosa_core::{extract_brw, extract_sparql, ExtractionResult, ExtractionTask, GraphPattern};
use kgtosa_kg::{write_snapshot, HeteroGraph, KnowledgeGraph};
use kgtosa_obs::TelemetryContext;
use kgtosa_rdf::{FetchConfig, RdfStore};
use kgtosa_sampler::WalkConfig;

fn snapshot_bytes(kg: &KnowledgeGraph) -> Vec<u8> {
    let mut out = Vec::new();
    write_snapshot(kg, &mut out).unwrap();
    out
}

#[test]
fn interleaved_contexts_isolate_spans_counters_and_bytes() {
    let dataset = kgtosa_datagen::mag(0.05, 7);
    let kg = &dataset.gen.kg;
    let task = &dataset.nc[0];
    let ext = ExtractionTask::node_classification(&task.name, &task.target_class, task.targets());
    let hetero = HeteroGraph::build(kg);
    let walk = WalkConfig { roots: 500, walk_length: 3 };
    let pattern = GraphPattern::D1H1;

    let run_sparql = || -> ExtractionResult {
        let store = RdfStore::new(kg);
        extract_sparql(&store, &ext, &pattern, &FetchConfig::default()).unwrap()
    };
    let run_brw = || extract_brw(kg, &hetero, &ext, &walk, 7);

    for threads in [1usize, 4, 8] {
        // Uncontexted baselines, pinned to the same thread count.
        let base_a = snapshot_bytes(&kgtosa_par::with_threads(threads, run_sparql).subgraph.kg);
        let base_b = snapshot_bytes(&kgtosa_par::with_threads(threads, run_brw).subgraph.kg);

        let ctx_a = TelemetryContext::new(&format!("iso.sparql.t{threads}"));
        let ctx_b = TelemetryContext::new(&format!("iso.brw.t{threads}"));
        let barrier = Barrier::new(2);
        let (res_a, res_b) = std::thread::scope(|s| {
            let ha = s.spawn(|| {
                // The pool's thread-count override is thread-local, so
                // re-pin it inside the spawned thread; the context, by
                // contrast, propagates into pool workers by itself.
                let _scope = ctx_a.enter();
                barrier.wait();
                kgtosa_par::with_threads(threads, run_sparql)
            });
            let hb = s.spawn(|| {
                let _scope = ctx_b.enter();
                barrier.wait();
                kgtosa_par::with_threads(threads, run_brw)
            });
            (ha.join().unwrap(), hb.join().unwrap())
        });
        ctx_a.finish();
        ctx_b.finish();

        assert_eq!(
            snapshot_bytes(&res_a.subgraph.kg),
            base_a,
            "contexted SPARQL extraction diverged from the uncontexted run at {threads} threads"
        );
        assert_eq!(
            snapshot_bytes(&res_b.subgraph.kg),
            base_b,
            "contexted BRW extraction diverged from the uncontexted run at {threads} threads"
        );

        assert_eq!(
            ctx_a.counter_delta("rdf.requests") as usize,
            res_a.report.requests,
            "every endpoint request must land in the issuing context ({threads} threads)"
        );
        assert!(res_a.report.requests > 0, "SPARQL run issued no requests?");
        assert_eq!(
            ctx_b.counter_delta("rdf.requests"),
            0,
            "the walk-based run issued no requests; none may leak into its context"
        );
    }
}
