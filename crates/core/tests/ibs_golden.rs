//! Golden regression for IBS at the benchmark's own inputs: MAG 0.25,
//! seed 7, the paper-venue task, `k = 16` — what `benchmark/` times as
//! `extract_ibs` on three of its four workloads but never checks. The
//! subgraph values were recorded before the dense push kernel replaced the
//! hash-map one; the work counters are exact for a KG + config, so pinning
//! them — and re-deriving them from the retained hash-map reference —
//! proves a faster kernel does the same pushes, not fewer.

use kgtosa_core::{extract_ibs, ExtractionTask};
use kgtosa_kg::{fingerprint, HeteroGraph};
use kgtosa_obs::TelemetryContext;
use kgtosa_sampler::ppr::approximate_ppr_reference;
use kgtosa_sampler::IbsConfig;

#[test]
fn extract_ibs_at_mag_quarter_is_pinned_at_any_thread_count() {
    let data = kgtosa_datagen::mag(0.25, 7);
    let kg = &data.gen.kg;
    let graph = HeteroGraph::build(kg);
    let nc = &data.nc[0];
    let task = ExtractionTask::node_classification(&nc.name, &nc.target_class, nc.targets());
    assert_eq!(task.targets.len(), 3_000);

    for threads in [1usize, 4] {
        let ctx = TelemetryContext::new("ibs_golden");
        let res = {
            let _scope = ctx.enter();
            extract_ibs(kg, &graph, &task, &IbsConfig { k: 16, threads, ..Default::default() })
        };
        assert_eq!(res.subgraph.kg.num_nodes(), 5_519, "threads={threads}");
        assert_eq!(res.subgraph.kg.num_triples(), 30_718, "threads={threads}");
        assert_eq!(fingerprint(&res.subgraph.kg), 0x790d_5c57_d606_f883, "threads={threads}");
        assert_eq!(ctx.counter_delta("sample.ibs.ppr_runs"), 3_000, "threads={threads}");
        assert_eq!(ctx.counter_delta("sample.ibs.pushes"), 428_151, "threads={threads}");
        assert_eq!(ctx.counter_delta("sample.ibs.edge_visits"), 5_093_534, "threads={threads}");
    }

    let ppr = IbsConfig::default().ppr;
    let (mut pushes, mut edge_visits) = (0, 0);
    for &target in &task.targets {
        let (_, work) = approximate_ppr_reference(&graph, target, &ppr);
        pushes += work.pushes;
        edge_visits += work.edge_visits;
    }
    assert_eq!((pushes, edge_visits), (428_151, 5_093_534), "hash-map reference");
}
