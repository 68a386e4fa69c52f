//! Telemetry-context differential contract: training inside an entered
//! [`kgtosa_obs::TelemetryContext`] must not change trainer outputs by a
//! single bit, and the context must capture every counter bump made
//! inside it. (The bookkeeping's wall-clock overhead is a benchmark
//! number — `bench.trace_overhead_pct` in `BENCHMARK.json` — not a
//! unit-test assertion: a timing bound flakes on a loaded box.)

use kgtosa_kg::HeteroGraph;
use kgtosa_models::{train_rgcn_nc, NcDataset, TrainConfig, TrainReport};
use kgtosa_obs::TelemetryContext;

mod common;

#[global_allocator]
static ALLOC: kgtosa_memtrack::TrackingAllocator = kgtosa_memtrack::TrackingAllocator;

fn train_once(data: &NcDataset<'_>) -> TrainReport {
    let cfg = TrainConfig {
        epochs: 12,
        dim: 32,
        lr: 0.05,
        batch_size: 16,
        // The CLI's observer wiring: per-epoch telemetry (the
        // `train.epochs` counter) runs on both sides of the comparison.
        observer: kgtosa_obs::Observer::new(kgtosa_obs::TelemetryObserver),
        ..Default::default()
    };
    train_rgcn_nc(data, &cfg)
}

#[test]
fn contexts_are_bit_invisible_and_capture_their_runs() {
    let (kg, labels, papers) = common::toy_nc(160);
    let graph = HeteroGraph::build(&kg);
    let (train, rest) = papers.split_at(120);
    let (valid, test) = rest.split_at(20);
    let data = NcDataset {
        kg: &kg,
        graph: &graph,
        labels: &labels,
        num_labels: 2,
        train,
        valid,
        test,
    };

    assert!(!kgtosa_obs::context_active(), "no context may be live at baseline time");
    let base = train_once(&data);

    // Entered twice: a context accumulates over every scope it is
    // current in.
    const REPS: usize = 2;
    let ctx = TelemetryContext::new("ctx-differential");
    let mut contexted = None;
    for _ in 0..REPS {
        let _scope = ctx.enter();
        contexted = Some(train_once(&data));
    }
    let contexted = contexted.expect("at least one rep");
    ctx.finish();

    // The context actually captured the runs: every contexted epoch's
    // counter bump landed in the scoped map.
    assert_eq!(
        ctx.counter_delta("train.epochs"),
        (12 * REPS) as u64,
        "per-epoch counter bumps missing from the context"
    );

    // Bit-identical trainer outputs: scoped telemetry only mirrors
    // instrument touches into per-context maps, it never feeds back into
    // the numeric path.
    assert_eq!(base.param_hash, contexted.param_hash, "context changed trained parameters");
    assert_eq!(base.param_count, contexted.param_count);
    assert_eq!(base.metric, contexted.metric, "context changed the test metric");
    assert_eq!(
        base.trace.iter().map(|p| p.metric.to_bits()).collect::<Vec<_>>(),
        contexted.trace.iter().map(|p| p.metric.to_bits()).collect::<Vec<_>>(),
        "context changed the validation trace"
    );
}
