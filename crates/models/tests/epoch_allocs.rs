//! Scratch-arena allocation gate: a steady-state RGCN training epoch
//! performs fewer than 100 heap allocations.

use kgtosa_kg::HeteroGraph;
use kgtosa_models::{train_rgcn_nc, NcDataset, TrainConfig, TrainReport};

mod common;

// Counting allocator: the per-epoch allocation gate below reads
// `kgtosa_memtrack::alloc_count()` exactly like the obs span layer does.
#[global_allocator]
static ALLOC: kgtosa_memtrack::TrackingAllocator = kgtosa_memtrack::TrackingAllocator;

#[test]
fn steady_state_epoch_stays_under_100_allocations() {
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

    // Scratch-arena allocation gate: the marginal cost of an extra
    // steady-state epoch must be a handful of bookkeeping allocations
    // (trace point, metric argmax, gradient-bias vecs), NOT the dozens of
    // forward/backward intermediate matrices the trainers allocated per
    // epoch before the arena. Two runs differing only in epoch count
    // isolate exactly the steady-state epochs; threads are pinned to 1 so
    // scoped thread spawns don't pollute the count (the bit-determinism
    // contract makes the numeric outputs identical either way).
    kgtosa_par::with_threads(1, || {
        let run_with_epochs = |epochs: usize| -> (TrainReport, u64) {
            let cfg = TrainConfig {
                epochs,
                dim: 32,
                lr: 0.05,
                batch_size: 16,
                ..Default::default()
            };
            let before = kgtosa_memtrack::alloc_count();
            let report = train_rgcn_nc(&data, &cfg);
            (report, kgtosa_memtrack::alloc_count() - before)
        };
        let (short_report, short_allocs) = run_with_epochs(2);
        let (long_report, long_allocs) = run_with_epochs(12);
        // Epoch prefixes are bit-identical: the extra epochs are pure
        // continuation, so the alloc delta is exactly 10 steady epochs.
        for (s, l) in short_report.trace.iter().zip(&long_report.trace) {
            assert_eq!(s.epoch, l.epoch);
            assert_eq!(s.metric.to_bits(), l.metric.to_bits(), "metric trajectory diverged");
        }
        let per_epoch = (long_allocs.saturating_sub(short_allocs)) / 10;
        assert!(
            per_epoch < 100,
            "steady-state epoch allocates too much: {per_epoch} allocs/epoch \
             (short run {short_allocs}, long run {long_allocs})"
        );
    });
}
