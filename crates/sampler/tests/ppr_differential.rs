//! Differential property tests for the dense push kernel: on random
//! multigraphs it must return exactly what the retained hash-map reference
//! returns — same vertices, same score bits, same work — a reused scratch
//! must behave like a fresh one, and the parallel entry points must not
//! depend on the thread count.

use proptest::prelude::*;

use kgtosa_kg::{HeteroGraph, KnowledgeGraph, Vid};
use kgtosa_par::with_threads;
use kgtosa_sampler::ppr::approximate_ppr_reference;
use kgtosa_sampler::{
    approximate_ppr, approximate_ppr_batch, ibs_sample, IbsConfig, PprConfig, PprScratch,
};

/// `n` vertices of which the last `isolated` have no edge at all (dangling
/// seeds); edges land anywhere among the rest, so self-loops and parallel
/// edges (same pair, same or another relation) occur freely.
fn arb_graph(
    nodes: std::ops::Range<usize>,
    edges: std::ops::Range<usize>,
) -> impl Strategy<Value = HeteroGraph> {
    (nodes, 0usize..4, proptest::collection::vec((any::<u32>(), 0u32..3, any::<u32>()), edges))
        .prop_map(|(n, isolated, edges)| {
            let mut kg = KnowledgeGraph::new();
            for v in 0..n {
                kg.add_node(&format!("n{v}"), &format!("C{}", v % 3));
            }
            let rels: Vec<_> = (0..3).map(|r| kg.add_relation(&format!("r{r}"))).collect();
            let connected = (n - isolated.min(n - 1)) as u32;
            for (s, r, o) in edges {
                kg.add_triple(Vid(s % connected), rels[r as usize], Vid(o % connected));
            }
            HeteroGraph::build(&kg)
        })
}

fn arb_config() -> impl Strategy<Value = PprConfig> {
    (
        proptest::sample::select(vec![0.15f32, 0.25, 0.5, 1.0]),
        proptest::sample::select(vec![1e-2f32, 1e-3, 2e-4, 1e-5]),
    )
        .prop_map(|(alpha, epsilon)| PprConfig { alpha, epsilon })
}

/// Order-free, bit-exact view of a score vector.
fn as_set(scores: &[(Vid, f32)]) -> Vec<(u32, u32)> {
    let mut set: Vec<(u32, u32)> = scores.iter().map(|&(v, s)| (v.raw(), s.to_bits())).collect();
    set.sort_unstable();
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dense_kernel_matches_the_hash_map_reference(
        g in arb_graph(1..40, 0..120),
        cfg in arb_config(),
        pick in any::<u32>(),
    ) {
        let seed = Vid(pick % g.num_nodes() as u32);
        let (reference, reference_work) = approximate_ppr_reference(&g, seed, &cfg);
        let mut scratch = PprScratch::new(&g, &cfg);
        let dense = scratch.run(seed).to_vec();

        prop_assert_eq!(as_set(&dense), as_set(&reference));
        prop_assert_eq!(scratch.work(), reference_work);
        // Deduplicated, every score positive, total mass at most the seed's 1.
        let mut vertices: Vec<Vid> = dense.iter().map(|&(v, _)| v).collect();
        vertices.sort_unstable();
        vertices.dedup();
        prop_assert_eq!(vertices.len(), dense.len());
        prop_assert!(dense.iter().all(|&(_, s)| s > 0.0));
        prop_assert!(dense.iter().map(|&(_, s)| s).sum::<f32>() <= 1.0 + 1e-4);
    }

    /// The sparse reset is complete: after any run, the scratch answers as
    /// a freshly built one would.
    #[test]
    fn a_reused_scratch_answers_like_a_fresh_one(
        g in arb_graph(1..40, 0..120),
        cfg in arb_config(),
        (pick_a, pick_b) in (any::<u32>(), any::<u32>()),
    ) {
        let n = g.num_nodes() as u32;
        let (a, b) = (Vid(pick_a % n), Vid(pick_b % n));
        let mut scratch = PprScratch::new(&g, &cfg);
        let first = scratch.run(a).to_vec();
        let between = scratch.run(b).to_vec();
        let again = scratch.run(a).to_vec();
        prop_assert_eq!(&again, &first);
        prop_assert_eq!(&first, &approximate_ppr(&g, a, &cfg));
        prop_assert_eq!(&between, &approximate_ppr(&g, b, &cfg));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every vertex is a target, so there are several 64-target chunks for
    /// the workers to share.
    #[test]
    fn parallel_entry_points_ignore_the_thread_count(
        g in arb_graph(150..260, 200..900),
        cfg in arb_config(),
        k in 0usize..6,
    ) {
        let targets: Vec<Vid> = (0..g.num_nodes() as u32).map(Vid).collect();
        let serial: Vec<Vec<(Vid, f32)>> =
            targets.iter().map(|&t| approximate_ppr(&g, t, &cfg)).collect();
        let ibs = IbsConfig { k, ppr: cfg, threads: 1, ..Default::default() };
        let sample: Vec<Vid> = ibs_sample(&g, &targets, &ibs).iter().collect();
        for threads in [1usize, 2, 4, 8] {
            let batch = with_threads(threads, || approximate_ppr_batch(&g, &targets, &cfg));
            prop_assert_eq!(&batch, &serial, "threads={}", threads);
            let got: Vec<Vid> =
                ibs_sample(&g, &targets, &IbsConfig { threads, ..ibs }).iter().collect();
            prop_assert_eq!(&got, &sample, "threads={}", threads);
        }
    }
}
