//! Property-based tests for the KG data-model invariants.

use proptest::prelude::*;

use kgtosa_kg::{
    distances_to_targets, induced_subgraph, neighbor_type_entropy, Dictionary, HeteroGraph,
    KnowledgeGraph, NodeSet, Vid,
};

/// Strategy: a random small KG as raw (s_class, p, o_class) edge templates
/// over bounded id spaces, plus node counts.
fn arb_kg() -> impl Strategy<Value = KnowledgeGraph> {
    (2usize..40, 1usize..5, 1usize..6).prop_flat_map(|(n, num_rel, num_cls)| {
        let edges = proptest::collection::vec((0..n, 0..num_rel, 0..n), 0..120);
        edges.prop_map(move |edges| {
            let mut kg = KnowledgeGraph::with_capacity(n, edges.len());
            for v in 0..n {
                kg.add_node(&format!("n{v}"), &format!("C{}", v % num_cls));
            }
            for r in 0..num_rel {
                kg.add_relation(&format!("r{r}"));
            }
            for (s, p, o) in edges {
                kg.add_triple(
                    Vid(s as u32),
                    kg.find_relation(&format!("r{p}")).unwrap(),
                    Vid(o as u32),
                );
            }
            kg
        })
    })
}

proptest! {
    /// Interning any sequence of strings is a bijection onto 0..len.
    #[test]
    fn dictionary_bijection(terms in proptest::collection::vec("[a-z]{1,12}", 1..100)) {
        let mut d = Dictionary::new();
        let ids: Vec<u32> = terms.iter().map(|t| d.intern(t)).collect();
        // resolve(intern(t)) == t
        for (term, &id) in terms.iter().zip(&ids) {
            prop_assert_eq!(d.resolve(id), term.as_str());
        }
        // ids are dense
        let mut unique: Vec<u32> = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(unique.len(), d.len());
        prop_assert_eq!(*unique.last().unwrap() as usize, d.len() - 1);
    }

    /// Sum of per-vertex merged out-degrees equals the triple count, and the
    /// undirected view stores exactly twice the triples.
    #[test]
    fn csr_degree_sums(kg in arb_kg()) {
        let g = HeteroGraph::build(&kg);
        let out_sum: usize = (0..g.num_nodes())
            .map(|v| g.merged_out().degree(Vid(v as u32)))
            .sum();
        prop_assert_eq!(out_sum, kg.num_triples());
        prop_assert_eq!(g.undirected().num_edges(), kg.num_triples() * 2);
    }

    /// Per-relation CSRs partition the triple set.
    #[test]
    fn relation_partition(kg in arb_kg()) {
        let g = HeteroGraph::build(&kg);
        let rel_sum: usize = (0..g.num_relations())
            .map(|r| g.relation(kgtosa_kg::Rid(r as u32)).out.num_edges())
            .sum();
        prop_assert_eq!(rel_sum, kg.num_triples());
    }

    /// An induced subgraph never invents vertices, triples, classes or
    /// relations, and every kept triple's endpoints are kept vertices.
    #[test]
    fn induced_subgraph_is_subset(kg in arb_kg(), mask in proptest::collection::vec(any::<bool>(), 40)) {
        let keep = NodeSet::from_iter(
            kg.num_nodes(),
            (0..kg.num_nodes()).filter(|&v| mask[v % mask.len()]).map(|v| Vid(v as u32)),
        );
        let sub = induced_subgraph(&kg, &keep);
        prop_assert_eq!(sub.kg.num_nodes(), keep.len());
        prop_assert!(sub.kg.num_triples() <= kg.num_triples());
        // Round-trip: every subgraph triple exists in the parent.
        for t in sub.kg.triples() {
            let ps = sub.map_up(t.s);
            let po = sub.map_up(t.o);
            let rel = kg.find_relation(sub.kg.relation_term(t.p)).unwrap();
            prop_assert!(kg.triples().iter().any(|pt| pt.s == ps && pt.o == po && pt.p == rel));
        }
    }

    /// BFS distances satisfy the triangle property along edges: for every
    /// undirected edge (u,v), |d(u) - d(v)| <= 1 when both are reachable.
    #[test]
    fn bfs_distance_lipschitz(kg in arb_kg()) {
        if kg.num_nodes() == 0 { return Ok(()); }
        let g = HeteroGraph::build(&kg);
        let targets = vec![Vid(0)];
        let d = distances_to_targets(&g, &targets);
        for t in kg.triples() {
            let (du, dv) = (d[t.s.idx()], d[t.o.idx()]);
            if du != u32::MAX && dv != u32::MAX {
                prop_assert!(du.abs_diff(dv) <= 1);
            } else {
                // One endpoint reachable implies the other is too.
                prop_assert_eq!(du, dv);
            }
        }
    }

    /// Entropy is non-negative and bounded by log2(#distinct buckets).
    #[test]
    fn entropy_bounds(kg in arb_kg()) {
        let g = HeteroGraph::build(&kg);
        let h = neighbor_type_entropy(&g);
        prop_assert!(h >= -1e-12);
        prop_assert!(h <= ((g.num_nodes().max(1)) as f64).log2() + 1e-12);
    }

    /// NodeSet iteration yields ascending unique ids matching membership.
    #[test]
    fn nodeset_iter_consistent(ids in proptest::collection::vec(0u32..500, 0..200)) {
        let set = NodeSet::from_iter(500, ids.iter().map(|&i| Vid(i)));
        let collected: Vec<u32> = set.iter().map(|v| v.raw()).collect();
        let mut expect: Vec<u32> = ids.clone();
        expect.sort_unstable();
        expect.dedup();
        prop_assert_eq!(collected, expect);
        prop_assert_eq!(set.len(), set.iter().count());
    }
}

/// Determinism of parallel CSR construction: the chunked counting sort
/// must place every edge in the same slot as the serial two-pass sort, at
/// every thread count — including graphs big enough to take the parallel
/// path (≥ `MIN_PAR_WORK` edges).
mod parallel_csr_determinism {
    use super::*;
    use kgtosa_kg::Csr;
    use kgtosa_par::{with_threads, MIN_PAR_WORK};

    /// `(offsets, targets, active rows)`.
    type FlatCsr = (Vec<u32>, Vec<u32>, Vec<u32>);

    /// Reference serial counting sort, kept independent of the production
    /// code path.
    fn reference_csr(n: usize, edges: &[(u32, u32)]) -> FlatCsr {
        let mut counts = vec![0u32; n + 1];
        for &(s, _) in edges {
            counts[s as usize + 1] += 1;
        }
        let active = (0..n as u32).filter(|&v| counts[v as usize + 1] > 0).collect();
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![0u32; edges.len()];
        for &(s, d) in edges {
            targets[cursor[s as usize] as usize] = d;
            cursor[s as usize] += 1;
        }
        (offsets, targets, active)
    }

    fn flat_csr(csr: &Csr) -> FlatCsr {
        let mut offsets = vec![0u32];
        for v in 0..csr.num_nodes() {
            offsets.push(offsets[v] + csr.degree(Vid(v as u32)) as u32);
        }
        (offsets, csr.targets().to_vec(), csr.active_rows().to_vec())
    }

    /// Deterministic pseudo-random edge list large enough to exercise the
    /// parallel sort (proptest inputs stay below the work threshold).
    fn big_edges(n: usize, m: usize, seed: u64) -> Vec<(u32, u32)> {
        let mut state = seed | 1;
        let mut step = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..m)
            .map(|_| ((step() % n as u64) as u32, (step() % n as u64) as u32))
            .collect()
    }

    #[test]
    fn big_csr_bit_identical_across_thread_counts() {
        let n = 4000;
        let edges = big_edges(n, MIN_PAR_WORK * 2, 42);
        let expect = reference_csr(n, &edges);
        for threads in [1usize, 2, 3, 4, 8] {
            let csr = with_threads(threads, || Csr::from_edge_list(n, &edges));
            assert_eq!(flat_csr(&csr), expect, "threads={threads}");
        }
    }

    #[test]
    fn big_hetero_graph_bit_identical_across_thread_counts() {
        let n = 3000usize;
        let mut kg = KnowledgeGraph::with_capacity(n, MIN_PAR_WORK);
        for v in 0..n {
            kg.add_node(&format!("n{v}"), &format!("C{}", v % 3));
        }
        for r in 0..3 {
            kg.add_relation(&format!("r{r}"));
        }
        for (i, (s, o)) in big_edges(n, MIN_PAR_WORK, 7).into_iter().enumerate() {
            kg.add_triple(Vid(s), kgtosa_kg::Rid((i % 3) as u32), Vid(o));
        }
        let base = with_threads(1, || HeteroGraph::build(&kg));
        for threads in [2usize, 4, 8] {
            let g = with_threads(threads, || HeteroGraph::build(&kg));
            assert_eq!(
                g.merged_out().targets(),
                base.merged_out().targets(),
                "merged targets, threads={threads}"
            );
            assert_eq!(
                g.undirected().targets(),
                base.undirected().targets(),
                "undirected targets, threads={threads}"
            );
            for r in 0..3u32 {
                assert_eq!(
                    g.relation(kgtosa_kg::Rid(r)).out.targets(),
                    base.relation(kgtosa_kg::Rid(r)).out.targets(),
                    "relation {r} out, threads={threads}"
                );
                assert_eq!(
                    g.relation(kgtosa_kg::Rid(r)).inc.targets(),
                    base.relation(kgtosa_kg::Rid(r)).inc.targets(),
                    "relation {r} inc, threads={threads}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random small/medium edge lists: production CSR equals the
        /// reference at every thread count (these mostly take the serial
        /// plan; the dedicated big tests above force the parallel one).
        #[test]
        fn csr_matches_reference(n in 1usize..200,
                                 edges in proptest::collection::vec((0u32..200, 0u32..200), 0..400)) {
            let edges: Vec<(u32, u32)> = edges
                .into_iter()
                .map(|(s, o)| (s % n as u32, o % n as u32))
                .collect();
            let expect = reference_csr(n, &edges);
            for threads in [1usize, 2, 4] {
                let csr = with_threads(threads, || Csr::from_edge_list(n, &edges));
                prop_assert_eq!(flat_csr(&csr), expect.clone(), "threads={}", threads);
            }
        }
    }
}
