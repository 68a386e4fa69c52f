//! Property-based tests for the KG data-model invariants.

use std::collections::HashMap;

use proptest::prelude::*;

use kgtosa_kg::{
    apply_delta, distances_to_targets, fingerprint, induced_subgraph, live_classes,
    live_relations, neighbor_type_entropy, quality, read_snapshot, subgraph_from_triples_and_nodes,
    write_snapshot, DeltaOp, Dictionary, HeteroGraph, InducedSubgraph, KgDelta, KnowledgeGraph,
    MultisetFingerprint, NodeSet, SubgraphQuality, Triple, Vid,
};

/// Strategy: a random small KG as raw (s_class, p, o_class) edge templates
/// over bounded id spaces, plus node counts. Edges are inserted one at a
/// time in random order, repeats included.
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

/// Interns `terms` into a [`Dictionary`] and into the model — a
/// `HashMap` from term to id and a `Vec` of terms by id — and checks that
/// they agree on every id, `get`, `resolve`, `try_resolve`, `iter` and
/// `clone`.
fn check_dictionary_model(terms: &[String]) -> Result<(), TestCaseError> {
    let mut d = Dictionary::new();
    let mut ids: HashMap<String, u32> = HashMap::new();
    let mut by_id: Vec<String> = Vec::new();
    for term in terms {
        prop_assert_eq!(d.get(term), ids.get(term).copied());
        let expect = *ids.entry(term.clone()).or_insert_with(|| {
            by_id.push(term.clone());
            u32::try_from(by_id.len() - 1).unwrap()
        });
        prop_assert_eq!(d.intern(term), expect);
    }
    prop_assert_eq!(d.len(), by_id.len());
    prop_assert_eq!(d.is_empty(), by_id.is_empty());
    for (id, term) in (0u32..).zip(&by_id) {
        prop_assert_eq!(d.resolve(id), term.as_str());
        prop_assert_eq!(d.try_resolve(id), Some(term.as_str()));
        prop_assert_eq!(d.get(term), Some(id));
        // A term one byte longer than an interned one is not interned
        // unless the model says so.
        let longer = format!("{term}\u{0}");
        prop_assert_eq!(d.get(&longer), ids.get(&longer).copied());
    }
    let end = u32::try_from(by_id.len()).unwrap();
    prop_assert_eq!(d.try_resolve(end), None);
    let listed: Vec<(u32, &str)> = d.iter().collect();
    let model: Vec<(u32, &str)> = (0u32..).zip(by_id.iter().map(String::as_str)).collect();
    prop_assert_eq!(&listed, &model);

    // A clone is equal, and independent of the original.
    let mut copy = d.clone();
    prop_assert_eq!(copy.iter().collect::<Vec<_>>(), model.clone());
    for (id, term) in &model {
        prop_assert_eq!(copy.get(term), Some(*id));
    }
    let fresh = "\u{1}not in the model";
    prop_assert_eq!(copy.intern(fresh), end);
    prop_assert_eq!(copy.get(fresh), Some(end));
    prop_assert_eq!(d.get(fresh), None);
    prop_assert_eq!(d.len(), by_id.len());
    Ok(())
}

/// The model check over runs of thousands of terms, which cross several
/// table growths, with every term also interned again later.
#[test]
fn dictionary_model_over_table_growths() {
    for n in [0usize, 1, 7, 8, 9, 1_000, 5_000] {
        let terms: Vec<String> = (0..n)
            .map(|i| match i % 4 {
                0 => format!("http://example.org/v{i}"),
                1 => "é中".repeat(i % 5),
                2 => "a".repeat(i % 64),
                _ => format!("{}", i / 2),
            })
            .collect();
        let twice: Vec<String> = terms.iter().chain(terms.iter().rev()).cloned().collect();
        check_dictionary_model(&twice).unwrap_or_else(|e| panic!("{n} terms: {e}"));
    }
}

/// `quality` as it was computed before it built its own adjacency: from
/// the undirected view of a full [`HeteroGraph`].
fn quality_via_hetero_graph(kg: &KnowledgeGraph, targets: &[Vid]) -> SubgraphQuality {
    let g = HeteroGraph::build(kg);
    let n = kg.num_nodes();
    let target_set = NodeSet::from_iter(n, targets.iter().copied());
    let dist = distances_to_targets(&g, targets);
    let (mut reachable, mut unreachable, mut dist_sum) = (0usize, 0usize, 0u64);
    for (v, &d) in dist.iter().enumerate() {
        if target_set.contains(Vid(v as u32)) {
            continue;
        }
        if d == u32::MAX {
            unreachable += 1;
        } else {
            reachable += 1;
            dist_sum += u64::from(d);
        }
    }
    let pct = |part: usize, whole: usize| {
        if whole == 0 {
            0.0
        } else {
            100.0 * part as f64 / whole as f64
        }
    };
    SubgraphQuality {
        num_nodes: n,
        num_triples: kg.num_triples(),
        target_count: target_set.len(),
        target_ratio_pct: pct(target_set.len(), n),
        num_classes: live_classes(kg),
        num_relations: live_relations(kg),
        target_disconnected_pct: pct(unreachable, reachable + unreachable),
        avg_dist_to_target: if reachable == 0 {
            0.0
        } else {
            dist_sum as f64 / reachable as f64
        },
        avg_entropy: neighbor_type_entropy(&g),
    }
}

/// Field-for-field equality, `f64`s compared bit for bit.
fn same_quality(a: &SubgraphQuality, b: &SubgraphQuality) -> bool {
    let counts = |q: &SubgraphQuality| {
        [q.num_nodes, q.num_triples, q.target_count, q.num_classes, q.num_relations]
    };
    let ratios = |q: &SubgraphQuality| {
        [q.target_ratio_pct, q.target_disconnected_pct, q.avg_dist_to_target, q.avg_entropy]
            .map(f64::to_bits)
    };
    counts(a) == counts(b) && ratios(a) == ratios(b)
}

/// The compaction as it was before it used id tables: every term interned
/// by lookup, triples sorted and deduplicated first.
fn compact_by_terms(kg: &KnowledgeGraph, triples: &[Triple], extra: &[Vid]) -> InducedSubgraph {
    let mut keep = NodeSet::new(kg.num_nodes());
    for t in triples {
        keep.insert(t.s);
        keep.insert(t.o);
    }
    for &v in extra {
        keep.insert(v);
    }
    let mut sub = KnowledgeGraph::new();
    let mut from_parent = vec![None; kg.num_nodes()];
    let mut to_parent = Vec::new();
    for v in keep.iter() {
        from_parent[v.idx()] = Some(sub.add_node(kg.node_term(v), kg.class_term(kg.class_of(v))));
        to_parent.push(v);
    }
    let mut sorted = triples.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    for t in sorted {
        let p = sub.add_relation(kg.relation_term(t.p));
        sub.add_triple(from_parent[t.s.idx()].unwrap(), p, from_parent[t.o.idx()].unwrap());
    }
    InducedSubgraph { kg: sub, to_parent, from_parent }
}

/// Sorted by `(s, p, o)`, each triple once: the invariant every
/// `KnowledgeGraph` keeps.
fn strictly_ascending(triples: &[Triple]) -> bool {
    triples.windows(2).all(|w| w[0] < w[1])
}

/// `kg`'s vertices and relations, with the same ids, and no triples.
fn terms_only(kg: &KnowledgeGraph) -> KnowledgeGraph {
    let mut out = KnowledgeGraph::new();
    for v in 0..kg.num_nodes() as u32 {
        out.add_node(kg.node_term(Vid(v)), kg.class_term(kg.class_of(Vid(v))));
    }
    for (_, term) in kg.relations() {
        out.add_relation(term);
    }
    out
}

/// `items` in a seeded xorshift shuffle.
fn shuffled<T: Copy>(items: &[T], seed: u64) -> Vec<T> {
    let mut out = items.to_vec();
    let mut state = seed | 1;
    for i in (1..out.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        out.swap(i, (state % (i as u64 + 1)) as usize);
    }
    out
}

fn snapshot(kg: &KnowledgeGraph) -> Vec<u8> {
    let mut buf = Vec::new();
    write_snapshot(kg, &mut buf).unwrap();
    buf
}

#[test]
fn quality_of_the_empty_graph_matches_the_hetero_graph_recomputation() {
    let kg = KnowledgeGraph::new();
    assert!(same_quality(&quality(&kg, &[]), &quality_via_hetero_graph(&kg, &[])));
}

proptest! {
    /// `quality` is, field for field and bit for bit, what the full
    /// `HeteroGraph`'s undirected view gives — over graphs with isolated
    /// vertices, with and without (duplicate) targets.
    #[test]
    fn quality_matches_the_hetero_graph_recomputation(
        kg in arb_kg(),
        picks in proptest::collection::vec(0usize..40, 0..8),
    ) {
        let targets: Vec<Vid> = picks.iter().map(|&i| Vid((i % kg.num_nodes()) as u32)).collect();
        let got = quality(&kg, &targets);
        let want = quality_via_hetero_graph(&kg, &targets);
        prop_assert!(same_quality(&got, &want), "{:?} != {:?}", got, want);
    }

    /// Shuffled, duplicated triples compact to the same snapshot bytes,
    /// parent mapping and dictionary order as the sorted set — and to what
    /// interning every term by lookup gives.
    #[test]
    fn compaction_ignores_input_order_and_duplicates(
        kg in arb_kg(),
        mask in proptest::collection::vec(any::<bool>(), 1..40),
        extra in proptest::collection::vec(0usize..40, 0..4),
        seed in any::<u64>(),
    ) {
        let picked: Vec<Triple> = kg
            .triples()
            .iter()
            .enumerate()
            .filter(|(i, _)| mask[i % mask.len()])
            .map(|(_, &t)| t)
            .collect();
        let extra: Vec<Vid> = extra.iter().map(|&i| Vid((i % kg.num_nodes()) as u32)).collect();
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        // Every picked triple twice, in a seeded shuffle.
        let mut shuffled: Vec<Triple> = picked.iter().chain(&picked).copied().collect();
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            shuffled.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let from_sorted = subgraph_from_triples_and_nodes(&kg, &sorted, &extra);
        let reference = compact_by_terms(&kg, &shuffled, &extra);
        for sub in [subgraph_from_triples_and_nodes(&kg, &shuffled, &extra), reference] {
            prop_assert_eq!(snapshot(&sub.kg), snapshot(&from_sorted.kg));
            prop_assert_eq!(&sub.to_parent, &from_sorted.to_parent);
            prop_assert_eq!(&sub.from_parent, &from_sorted.from_parent);
            prop_assert!(sub.kg.relations().eq(from_sorted.kg.relations()));
            prop_assert!(sub.kg.classes().eq(from_sorted.kg.classes()));
        }
    }

    /// Every way of building a graph leaves its triples strictly
    /// ascending: `add_triple` in random order with repeats (both `arb_kg`
    /// and a shuffled, doubled replay here), the bulk `extend_triples` in
    /// one call or two interleaving ones, a snapshot round trip, both
    /// compactions, and `apply_delta`.
    #[test]
    fn every_construction_path_keeps_a_sorted_set(
        kg in arb_kg(),
        mask in proptest::collection::vec(any::<bool>(), 1..40),
        ops in proptest::collection::vec((0u8..3, 0usize..64, 0usize..4, 0usize..64), 0..16),
        seed in any::<u64>(),
    ) {
        prop_assert!(strictly_ascending(kg.triples()));
        let replay: Vec<Triple> = shuffled(&[kg.triples(), kg.triples()].concat(), seed);

        let mut one_by_one = terms_only(&kg);
        for t in &replay {
            one_by_one.add_triple(t.s, t.p, t.o);
        }
        prop_assert_eq!(one_by_one.triples(), kg.triples());
        let mut bulk = terms_only(&kg);
        bulk.extend_triples(replay.iter().copied());
        prop_assert_eq!(bulk.triples(), kg.triples());
        let (first, second) = replay.split_at(replay.len() / 2);
        let mut merged = terms_only(&kg);
        merged.extend_triples(first.iter().copied());
        merged.extend_triples(second.iter().copied());
        prop_assert_eq!(merged.triples(), kg.triples());

        let back = read_snapshot(std::io::Cursor::new(snapshot(&kg))).unwrap();
        prop_assert_eq!(back.triples(), kg.triples());

        let keep = NodeSet::from_iter(
            kg.num_nodes(),
            (0..kg.num_nodes()).filter(|&v| mask[v % mask.len()]).map(|v| Vid(v as u32)),
        );
        prop_assert!(strictly_ascending(induced_subgraph(&kg, &keep).kg.triples()));
        let picked: Vec<Triple> =
            replay.iter().copied().filter(|t| keep.contains(t.s)).collect();
        let sub = subgraph_from_triples_and_nodes(&kg, &picked, &[]);
        prop_assert!(strictly_ascending(sub.kg.triples()));

        // Removes of present triples, adds of absent ones (some to fresh
        // vertices), and remove-then-add of one triple.
        let term = |i: usize| format!("n{}", i % (kg.num_nodes() + 2));
        let mut live: Vec<(String, String, String)> = kg
            .triples()
            .iter()
            .map(|t| (kg.node_term(t.s).into(), kg.relation_term(t.p).into(), kg.node_term(t.o).into()))
            .collect();
        let mut delta_ops = Vec::new();
        for (kind, a, r, b) in ops {
            let t = (term(a), format!("r{r}"), term(b));
            let present = live.iter().position(|x| *x == t);
            match (kind, present) {
                (0, Some(at)) => {
                    live.swap_remove(at);
                    delta_ops.push(DeltaOp::Remove { s: t.0, p: t.1, o: t.2 });
                }
                (1, Some(_)) => {
                    delta_ops.push(DeltaOp::Remove { s: t.0.clone(), p: t.1.clone(), o: t.2.clone() });
                    delta_ops.push(DeltaOp::Add { s: t.0, s_class: "C0".into(), p: t.1, o: t.2, o_class: "C0".into() });
                }
                (_, None) => {
                    live.push(t.clone());
                    delta_ops.push(DeltaOp::Add { s: t.0, s_class: "C0".into(), p: t.1, o: t.2, o_class: "C0".into() });
                }
                _ => {}
            }
        }
        let fp = fingerprint(&kg);
        let delta = KgDelta { base_fingerprint: fp, ops: delta_ops };
        let app = apply_delta(&kg, fp, MultisetFingerprint::of(&kg), &delta).unwrap();
        prop_assert!(strictly_ascending(app.kg.triples()));
        prop_assert_eq!(app.kg.num_triples(), live.len());
        prop_assert_eq!(app.multiset, MultisetFingerprint::of(&app.kg));
    }

    /// Interning any sequence of strings matches the model dictionary:
    /// short terms over two letters (the empty term, and terms that are
    /// prefixes of one another), printable terms with multi-byte
    /// characters, and longer ASCII terms.
    #[test]
    fn dictionary_bijection(
        short in proptest::collection::vec("[ab]{0,3}", 0..60),
        printable in proptest::collection::vec("\\PC{0,6}", 0..60),
        long in proptest::collection::vec("[a-z]{1,12}", 0..60),
    ) {
        let terms: Vec<String> = short
            .iter()
            .zip(&printable)
            .zip(&long)
            .flat_map(|((a, b), c)| [a, b, c, a])
            .cloned()
            .collect();
        check_dictionary_model(&terms)?;
    }

    /// Sum of per-vertex, per-relation out-degrees equals the triple count,
    /// and the undirected view stores exactly twice the triples.
    #[test]
    fn csr_degree_sums(kg in arb_kg()) {
        let g = HeteroGraph::build(&kg);
        let out_sum: usize = (0..g.num_relations())
            .flat_map(|r| {
                let out = &g.relation(kgtosa_kg::Rid(r as u32)).out;
                (0..g.num_nodes()).map(|v| out.degree(Vid(v as u32)))
            })
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
                g.undirected().targets(),
                base.undirected().targets(),
                "undirected targets, threads={threads}"
            );
            assert_eq!(
                g.undirected().active_rows(),
                base.undirected().active_rows(),
                "undirected active rows, threads={threads}"
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
