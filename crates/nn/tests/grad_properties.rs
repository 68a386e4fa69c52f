//! Property-based gradient checks: analytic backward passes must match
//! central finite differences on random shapes and values.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use kgtosa_nn::Linear;
use kgtosa_tensor::{softmax_cross_entropy, softmax_rows, xavier_uniform, Matrix};

fn arb_matrix(max_r: usize, max_c: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_r, 1..=max_c).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-2.0f32..2.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// softmax rows always form a probability distribution.
    #[test]
    fn softmax_is_distribution(m in arb_matrix(6, 6)) {
        let s = softmax_rows(&m);
        for r in 0..s.rows() {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(r).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    /// Cross-entropy gradient matches finite differences.
    #[test]
    fn ce_gradient_check(m in arb_matrix(4, 5), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let labels: Vec<u32> = (0..m.rows()).map(|_| rng.gen_range(0..m.cols()) as u32).collect();
        let (_, grad) = softmax_cross_entropy(&m, &labels);
        let eps = 1e-2f32;
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                let mut mp = m.clone();
                mp.set(r, c, m.get(r, c) + eps);
                let mut mm = m.clone();
                mm.set(r, c, m.get(r, c) - eps);
                let (lp, _) = softmax_cross_entropy(&mp, &labels);
                let (lm, _) = softmax_cross_entropy(&mm, &labels);
                let num = (lp - lm) / (2.0 * eps);
                prop_assert!((num - grad.get(r, c)).abs() < 5e-2,
                    "({r},{c}): num {num} vs {}", grad.get(r, c));
            }
        }
    }

    /// Linear backward input-gradient matches finite differences under a
    /// quadratic loss.
    #[test]
    fn linear_gradient_check(seed in 0u64..1000, rows in 1usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let layer = Linear::new(3, 2, &mut rng);
        let x = xavier_uniform(rows, 3, &mut rng);
        let loss = |x: &Matrix| -> f32 {
            layer.forward(x).data().iter().map(|&v| v * v).sum()
        };
        let y = layer.forward(&x);
        let mut grad_out = y.clone();
        grad_out.scale(2.0);
        let (grad_x, _) = layer.backward(&x, &grad_out);
        let eps = 1e-2f32;
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
                prop_assert!((num - grad_x.get(r, c)).abs() < 5e-2 * (1.0 + num.abs()));
            }
        }
    }
}

/// Determinism of the parallel aggregation kernels: identical bits at
/// every thread count, and identical to a naive serial reference.
mod parallel_determinism {
    use super::*;
    use kgtosa_kg::{Cid, HeteroGraph, KnowledgeGraph, Rid, Triple, Vid};
    use kgtosa_nn::{mean_aggregate, RgcnGrads, RgcnLayer};
    use kgtosa_par::with_threads;
    use kgtosa_tensor::{relu_backward, relu_inplace, set_simd_level, simd_level, SimdLevel};
    use rand::Rng;

    /// The pre-parallel serial semantics of mean aggregation.
    fn reference_mean_aggregate(
        csr: &kgtosa_kg::Csr,
        h: &Matrix,
        out: &mut Matrix,
    ) {
        out.fill_zero();
        let d = h.cols();
        for i in 0..csr.num_nodes() {
            let nbrs = csr.neighbors(Vid(i as u32));
            if nbrs.is_empty() {
                continue;
            }
            let inv = 1.0 / nbrs.len() as f32;
            let out_row = out.row_mut(i);
            for &j in nbrs {
                let src = h.row(j as usize);
                for k in 0..d {
                    out_row[k] += inv * src[k];
                }
            }
        }
    }

    fn random_graph(nodes: usize, edges: usize, seed: u64) -> HeteroGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut kg = KnowledgeGraph::new();
        for i in 0..nodes {
            kg.add_node(&format!("n{i}"), "N");
        }
        for _ in 0..edges {
            let s = rng.gen_range(0..nodes);
            let o = rng.gen_range(0..nodes);
            kg.add_triple_terms(&format!("n{s}"), "N", "r", &format!("n{o}"), "N");
        }
        HeteroGraph::build(&kg)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// mean_aggregate: bit-identical to the reference at 1/2/4/8 threads.
        #[test]
        fn mean_aggregate_bit_identical(nodes in 1usize..600,
                                        edge_factor in 0usize..6,
                                        dim in 1usize..24,
                                        seed in 0u64..1000) {
            let g = random_graph(nodes, nodes * edge_factor, seed);
            let h = xavier_uniform(g.num_nodes(), dim, &mut StdRng::seed_from_u64(seed ^ 1));
            let csr = &g.relation(Rid(0)).inc;
            let mut expect = Matrix::zeros(g.num_nodes(), dim);
            reference_mean_aggregate(csr, &h, &mut expect);
            for threads in [1usize, 2, 4, 8] {
                let mut got = Matrix::zeros(g.num_nodes(), dim);
                with_threads(threads, || mean_aggregate(csr, &h, &mut got));
                prop_assert_eq!(got.data(), expect.data(), "threads={}", threads);
            }
        }

        /// Full RGCN forward + backward: bit-identical across thread counts
        /// (covers add_matmul, matmul*, and the gather-form grad_h path).
        #[test]
        fn rgcn_pass_bit_identical(nodes in 2usize..200, seed in 0u64..1000) {
            let g = random_graph(nodes, nodes * 3, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 7);
            let layer = kgtosa_nn::RgcnLayer::new(g.num_relations(), 8, 8, true, &mut rng);
            let h = xavier_uniform(g.num_nodes(), 8, &mut rng);
            let run = || {
                let (out, cache) = layer.forward(&g, &h);
                let (grad_h, grads) = layer.backward(&g, &h, &cache, out.clone());
                (out, grad_h, grads)
            };
            let (out1, gh1, g1) = with_threads(1, run);
            for threads in [2usize, 4, 8] {
                let (out, gh, gp) = with_threads(threads, run);
                prop_assert_eq!(out.data(), out1.data(), "out threads={}", threads);
                prop_assert_eq!(gh.data(), gh1.data(), "grad_h threads={}", threads);
                prop_assert_eq!(gp.w_self.data(), g1.w_self.data());
                for (a, b) in gp.w_fwd.iter().zip(&g1.w_fwd) {
                    prop_assert_eq!(a.data(), b.data());
                }
            }
        }
    }

    /// A *typed* random graph — what `random_graph`'s single class and
    /// relation cannot produce: most rows of most relations have no
    /// neighbour. Classes own stripes of `stripe` consecutive ids handed
    /// out round-robin, so one class (and with it a relation's active
    /// rows) sits in several non-adjacent id ranges; 4–10 relations each
    /// join one class pair, from a handful of edges up to a few per source
    /// vertex, with duplicates; one vertex in seven takes part in none of
    /// them; the second-to-last relation has no edges at all, and with
    /// `ring` the last one touches every vertex in both directions.
    fn typed_graph(nodes: usize, stripe: usize, ring: bool, seed: u64) -> HeteroGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let classes = rng.gen_range(3..=6usize);
        let class_of = |v: usize| (v / stripe) % classes;
        let node_class: Vec<Cid> = (0..nodes).map(|v| Cid(class_of(v) as u32)).collect();
        let mut members = vec![Vec::new(); classes];
        for v in (0..nodes).filter(|v| v % 7 != 3) {
            members[class_of(v)].push(Vid(v as u32));
        }
        let typed = rng.gen_range(4..=10u32);
        let mut triples = Vec::new();
        for p in 0..typed {
            let from = &members[rng.gen_range(0..classes)];
            let to = &members[rng.gen_range(0..classes)];
            if from.is_empty() || to.is_empty() {
                continue;
            }
            let edges = if p % 3 == 0 {
                rng.gen_range(1..8usize)
            } else {
                from.len() * rng.gen_range(1..4usize)
            };
            for _ in 0..edges {
                let t = Triple {
                    s: from[rng.gen_range(0..from.len())],
                    p: Rid(p),
                    o: to[rng.gen_range(0..to.len())],
                };
                triples.push(t);
                if rng.gen_range(0..10) == 0 {
                    triples.push(t);
                }
            }
        }
        if ring {
            for v in 0..nodes {
                triples.push(Triple {
                    s: Vid(v as u32),
                    p: Rid(typed + 1),
                    o: Vid(((v + 1) % nodes) as u32),
                });
            }
        }
        HeteroGraph::from_triples(nodes, typed as usize + 2, classes, node_class, &triples)
    }

    /// A hub-heavy graph: relation 0 points every vertex but one in five at
    /// one of three hubs (so a hub's neighbour list is ≈ |V|/4 long and a
    /// request that touches a hub reads most of the graph), relation 1 is a
    /// sparse random relation with duplicates, relation 2 has no edges.
    fn hub_graph(nodes: usize, seed: u64) -> HeteroGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let hubs = [Vid(0), Vid((nodes / 2) as u32), Vid((nodes - 1) as u32)];
        let mut triples = Vec::new();
        for v in (0..nodes).filter(|v| v % 5 != 2) {
            triples.push(Triple { s: Vid(v as u32), p: Rid(0), o: hubs[rng.gen_range(0..3usize)] });
        }
        for _ in 0..nodes / 2 {
            let s = Vid(rng.gen_range(0..nodes) as u32);
            let o = Vid(rng.gen_range(0..nodes) as u32);
            triples.push(Triple { s, p: Rid(1), o });
            if rng.gen_range(0..4) == 0 {
                triples.push(Triple { s, p: Rid(1), o });
            }
        }
        HeteroGraph::from_triples(nodes, 3, 1, vec![Cid(0); nodes], &triples)
    }

    /// `forward_rows_arena` ≡ the same rows of `forward`, as `u32` bit
    /// patterns, and its work count ≡ the rows' degrees summed over the
    /// per-relation CSRs — for the empty request, every vertex, and random
    /// subsets that include isolated vertices, in shuffled order, at 1/2/4/8
    /// threads (the first and last graph put the larger requests past
    /// `MIN_PAR_WORK`, in several row blocks); once against the full input
    /// and once against an input that holds only the rows of the request and
    /// its neighbours (how a second layer is fed).
    #[test]
    fn rows_restricted_forward_matches_forward_bit_for_bit() {
        const ABSENT: u32 = u32::MAX;
        // (graph, in_dim, out_dim, relu)
        let cases = [
            (typed_graph(4_300, 700, true, 61), 64usize, 64usize, true),
            (typed_graph(2_300, 600, false, 62), 16, 5, false),
            (typed_graph(61, 9, false, 63), 8, 3, true),
            (hub_graph(4_000, 64), 32, 16, true),
        ];
        for (case, (g, din, dout, relu)) in cases.iter().enumerate() {
            let n = g.num_nodes();
            let mut rng = StdRng::seed_from_u64(70 + case as u64);
            let layer = RgcnLayer::new(g.num_relations(), *din, *dout, *relu, &mut rng);
            let h = xavier_uniform(n, *din, &mut rng);
            let want = layer.forward(g, &h).0;
            let isolated: Vec<u32> = (0..n as u32)
                .filter(|&v| g.undirected().degree(Vid(v)) == 0)
                .collect();
            let mut requests: Vec<Vec<u32>> = vec![Vec::new(), (0..n as u32).collect()];
            for size in [1, 7, n / 10, n / 2] {
                let mut all: Vec<u32> = (0..n as u32).collect();
                for i in 0..size {
                    let j = rng.gen_range(i..n);
                    all.swap(i, j);
                }
                all.truncate(size);
                if let Some(&lonely) = isolated.first() {
                    if !all.contains(&lonely) {
                        all.push(lonely);
                    }
                }
                requests.push(all);
            }
            for rows in &requests {
                // The request first, then its neighbours: `pos` inverts both
                // `rows` (positions below `rows.len()`) and the closure.
                let mut pos = vec![ABSENT; n];
                let mut closure = Vec::new();
                let enter = |v: u32, pos: &mut Vec<u32>, closure: &mut Vec<u32>| {
                    if pos[v as usize] == ABSENT {
                        pos[v as usize] = closure.len() as u32;
                        closure.push(v);
                    }
                };
                rows.iter().for_each(|&v| enter(v, &mut pos, &mut closure));
                for &v in rows {
                    for &j in g.undirected().neighbors(Vid(v)) {
                        enter(j, &mut pos, &mut closure);
                    }
                }
                let h_closure = h.gather_rows(&closure);
                let expect = want.gather_rows(rows);
                let expect_visits: u64 = (0..g.num_relations())
                    .map(|r| g.relation(Rid(r as u32)))
                    .flat_map(|adj| rows.iter().map(|&v| adj.inc.degree(Vid(v)) + adj.out.degree(Vid(v))))
                    .sum::<usize>() as u64;
                for threads in [1usize, 2, 4, 8] {
                    let mut arena = kgtosa_tensor::ScratchArena::new();
                    let (full_in, compact_in) = with_threads(threads, || {
                        (
                            layer.forward_rows_arena(g, &h, None, rows, &pos, &mut arena),
                            layer.forward_rows_arena(g, &h_closure, Some(&pos), rows, &pos, &mut arena),
                        )
                    });
                    let what = format!("case {case}, {} rows, threads={threads}", rows.len());
                    for (got, visits) in [full_in, compact_in] {
                        assert_eq!(got.shape(), expect.shape(), "{what}");
                        assert_eq!(bits(got.data()), bits(expect.data()), "{what}");
                        assert_eq!(visits, expect_visits, "{what}");
                    }
                }
            }
        }
    }

    /// Everything one forward + backward pass of a layer produces.
    struct Pass {
        out: Matrix,
        grad_h: Matrix,
        grads: RgcnGrads,
    }

    /// The dense per-relation formulation of [`RgcnLayer`], assembled from
    /// the public kernels only: every relation-direction aggregates into a
    /// zero-filled |V|-row matrix and multiplies all |V| rows. The oracle
    /// the layer's row-compact kernels must match bit for bit.
    fn dense_oracle(layer: &RgcnLayer, g: &HeteroGraph, h: &Matrix, grad_out: &Matrix) -> Pass {
        let n = g.num_nodes();
        let (din, dout) = (layer.in_dim(), layer.out_dim());
        let directions = |r: usize| {
            let adj = g.relation(Rid(r as u32));
            [(&adj.inc, &adj.out, &layer.w_fwd[r]), (&adj.out, &adj.inc, &layer.w_rev[r])]
        };

        let mut out = h.matmul(&layer.w_self);
        let mut agg = Matrix::zeros(n, din);
        for r in 0..g.num_relations() {
            for (csr, _, w) in directions(r) {
                if csr.num_edges() > 0 {
                    mean_aggregate(csr, h, &mut agg);
                    agg.matmul_acc_into(w, &mut out);
                }
            }
        }
        for row in 0..n {
            for (v, &b) in out.row_mut(row).iter_mut().zip(&layer.b) {
                *v += b;
            }
        }
        let mask = layer.relu.then(|| relu_inplace(&mut out));

        let mut grad_out = grad_out.clone();
        if let Some(mask) = &mask {
            relu_backward(&mut grad_out, mask);
        }
        let mut b = vec![0.0f32; dout];
        for row in 0..n {
            for (gb, &v) in b.iter_mut().zip(grad_out.row(row)) {
                *gb += v;
            }
        }
        let mut grad_h = grad_out.matmul_t(&layer.w_self);
        let w_self = h.t_matmul(&grad_out);
        let mut scratch = Matrix::zeros(n, din);
        let (mut w_fwd, mut w_rev) = (Vec::new(), Vec::new());
        for r in 0..g.num_relations() {
            for (dir, (csr, csr_t, w)) in directions(r).into_iter().enumerate() {
                let mut grad_w = Matrix::zeros(din, dout);
                if csr.num_edges() > 0 {
                    mean_aggregate(csr, h, &mut agg);
                    agg.t_matmul_into(&grad_out, &mut grad_w);
                    grad_out.matmul_t_into(w, &mut scratch);
                    // grad_h[j] += Σ_{i ∈ csr_t(j)} scratch[i] / |csr(i)|,
                    // each element in neighbour order, unfused.
                    for j in 0..n {
                        for &i in csr_t.neighbors(Vid(j as u32)) {
                            let inv = 1.0 / csr.degree(Vid(i)) as f32;
                            let src = scratch.row(i as usize);
                            #[allow(clippy::assign_op_pattern)]
                            for (d, &s) in grad_h.row_mut(j).iter_mut().zip(src) {
                                *d = s * inv + *d;
                            }
                        }
                    }
                }
                if dir == 0 { &mut w_fwd } else { &mut w_rev }.push(grad_w);
            }
        }
        Pass { out, grad_h, grads: RgcnGrads { w_fwd, w_rev, w_self, b } }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn assert_same_bits(got: &Pass, want: &Pass, what: &str) {
        assert_eq!(bits(got.out.data()), bits(want.out.data()), "out, {what}");
        assert_eq!(bits(got.grad_h.data()), bits(want.grad_h.data()), "grad_h, {what}");
        assert_eq!(bits(got.grads.w_self.data()), bits(want.grads.w_self.data()), "w_self, {what}");
        assert_eq!(bits(&got.grads.b), bits(&want.grads.b), "b, {what}");
        assert_eq!(got.grads.w_fwd.len(), want.grads.w_fwd.len());
        for (r, (a, b)) in got.grads.w_fwd.iter().zip(&want.grads.w_fwd).enumerate() {
            assert_eq!(bits(a.data()), bits(b.data()), "w_fwd[{r}], {what}");
        }
        for (r, (a, b)) in got.grads.w_rev.iter().zip(&want.grads.w_rev).enumerate() {
            assert_eq!(bits(a.data()), bits(b.data()), "w_rev[{r}], {what}");
        }
    }

    /// `RgcnLayer` ≡ the dense oracle as `u32` bit patterns — output, input
    /// gradient and every parameter gradient — at 1/2/4/8 threads and both
    /// SIMD levels. The shapes put |V| past `chunk_rows(max(c, n))` (512
    /// rows at d = 64, 2048 at d = 16), so `Aᵀ·B` runs its chunked
    /// reduction, and the class stripes leave whole chunks without an
    /// active row; the last shape stays inside one chunk.
    #[test]
    fn rgcn_layer_matches_dense_oracle_bit_for_bit() {
        let restore = simd_level();
        // (nodes, stripe, in_dim, out_dim, relu)
        let shapes = [
            (1_150usize, 190usize, 64usize, 64usize, true),
            (4_300, 700, 16, 16, true),
            (2_300, 600, 16, 5, false),
            (61, 9, 8, 3, true),
        ];
        for (case, &(nodes, stripe, din, dout, relu)) in shapes.iter().enumerate() {
            for ring in [false, true] {
                let seed = 40 + case as u64 * 2 + ring as u64;
                let g = typed_graph(nodes, stripe, ring, seed);
                let mut rng = StdRng::seed_from_u64(seed ^ 0xd1ff);
                let layer = RgcnLayer::new(g.num_relations(), din, dout, relu, &mut rng);
                let h = xavier_uniform(nodes, din, &mut rng);
                let grad_out = xavier_uniform(nodes, dout, &mut rng);
                let want = dense_oracle(&layer, &g, &h, &grad_out);
                for level in [SimdLevel::Portable, SimdLevel::Avx2] {
                    if set_simd_level(level).is_err() {
                        continue;
                    }
                    for threads in [1usize, 2, 4, 8] {
                        let got = with_threads(threads, || {
                            let (out, cache) = layer.forward(&g, &h);
                            let (grad_h, grads) = layer.backward(&g, &h, &cache, grad_out.clone());
                            Pass { out, grad_h, grads }
                        });
                        let what = format!(
                            "{nodes} nodes d={din}x{dout} ring={ring} {} threads={threads}",
                            level.name()
                        );
                        assert_same_bits(&got, &want, &what);
                    }
                }
            }
        }
        set_simd_level(restore).unwrap();
    }
}
