//! `kernels` — serial vs parallel wall time for the `kgtosa-par` kernel
//! layer: dense matmul (all three transpose variants), RGCN mean
//! aggregation, one whole RGCN layer pass over a typed KG, batched PPR, IBS
//! node selection, task-oriented inference (`predict_nodes` against the full
//! forward, along the MAG scale ladder), the RDF store's index build (along
//! the same ladder), and CSR construction, each at 1/2/4/8 threads (capped by
//! `KGTOSA_THREADS`, so CI can produce a single-thread row set and an
//! 8-thread row set from the same bin).
//!
//! Every measurement re-checks the determinism contract: the output at
//! every thread count must be bit-identical to the single-threaded run.
//! The dense kernels are additionally timed against retained *naive*
//! reference loops (the pre-blocking serial semantics), so
//! `speedup_vs_naive` records what cache blocking + SIMD bought on one
//! core, independent of thread scaling. Rows carry the problem size,
//! warmup count and the machine's `available_parallelism`, so a baseline
//! recorded on a core-starved box reads as what it is.
//!
//! Results go to `BENCH_kernels.json` in the working directory; CI gates
//! a fresh run against the committed copy with `kgtosa trace-diff`.

use kgtosa_datagen::Dataset;
use kgtosa_kg::{Csr, HeteroGraph, KnowledgeGraph, Rid, Triple, Vid};
use kgtosa_models::{NcModelShape, RgcnNcModel};
use kgtosa_nn::{mean_aggregate, RgcnGrads, RgcnLayer};
use kgtosa_par::with_threads;
use kgtosa_rdf::RdfStore;
use kgtosa_sampler::ppr::approximate_ppr_reference;
use kgtosa_sampler::{approximate_ppr_batch, ibs_sample, IbsConfig, PprConfig};
use kgtosa_tensor::{relu_backward, relu_inplace, xavier_uniform, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 5;
/// Untimed iterations per thread count before measurement starts.
const WARMUP: usize = 1;

#[derive(Debug)]
struct KernelRow {
    kernel: String,
    threads: usize,
    seconds: f64,
    speedup_vs_serial: f64,
    /// Naive-reference serial seconds / this row's seconds; 1.0 for
    /// kernels without a retained naive reference.
    speedup_vs_naive: f64,
    problem: String,
    warmup: usize,
    available_parallelism: usize,
}

kgtosa_obs::json_row!(KernelRow {
    kernel,
    threads,
    seconds,
    speedup_vs_serial,
    speedup_vs_naive,
    problem,
    warmup,
    available_parallelism,
});

/// What `BENCH_kernels.json` holds. Speedups only materialize up to the
/// machine's core count; recording it lets results from core-starved
/// machines read as what they are.
struct Report {
    available_parallelism: usize,
    rows: Vec<KernelRow>,
}

kgtosa_obs::json_row!(Report { available_parallelism, rows });

/// Thread counts this run measures: `THREAD_COUNTS` capped by
/// `KGTOSA_THREADS` when set (the cap itself is included, so e.g. `=3`
/// measures 1/2/3).
fn thread_counts() -> Vec<usize> {
    let cap = std::env::var("KGTOSA_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map(|n| n.max(1));
    match cap {
        None => THREAD_COUNTS.to_vec(),
        Some(cap) => {
            let mut counts: Vec<usize> =
                THREAD_COUNTS.iter().copied().filter(|&t| t <= cap).collect();
            if !counts.contains(&cap) {
                counts.push(cap);
            }
            counts
        }
    }
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Best-of-`REPS` wall time of `run` at each thread count (after
/// `WARMUP` untimed calls), with a bit-identity check of the output
/// against the serial run. `naive_s` is the wall time of the retained
/// naive reference (serial), when the kernel has one.
fn bench_kernel<T: PartialEq + std::fmt::Debug>(
    name: &str,
    problem: &str,
    naive_s: Option<f64>,
    rows: &mut Vec<KernelRow>,
    run: impl FnMut() -> T,
) {
    bench_kernel_at(&thread_counts(), name, problem, naive_s, rows, run);
}

/// [`bench_kernel`] at the given thread counts only (`&[1]` for a kernel
/// that never enters the pool, whose other rows would be the same number).
fn bench_kernel_at<T: PartialEq + std::fmt::Debug>(
    thread_counts: &[usize],
    name: &str,
    problem: &str,
    naive_s: Option<f64>,
    rows: &mut Vec<KernelRow>,
    mut run: impl FnMut() -> T,
) {
    let mut serial_time = 0.0f64;
    let mut serial_out: Option<T> = None;
    for &threads in thread_counts {
        let mut best = f64::INFINITY;
        let mut out = None;
        for _ in 0..WARMUP {
            let _ = with_threads(threads, &mut run);
        }
        for _ in 0..REPS {
            let start = std::time::Instant::now();
            let value = with_threads(threads, &mut run);
            best = best.min(start.elapsed().as_secs_f64());
            out = Some(value);
        }
        let out = out.expect("at least one rep");
        match &serial_out {
            None => {
                serial_time = best;
                serial_out = Some(out);
            }
            Some(base) => assert!(
                base == &out,
                "{name}: output at {threads} threads differs from serial"
            ),
        }
        let speedup = serial_time / best;
        let vs_naive = naive_s.map(|n| n / best).unwrap_or(1.0);
        println!(
            "{name:<18} threads={threads}  {best:>8.4}s  speedup {speedup:>5.2}x  vs-naive {vs_naive:>5.2}x"
        );
        rows.push(KernelRow {
            kernel: name.to_string(),
            threads,
            seconds: best,
            speedup_vs_serial: speedup,
            speedup_vs_naive: vs_naive,
            problem: problem.to_string(),
            warmup: WARMUP,
            available_parallelism: available_parallelism(),
        });
    }
}

/// Times one serial run of a retained naive reference kernel and records
/// it as a `<name>` row at 1 thread (so trace-diff/trend track the
/// reference too, and the committed baseline documents what the blocked
/// kernels are compared against).
fn bench_naive<T>(name: &str, problem: &str, rows: &mut Vec<KernelRow>, mut run: impl FnMut() -> T) -> f64 {
    let _ = run();
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let start = std::time::Instant::now();
        let _ = run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    println!("{name:<18} threads=1  {best:>8.4}s  (naive reference)");
    rows.push(KernelRow {
        kernel: name.to_string(),
        threads: 1,
        seconds: best,
        speedup_vs_serial: 1.0,
        speedup_vs_naive: 1.0,
        problem: problem.to_string(),
        warmup: WARMUP,
        available_parallelism: available_parallelism(),
    });
    best
}

/// The pre-blocking `ikj` triple loop with the `a == 0.0` skip — the
/// serial semantics every `matmul` call had before the packed core.
fn naive_matmul(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    out.fill_zero();
    let n = b.cols();
    for i in 0..a.rows() {
        let a_row = a.row(i);
        for (k, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = b.row(k);
            let out_row = &mut out.data_mut()[i * n..(i + 1) * n];
            for j in 0..n {
                out_row[j] += av * b_row[j];
            }
        }
    }
}

/// The pre-strip scalar CSR walk `mean_aggregate` used to run.
fn naive_mean_aggregate(csr: &Csr, h: &Matrix, out: &mut Matrix) {
    out.fill_zero();
    let d = h.cols();
    for i in 0..csr.num_nodes() {
        let nbrs = csr.neighbors(Vid(i as u32));
        if nbrs.is_empty() {
            continue;
        }
        let inv = 1.0 / nbrs.len() as f32;
        let out_row = &mut out.data_mut()[i * d..(i + 1) * d];
        for &j in nbrs {
            let src = h.row(j as usize);
            for k in 0..d {
                out_row[k] += inv * src[k];
            }
        }
    }
}

/// Output, input gradient and every parameter gradient of one layer pass,
/// flattened for the bit-identity comparison.
fn flatten_pass(out: &Matrix, grad_h: &Matrix, grads: &RgcnGrads) -> Vec<f32> {
    let weights = grads.w_fwd.iter().chain(&grads.w_rev).chain([&grads.w_self]);
    let mut flat = [out.data(), grad_h.data(), &grads.b].concat();
    for w in weights {
        flat.extend_from_slice(w.data());
    }
    flat
}

/// One forward + backward pass of the dense per-relation formulation
/// `RgcnLayer` ran before its operands became row-compact, assembled from
/// the public kernels: every relation-direction aggregates into a
/// zero-filled |V|-row matrix and multiplies all |V| rows, and the gather
/// into `grad_h` scans every vertex.
fn naive_rgcn_layer(layer: &RgcnLayer, g: &HeteroGraph, h: &Matrix, grad_out: &Matrix) -> Vec<f32> {
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
    flatten_pass(&out, &grad_h, &RgcnGrads { w_fwd, w_rev, w_self, b })
}

/// The index build `RdfStore::new` ran before orderings were derived from
/// one another: the store's rows (data triples plus one `rdf:type` assertion
/// per vertex) permuted into each of the six component orders, each copy
/// comparison-sorted on its own. Returns the rows indexed.
fn naive_store_build(kg: &KnowledgeGraph) -> usize {
    let n = kg.num_nodes() as u32;
    let type_rel = kg.num_relations() as u32;
    let raw: Vec<[u32; 3]> = kg
        .triples()
        .iter()
        .map(|t| t.raw())
        .chain((0..n).map(|v| [v, type_rel, n + kg.class_of(Vid(v)).raw()]))
        .collect();
    let orders: [fn([u32; 3]) -> [u32; 3]; 6] = [
        |[s, p, o]| [s, p, o],
        |[s, p, o]| [s, o, p],
        |[s, p, o]| [p, s, o],
        |[s, p, o]| [p, o, s],
        |[s, p, o]| [o, s, p],
        |[s, p, o]| [o, p, s],
    ];
    let indices = orders.map(|permute| {
        let mut rows: Vec<[u32; 3]> = raw.iter().map(|&t| permute(t)).collect();
        rows.sort_unstable();
        rows.dedup();
        rows.into_boxed_slice()
    });
    std::hint::black_box(&indices)[0].len()
}

/// The model `benchmark/` serves (d = 16, seed 7), untrained: prediction
/// cost does not depend on the weights' values.
fn served_model(data: &Dataset, graph: &HeteroGraph) -> RgcnNcModel {
    RgcnNcModel::untrained(NcModelShape {
        nodes: graph.num_nodes(),
        relations: graph.num_relations(),
        dim: 16,
        num_labels: data.nc[0].num_labels,
        lr: 0.01,
        seed: 7,
    })
}

/// Times `predict_nodes` over `requests` against a full forward per
/// request (the `<name>_naive` row); both must predict the same classes.
fn bench_predict_nodes(
    name: &str,
    model: &RgcnNcModel,
    graph: &HeteroGraph,
    requests: &[Vec<Vid>],
    rows: &mut Vec<KernelRow>,
) {
    let problem = format!(
        "{}nx{}ex{}requestsx{}nodesxd16",
        graph.num_nodes(),
        graph.num_edges(),
        requests.len(),
        requests[0].len()
    );
    let full_forward = || {
        requests
            .iter()
            .map(|nodes| {
                let all = model.predict(graph);
                nodes.iter().map(|v| all[v.idx()]).collect::<Vec<u32>>()
            })
            .collect::<Vec<_>>()
    };
    let restricted = || {
        requests
            .iter()
            .map(|nodes| model.predict_nodes(graph, nodes))
            .collect::<Vec<_>>()
    };
    assert!(restricted() == full_forward(), "{name}: predict_nodes differs from the full forward");
    let naive = bench_naive(&format!("{name}_naive"), &problem, rows, || {
        with_threads(1, || full_forward().len())
    });
    bench_kernel(name, &problem, Some(naive), rows, restricted);
}

fn random_edges(n: u32, m: usize, rng: &mut StdRng) -> Vec<(u32, u32)> {
    (0..m).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))).collect()
}

/// A random KG big enough that 256 PPR pushes dominate graph build time.
fn ppr_graph(rng: &mut StdRng) -> HeteroGraph {
    let n = 20_000u32;
    let mut kg = KnowledgeGraph::with_capacity(n as usize, 120_000);
    for v in 0..n {
        kg.add_node(&format!("n{v}"), &format!("C{}", v % 4));
    }
    let r = kg.add_relation("r");
    let edges = random_edges(n, 120_000, rng).into_iter();
    kg.extend_triples(edges.map(|(s, o)| Triple::new(Vid(s), r, Vid(o))));
    HeteroGraph::build(&kg)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut rows: Vec<KernelRow> = Vec::new();

    // Dense matmul: 768³ ≈ 453M multiply-adds — big enough that thread
    // scaling and blocking both show (the old 384³ case finished in ~8ms,
    // under the noise floor of thread spawns).
    const MM: usize = 768;
    let mm_problem = format!("{MM}x{MM}x{MM}");
    let a = xavier_uniform(MM, MM, &mut rng);
    let b = xavier_uniform(MM, MM, &mut rng);
    let mut out = Matrix::zeros(MM, MM);
    let naive_mm = bench_naive("matmul_naive", &mm_problem, &mut rows, || {
        naive_matmul(&a, &b, &mut out);
        out.data()[0]
    });
    bench_kernel("matmul", &mm_problem, Some(naive_mm), &mut rows, || {
        let mut out = Matrix::zeros(MM, MM);
        a.matmul_into(&b, &mut out);
        out.data().to_vec()
    });

    // Gradient-shaped products over the same operands: Aᵀ@B reduces over
    // rows (ordered-merge partials), A@Bᵀ packs columns.
    bench_kernel("t_matmul", &mm_problem, None, &mut rows, || {
        let mut out = Matrix::zeros(MM, MM);
        a.t_matmul_into(&b, &mut out);
        out.data().to_vec()
    });
    bench_kernel("matmul_t", &mm_problem, None, &mut rows, || {
        let mut out = Matrix::zeros(MM, MM);
        a.matmul_t_into(&b, &mut out);
        out.data().to_vec()
    });

    // RGCN mean aggregation at TOSG scale: 4k nodes × d=64 (a d1h1
    // task-oriented subgraph's feature matrix, ~1 MB — L2-resident,
    // which is the regime the paper's extraction step creates on
    // purpose), 160k edges (avg degree 40). Here the gather hits L2 and
    // the strip kernel's AVX2 + register accumulation shows over the
    // naive loop.
    let agg_nodes = 4_000usize;
    let agg_problem = "4000nx320000exd64";
    let agg_edges = random_edges(agg_nodes as u32, 320_000, &mut rng);
    let csr = Csr::from_edge_list(agg_nodes, &agg_edges);
    let h = xavier_uniform(agg_nodes, 64, &mut rng);
    let mut agg_out = Matrix::zeros(agg_nodes, 64);
    let naive_agg = bench_naive("mean_aggregate_naive", agg_problem, &mut rows, || {
        naive_mean_aggregate(&csr, &h, &mut agg_out);
        agg_out.data()[0]
    });
    bench_kernel("mean_aggregate", agg_problem, Some(naive_agg), &mut rows, || {
        let mut out = Matrix::zeros(agg_nodes, 64);
        mean_aggregate(&csr, &h, &mut out);
        out.data().to_vec()
    });

    // Full-KG-scale aggregation: 50k nodes (12.8 MB feature matrix),
    // 800k edges. The random gather spills past L2, so every kernel —
    // naive or blocked — converges to the memory system's line-fetch
    // floor; this row documents that floor. It is the floor of a relation
    // that reaches every vertex, though: `rgcn_layer_typed` below shows
    // that on a typed KG most of a full-graph layer's cost was never the
    // gather but the rows no relation reaches, and that part kernel work
    // does remove. Extraction then shrinks what is left — |V|, |R| and the
    // working set — which no kernel can.
    let xl_nodes = 50_000usize;
    let xl_problem = "50000nx800000exd64";
    let xl_edges = random_edges(xl_nodes as u32, 800_000, &mut rng);
    let xl_csr = Csr::from_edge_list(xl_nodes, &xl_edges);
    let xl_h = xavier_uniform(xl_nodes, 64, &mut rng);
    let mut xl_out = Matrix::zeros(xl_nodes, 64);
    let naive_xl = bench_naive("mean_aggregate_xl_naive", xl_problem, &mut rows, || {
        naive_mean_aggregate(&xl_csr, &xl_h, &mut xl_out);
        xl_out.data()[0]
    });
    bench_kernel("mean_aggregate_xl", xl_problem, Some(naive_xl), &mut rows, || {
        let mut out = Matrix::zeros(xl_nodes, 64);
        mean_aggregate(&xl_csr, &xl_h, &mut out);
        out.data().to_vec()
    });

    // One RGCN layer, forward + backward, d = 64, over the full MAG-shaped
    // KG at scale 0.5 (62 relations, 124 non-empty directions): the typed
    // case the aggregation rows above leave out, where a relation's active
    // rows are a small share of |V|. The naive twin is the dense
    // per-relation formulation; the two must agree bit for bit.
    let mag = kgtosa_datagen::mag(0.5, 7);
    let typed = HeteroGraph::build(&mag.gen.kg);
    let active_rows: usize = (0..typed.num_relations())
        .map(|r| typed.relation(Rid(r as u32)))
        .map(|adj| adj.inc.active_rows().len() + adj.out.active_rows().len())
        .sum();
    let typed_problem = format!(
        "{}nx{}ex{}rx{}activexd64",
        typed.num_nodes(),
        typed.num_edges(),
        typed.num_relations(),
        active_rows
    );
    let layer = RgcnLayer::new(typed.num_relations(), 64, 64, true, &mut rng);
    let typed_h = xavier_uniform(typed.num_nodes(), 64, &mut rng);
    let typed_grad = xavier_uniform(typed.num_nodes(), 64, &mut rng);
    let run_layer = || {
        let (out, cache) = layer.forward(&typed, &typed_h);
        let (grad_h, grads) = layer.backward(&typed, &typed_h, &cache, typed_grad.clone());
        flatten_pass(&out, &grad_h, &grads)
    };
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    assert!(
        bits(&run_layer()) == bits(&naive_rgcn_layer(&layer, &typed, &typed_h, &typed_grad)),
        "rgcn_layer_typed: row-compact pass differs from the dense formulation"
    );
    let naive_layer = bench_naive("rgcn_layer_typed_naive", &typed_problem, &mut rows, || {
        with_threads(1, || naive_rgcn_layer(&layer, &typed, &typed_h, &typed_grad).len())
    });
    bench_kernel("rgcn_layer_typed", &typed_problem, Some(naive_layer), &mut rows, run_layer);

    // Batched PPR: 256 seeds over a 20k-node graph. The naive twin is the
    // hash-map push kernel the dense scratch replaced; the two must agree
    // on every vertex and every score bit.
    let g = ppr_graph(&mut rng);
    let seeds: Vec<Vid> = (0..256u32).map(|i| Vid(i * 7)).collect();
    let ppr_cfg = PprConfig::default();
    let ppr_problem = "20000nx120000ex256seeds";
    let reference_batch = || {
        seeds
            .iter()
            .map(|&seed| approximate_ppr_reference(&g, seed, &ppr_cfg).0)
            .collect::<Vec<_>>()
    };
    let score_sets = |batch: Vec<Vec<(Vid, f32)>>| {
        batch
            .into_iter()
            .map(|scores| {
                let mut set: Vec<(u32, u32)> =
                    scores.iter().map(|&(v, s)| (v.raw(), s.to_bits())).collect();
                set.sort_unstable();
                set
            })
            .collect::<Vec<_>>()
    };
    assert!(
        score_sets(approximate_ppr_batch(&g, &seeds, &ppr_cfg)) == score_sets(reference_batch()),
        "ppr_batch: dense push kernel differs from the hash-map reference"
    );
    let naive_ppr =
        bench_naive("ppr_batch_naive", ppr_problem, &mut rows, || reference_batch().len());
    bench_kernel("ppr_batch", ppr_problem, Some(naive_ppr), &mut rows, || {
        approximate_ppr_batch(&g, &seeds, &ppr_cfg)
            .iter()
            .map(|scores| scores.len())
            .collect::<Vec<_>>()
    });

    // IBS node selection (Algorithm 2 lines 2-4) for the paper-venue task
    // on MAG at scale 1, k = 16: 12 000 push-PPR runs plus top-k.
    let mag1 = kgtosa_datagen::mag(1.0, 7);
    let mag1_graph = HeteroGraph::build(&mag1.gen.kg);
    let ibs_targets = mag1.nc[0].targets();
    let ibs_problem = format!(
        "{}nx{}ex{}targetsxk16",
        mag1_graph.num_nodes(),
        mag1_graph.num_edges(),
        ibs_targets.len()
    );
    bench_kernel("ibs_sample", &ibs_problem, None, &mut rows, || {
        // The default thread count is read here, inside `with_threads`.
        let ibs_cfg = IbsConfig { k: 16, ..Default::default() };
        ibs_sample(&mag1_graph, &ibs_targets, &ibs_cfg).iter().collect::<Vec<_>>()
    });

    // Task-oriented inference along the scale ladder: 32 requests of 64
    // seeded test nodes each (what `/infer` is asked in `benchmark/`), at
    // the served model's d = 16. The naive twin answers each request the way
    // `predict_nodes` used to — one full forward, then 64 rows of it — so
    // the pair shows the request's cost following its receptive field while
    // the full forward's follows |V|. The last row asks for every vertex of
    // MAG 0.25 at once, where the selection rule must hand the request to
    // the full forward.
    let mag_small = kgtosa_datagen::mag(0.25, 7);
    let small_graph = HeteroGraph::build(&mag_small.gen.kg);
    let mag2 = kgtosa_datagen::mag(2.0, 7);
    for (tag, data, graph) in [
        ("mag025", &mag_small, &small_graph),
        ("mag1", &mag1, &mag1_graph),
        ("mag2", &mag2, &HeteroGraph::build(&mag2.gen.kg)),
    ] {
        let mut draw = StdRng::seed_from_u64(7);
        let test = &data.nc[0].test;
        let requests: Vec<Vec<Vid>> = (0..32)
            .map(|_| (0..64).map(|_| test[draw.gen_range(0..test.len())]).collect())
            .collect();
        let name = format!("predict_nodes_64_{tag}");
        bench_predict_nodes(&name, &served_model(data, graph), graph, &requests, &mut rows);
    }
    // The RDF store's index build along the same ladder — what every epoch
    // of the daemon pays on `/admin/update` and every batch run at start-up.
    // One radix sort and four derived passes against six comparison sorts;
    // both must index the same number of distinct rows. The build never
    // enters the pool, so it is measured at one thread only.
    for (tag, data) in [("mag025", &mag_small), ("mag1", &mag1), ("mag2", &mag2)] {
        let kg = &data.gen.kg;
        let problem = format!("{}nx{}triples", kg.num_nodes(), kg.num_triples());
        assert!(
            RdfStore::new(kg).len() == naive_store_build(kg),
            "store_build_{tag}: derived build indexes a different row count"
        );
        let name = format!("store_build_{tag}");
        let naive = bench_naive(&format!("{name}_naive"), &problem, &mut rows, || {
            naive_store_build(kg)
        });
        bench_kernel_at(&[1], &name, &problem, Some(naive), &mut rows, || RdfStore::new(kg).len());
    }

    let every = [(0..small_graph.num_nodes() as u32).map(Vid).collect::<Vec<Vid>>()];
    let small_model = served_model(&mag_small, &small_graph);
    bench_predict_nodes("predict_nodes_all_mag025", &small_model, &small_graph, &every, &mut rows);

    // CSR construction: counting sort of 4M edges over 500k vertices.
    let build_edges = random_edges(500_000, 4_000_000, &mut rng);
    bench_kernel("csr_build", "500000nx4000000e", None, &mut rows, || {
        let csr = Csr::from_edge_list(500_000, &build_edges);
        csr.targets().to_vec()
    });

    let report = Report {
        available_parallelism: available_parallelism(),
        rows,
    };
    let json = kgtosa_obs::Json::from(report).to_string_pretty();
    std::fs::write("BENCH_kernels.json", json).expect("write BENCH_kernels.json");
    eprintln!("[saved BENCH_kernels.json]");
}
