//! Approximate Personalized PageRank via the Andersen–Chung–Lang push
//! algorithm (FOCS'06), the influence-score engine behind IBS (Algorithm 2).
//!
//! The push algorithm maintains an approximation vector `p` and a residual
//! vector `r` with the invariant
//!
//! ```text
//! p + α·r·(I + (1-α)/α · W)  ≈ ppr(seed)
//! ```
//!
//! pushing mass from any vertex whose residual exceeds `ε · degree` until
//! none remains. The result is sparse — `O(1/(ε·α))` non-zeros independent
//! of graph size — which is what makes per-target influence scoring
//! tractable (§IV-B's complexity discussion).

use std::cmp::Ordering;

use kgtosa_kg::{FxHashMap, HeteroGraph, Vid};

/// Parameters of the push computation. Valid ranges are `0 < α ≤ 1` and
/// `ε > 0`, both finite: outside them the push loop never drains (`ε = 0`
/// re-enqueues forever, `α = 0` never absorbs mass), so every entry point
/// rejects such a config up front.
#[derive(Debug, Clone, Copy)]
pub struct PprConfig {
    /// Teleport probability `α` (the paper uses 0.25 for IBS).
    pub alpha: f32,
    /// Residual tolerance `ε` (the paper uses 2e-4).
    pub epsilon: f32,
}

impl Default for PprConfig {
    fn default() -> Self {
        Self {
            alpha: 0.25,
            epsilon: 2e-4,
        }
    }
}

impl PprConfig {
    /// Panics, naming the offending value, unless the push loop is
    /// guaranteed to terminate with finite scores.
    pub(crate) fn assert_valid(&self) {
        assert!(
            self.alpha > 0.0 && self.alpha <= 1.0,
            "PprConfig.alpha must be finite and in (0, 1], got {}",
            self.alpha
        );
        assert!(
            self.epsilon > 0.0 && self.epsilon.is_finite(),
            "PprConfig.epsilon must be finite and > 0, got {}",
            self.epsilon
        );
    }
}

/// Work a push computation did. Exact for a graph + config + seed set —
/// independent of kernel, chunking and thread count — so it can be pinned
/// in tests and divided into a wall time for ns/visit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PprWork {
    /// `push(u)` operations executed.
    pub pushes: u64,
    /// Neighbour residual updates those pushes made.
    pub edge_visits: u64,
}

/// Seeds per parallel work item of the batched entry points, each of which
/// builds one [`PprScratch`]: enough seeds that the `O(|V|)` build stays a
/// few percent of the chunk's pushes at any graph size, and no fewer than
/// balance uneven push counts on a small one. Derived from the graph's
/// shape only — never the thread count (the `kgtosa-par` contract).
pub(crate) fn seed_chunk(g: &HeteroGraph) -> usize {
    (g.num_nodes() / 512).max(64)
}

/// Dense, reusable state of the push kernel over one graph: build once,
/// [`run`](Self::run) for any number of seeds. 12 B × |V|.
///
/// A neighbour visit is one add and two compares, so what it costs is
/// decided by where its operands live. Each vertex's residual sits next to
/// its precomputed push threshold `ε·max(deg, 1)`, so the one cache line a
/// visit loads holds everything it needs — nothing to hash, no degree
/// lookup or int→float convert per visit. A run leaves a non-zero residual
/// only on its seed and on neighbours of the vertices it pushed, so zeroing
/// exactly those afterwards restores the scratch in `O(work)`, not `O(|V|)`,
/// without the visit loop recording anything.
pub struct PprScratch<'g> {
    g: &'g HeteroGraph,
    alpha: f32,
    /// Per vertex: `[residual, push threshold]`.
    cells: Vec<[f32; 2]>,
    p: Vec<f32>,
    /// Vertices with a non-zero `p`, in first-push order.
    pushed: Vec<u32>,
    queue: Vec<u32>,
    scores: Vec<(Vid, f32)>,
    work: PprWork,
}

impl<'g> PprScratch<'g> {
    /// Allocates the scratch and precomputes every vertex's threshold.
    ///
    /// # Panics
    /// If `cfg` is outside the ranges documented on [`PprConfig`].
    pub fn new(g: &'g HeteroGraph, cfg: &PprConfig) -> Self {
        cfg.assert_valid();
        let n = g.num_nodes();
        let cells = (0..n)
            .map(|v| [0.0, cfg.epsilon * g.total_degree(Vid(v as u32)).max(1) as f32])
            .collect();
        Self {
            g,
            alpha: cfg.alpha,
            cells,
            p: vec![0.0; n],
            pushed: Vec::new(),
            queue: Vec::new(),
            scores: Vec::new(),
            work: PprWork::default(),
        }
    }

    /// Sparse PPR scores of `seed` over the undirected view: `(vertex,
    /// score)` pairs in first-push order, deduplicated, valid until the
    /// next run. Same queue discipline, neighbour order and float
    /// operations as [`approximate_ppr_reference`], hence the same bits.
    pub fn run(&mut self, seed: Vid) -> &[(Vid, f32)] {
        let Self { g, alpha, cells, p, pushed, queue, scores, work } = self;
        let (alpha, und) = (*alpha, g.undirected());
        cells[seed.idx()][0] = 1.0;
        queue.push(seed.raw());

        while let Some(u) = queue.pop() {
            let [ru, threshold] = cells[u as usize];
            if ru < threshold {
                continue;
            }
            // push(u)
            let nbrs = und.neighbors(Vid(u));
            work.pushes += 1;
            work.edge_visits += nbrs.len() as u64;
            if p[u as usize] == 0.0 {
                pushed.push(u);
            }
            p[u as usize] += alpha * ru;
            cells[u as usize][0] = 0.0;
            if nbrs.is_empty() {
                // Dangling vertex: mass returns to the seed.
                let [r, threshold] = &mut cells[seed.idx()];
                *r += (1.0 - alpha) * ru;
                if *r >= *threshold {
                    queue.push(seed.raw());
                }
                continue;
            }
            let spread = (1.0 - alpha) * ru / nbrs.len() as f32;
            for &v in nbrs {
                let [r, threshold] = &mut cells[v as usize];
                let before = *r;
                *r += spread;
                // Enqueue on threshold crossing only (amortized O(1/(εα)) pushes).
                if before < *threshold && *r >= *threshold {
                    queue.push(v);
                }
            }
            // u may need another push if self-loops returned mass.
            if cells[u as usize][0] >= threshold {
                queue.push(u);
            }
        }

        scores.clear();
        cells[seed.idx()][0] = 0.0;
        for u in pushed.drain(..) {
            scores.push((Vid(u), std::mem::take(&mut p[u as usize])));
            for &v in und.neighbors(Vid(u)) {
                cells[v as usize][0] = 0.0;
            }
        }
        scores
    }

    /// Total work of every run so far.
    pub fn work(&self) -> PprWork {
        self.work
    }
}

/// Sparse PPR scores from a single seed over the undirected view.
/// Returns `(vertex, score)` pairs (unsorted, deduplicated).
///
/// Builds a [`PprScratch`] — `O(|V|)` — for the one run; callers with many
/// seeds should hold a scratch or use [`approximate_ppr_batch`].
pub fn approximate_ppr(g: &HeteroGraph, seed: Vid, cfg: &PprConfig) -> Vec<(Vid, f32)> {
    PprScratch::new(g, cfg).run(seed).to_vec()
}

/// The hash-map push kernel [`PprScratch`] replaced, kept as the reference
/// the differential tests and the `ppr_batch_naive` bench row compare the
/// dense kernel against. Nothing in the library calls it.
#[doc(hidden)]
pub fn approximate_ppr_reference(
    g: &HeteroGraph,
    seed: Vid,
    cfg: &PprConfig,
) -> (Vec<(Vid, f32)>, PprWork) {
    cfg.assert_valid();
    let mut work = PprWork::default();
    let mut p: FxHashMap<u32, f32> = FxHashMap::default();
    let mut r: FxHashMap<u32, f32> = FxHashMap::default();
    r.insert(seed.raw(), 1.0);
    let mut queue: Vec<u32> = vec![seed.raw()];
    let alpha = cfg.alpha;

    while let Some(u) = queue.pop() {
        let deg = g.total_degree(Vid(u)).max(1);
        let ru = *r.get(&u).unwrap_or(&0.0);
        if ru < cfg.epsilon * deg as f32 {
            continue;
        }
        // push(u)
        *p.entry(u).or_insert(0.0) += alpha * ru;
        let spread = (1.0 - alpha) * ru / deg as f32;
        r.insert(u, 0.0);
        let nbrs = g.undirected().neighbors(Vid(u));
        work.pushes += 1;
        work.edge_visits += nbrs.len() as u64;
        if nbrs.is_empty() {
            // Dangling vertex: mass returns to the seed.
            let seed_deg = g.total_degree(seed).max(1);
            let e = r.entry(seed.raw()).or_insert(0.0);
            *e += (1.0 - alpha) * ru;
            if *e >= cfg.epsilon * seed_deg as f32 {
                queue.push(seed.raw());
            }
            continue;
        }
        for &v in nbrs {
            let dv = g.total_degree(Vid(v)).max(1);
            let e = r.entry(v).or_insert(0.0);
            let before = *e;
            *e += spread;
            // Enqueue on threshold crossing only (amortized O(1/(εα)) pushes).
            if before < cfg.epsilon * dv as f32 && *e >= cfg.epsilon * dv as f32 {
                queue.push(v);
            }
        }
        // u may need another push if self-loops returned mass.
        if *r.get(&u).unwrap_or(&0.0) >= cfg.epsilon * deg as f32 {
            queue.push(u);
        }
    }
    (p.into_iter().map(|(v, s)| (Vid(v), s)).collect(), work)
}

/// Sparse PPR vectors for many seeds at once, parallelized over fixed-size
/// seed chunks on the shared pool, one [`PprScratch`] per chunk. Each
/// seed's push computation is independent and fully deterministic, and
/// results come back in seed order, so the output is identical to mapping
/// [`approximate_ppr`] serially — at any thread count.
pub fn approximate_ppr_batch(
    g: &HeteroGraph,
    seeds: &[Vid],
    cfg: &PprConfig,
) -> Vec<Vec<(Vid, f32)>> {
    cfg.assert_valid();
    // A push run touches O(1/(ε·α)) residual entries — the per-seed work
    // estimate that decides whether spawning workers pays off.
    let per_seed = (1.0 / (f64::from(cfg.epsilon) * f64::from(cfg.alpha))).ceil() as usize;
    let pool = kgtosa_par::Pool::for_work(seeds.len().saturating_mul(per_seed));
    let chunks: Vec<&[Vid]> = seeds.chunks(seed_chunk(g)).collect();
    pool.par_map_collect("sampler.ppr", &chunks, |_, chunk| {
        let mut scratch = PprScratch::new(g, cfg);
        chunk.iter().map(|&seed| scratch.run(seed).to_vec()).collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Highest score first, ties by vertex id: a strict total order (vertices
/// are distinct), so selection and sorting have exactly one answer.
fn by_score_desc(a: &(Vid, f32), b: &(Vid, f32)) -> Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Fills `top` with the `k` highest-scoring entries of `scores` other than
/// the seed's, in no particular order — an `O(nnz)` selection; only
/// [`top_k`] pays to sort, and only the `k` survivors.
pub(crate) fn select_top_k(scores: &[(Vid, f32)], seed: Vid, k: usize, top: &mut Vec<(Vid, f32)>) {
    top.clear();
    top.extend(scores.iter().copied().filter(|(v, _)| *v != seed));
    if k < top.len() {
        top.select_nth_unstable_by(k, by_score_desc);
        top.truncate(k);
    }
}

/// The `k` highest-scoring vertices (excluding the seed itself) from a
/// sparse PPR vector, best first — the `SelectTopK-Nodes` step of
/// Algorithm 2.
pub fn top_k(scores: &[(Vid, f32)], seed: Vid, k: usize) -> Vec<(Vid, f32)> {
    let mut top = Vec::new();
    select_top_k(scores, seed, k, &mut top);
    top.sort_unstable_by(by_score_desc);
    top
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgtosa_kg::KnowledgeGraph;

    fn line_graph(n: usize) -> HeteroGraph {
        let mut kg = KnowledgeGraph::new();
        for i in 0..n - 1 {
            kg.add_triple_terms(&format!("n{i}"), "N", "r", &format!("n{}", i + 1), "N");
        }
        HeteroGraph::build(&kg)
    }

    #[test]
    fn mass_is_bounded_and_positive() {
        let g = line_graph(20);
        let scores = approximate_ppr(&g, Vid(0), &PprConfig::default());
        let total: f32 = scores.iter().map(|(_, s)| s).sum();
        assert!(total > 0.0 && total <= 1.0 + 1e-4, "total {total}");
        assert!(scores.iter().all(|&(_, s)| s > 0.0));
    }

    #[test]
    fn seed_has_highest_score() {
        let g = line_graph(20);
        let scores = approximate_ppr(&g, Vid(5), &PprConfig::default());
        let seed_score = scores
            .iter()
            .find(|(v, _)| *v == Vid(5))
            .map(|(_, s)| *s)
            .unwrap();
        for &(v, s) in &scores {
            if v != Vid(5) {
                assert!(s <= seed_score, "{v:?} scored {s} > seed {seed_score}");
            }
        }
    }

    #[test]
    fn score_decays_with_distance() {
        let g = line_graph(30);
        let scores: kgtosa_kg::FxHashMap<u32, f32> = approximate_ppr(
            &g,
            Vid(0),
            &PprConfig {
                alpha: 0.25,
                epsilon: 1e-6,
            },
        )
        .into_iter()
        .map(|(v, s)| (v.raw(), s))
        .collect();
        let s1 = scores.get(&1).copied().unwrap_or(0.0);
        let s8 = scores.get(&8).copied().unwrap_or(0.0);
        assert!(s1 > s8, "near {s1} vs far {s8}");
    }

    #[test]
    fn disconnected_vertices_score_zero() {
        let mut kg = KnowledgeGraph::new();
        kg.add_triple_terms("a", "A", "r", "b", "B");
        kg.add_triple_terms("x", "X", "r", "y", "Y");
        let g = HeteroGraph::build(&kg);
        let scores = approximate_ppr(&g, Vid(0), &PprConfig::default());
        let x = kg.find_node("x").unwrap();
        assert!(scores.iter().all(|&(v, _)| v != x));
    }

    #[test]
    fn isolated_seed_keeps_all_mass() {
        let mut kg = KnowledgeGraph::new();
        kg.add_node("lonely", "T");
        kg.add_triple_terms("a", "A", "r", "b", "B");
        let g = HeteroGraph::build(&kg);
        let scores = approximate_ppr(&g, Vid(0), &PprConfig::default());
        assert_eq!(scores.len(), 1);
        assert_eq!(scores[0].0, Vid(0));
        assert!(scores[0].1 > 0.9, "isolated seed retains ~all mass");
    }

    #[test]
    fn top_k_excludes_seed_and_sorts() {
        let scores = vec![
            (Vid(0), 0.5),
            (Vid(1), 0.1),
            (Vid(2), 0.3),
            (Vid(3), 0.2),
        ];
        let top = top_k(&scores, Vid(0), 2);
        assert_eq!(top.iter().map(|(v, _)| v.raw()).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn top_k_with_k_zero_and_k_beyond_nnz() {
        let scores = vec![
            (Vid(4), 0.2),
            (Vid(0), 0.5),
            (Vid(3), 0.2),
            (Vid(1), 0.1),
        ];
        assert!(top_k(&scores, Vid(0), 0).is_empty());
        // Everything but the seed, best first, ties by vertex id.
        let all = vec![(Vid(3), 0.2), (Vid(4), 0.2), (Vid(1), 0.1)];
        assert_eq!(top_k(&scores, Vid(0), 3), all);
        assert_eq!(top_k(&scores, Vid(0), usize::MAX), all);
        assert_eq!(top_k(&scores, Vid(0), 1), all[..1]);
    }

    #[test]
    fn top_k_orders_nan_instead_of_panicking() {
        let scores = vec![(Vid(1), f32::NAN), (Vid(2), 0.3), (Vid(3), f32::NAN)];
        assert_eq!(top_k(&scores, Vid(0), 3).len(), 3);
    }

    /// Each of these hung (`ε = 0`, `α = 0`) or produced NaN scores on the
    /// hash-map kernel; every entry point now names the value and stops.
    #[test]
    fn degenerate_configs_fail_fast_naming_the_value() {
        let g = line_graph(4);
        let epsilon = "PprConfig.epsilon must be finite and > 0, got";
        let alpha = "PprConfig.alpha must be finite and in (0, 1], got";
        let cases = [
            (PprConfig { alpha: 0.25, epsilon: 0.0 }, format!("{epsilon} 0")),
            (PprConfig { alpha: 0.25, epsilon: -1e-3 }, format!("{epsilon} -0.001")),
            (PprConfig { alpha: 0.25, epsilon: f32::INFINITY }, format!("{epsilon} inf")),
            (PprConfig { alpha: 0.25, epsilon: f32::NAN }, format!("{epsilon} NaN")),
            (PprConfig { alpha: 0.0, epsilon: 2e-4 }, format!("{alpha} 0")),
            (PprConfig { alpha: 1.5, epsilon: 2e-4 }, format!("{alpha} 1.5")),
            (PprConfig { alpha: f32::NAN, epsilon: 2e-4 }, format!("{alpha} NaN")),
        ];
        let message = |call: &dyn Fn()| {
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(call))
                .expect_err("a degenerate config must panic");
            panic.downcast_ref::<String>().expect("formatted assert message").clone()
        };
        for (cfg, expect) in cases {
            let ibs = crate::IbsConfig { ppr: cfg, threads: 1, ..Default::default() };
            assert_eq!(message(&|| drop(approximate_ppr(&g, Vid(0), &cfg))), expect);
            assert_eq!(message(&|| drop(approximate_ppr_batch(&g, &[], &cfg))), expect);
            assert_eq!(message(&|| drop(crate::ibs_partitions(&g, &[], &ibs))), expect);
            assert_eq!(message(&|| drop(crate::ibs_sample(&g, &[Vid(0)], &ibs))), expect);
        }
    }

    /// A hub whose threshold exceeds the seed's unit mass is never pushed,
    /// so only the explicit seed reset clears its residual.
    #[test]
    fn unpushed_seed_leaves_no_residual_behind() {
        let mut kg = KnowledgeGraph::new();
        for i in 0..150 {
            kg.add_triple_terms("hub", "H", "r", &format!("leaf{i}"), "L");
        }
        let g = HeteroGraph::build(&kg);
        let (hub, leaf) = (kg.find_node("hub").unwrap(), kg.find_node("leaf0").unwrap());
        let cfg = PprConfig { alpha: 0.25, epsilon: 1e-2 };
        let mut scratch = PprScratch::new(&g, &cfg);
        assert!(scratch.run(hub).is_empty());
        assert_eq!(scratch.run(leaf), approximate_ppr(&g, leaf, &cfg));
    }

    #[test]
    fn alpha_one_keeps_all_mass_on_the_seed() {
        let g = line_graph(5);
        let scores = approximate_ppr(&g, Vid(2), &PprConfig { alpha: 1.0, epsilon: 2e-4 });
        assert_eq!(scores, vec![(Vid(2), 1.0)]);
    }

    #[test]
    fn batch_matches_serial_map_at_any_thread_count() {
        let g = line_graph(60);
        let seeds: Vec<Vid> = (0..60).map(Vid).collect();
        let cfg = PprConfig::default();
        let expect: Vec<Vec<(Vid, f32)>> = seeds
            .iter()
            .map(|&s| approximate_ppr(&g, s, &cfg))
            .collect();
        for threads in [1usize, 2, 4, 8] {
            let got =
                kgtosa_par::with_threads(threads, || approximate_ppr_batch(&g, &seeds, &cfg));
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn tighter_epsilon_reaches_further() {
        let g = line_graph(40);
        let coarse = approximate_ppr(&g, Vid(0), &PprConfig { alpha: 0.25, epsilon: 1e-2 });
        let fine = approximate_ppr(&g, Vid(0), &PprConfig { alpha: 0.25, epsilon: 1e-6 });
        assert!(fine.len() >= coarse.len());
    }
}
