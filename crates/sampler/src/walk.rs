//! Random-walk samplers: the uniform random walk (URW) used by GraphSAINT
//! and the paper's biased random walk (BRW, Algorithm 1).
//!
//! Both walk over the *undirected* merged adjacency, matching GraphSAINT's
//! sampler. They differ only in where roots come from:
//!
//! * **URW** draws roots uniformly from all vertices — which is exactly why
//!   its samples underrepresent target vertices (Figure 2),
//! * **BRW** draws roots uniformly from the task's target vertices
//!   (`getInitialVertices(bs, V_T)`, Algorithm 1 line 2), biasing coverage
//!   toward task-relevant regions (Figure 5).
//!
//! Walks from different roots are independent, so they run on the shared
//! pool with **per-walker RNG streams**: the caller's generator draws one
//! `u64` seed per root (in root order), each walker steps its own
//! `SmallRng` from that seed, and the visited sets union into a bitset —
//! commutative, so the sample is bit-identical at any thread count.

use kgtosa_kg::{HeteroGraph, NodeSet, Vid};
use kgtosa_par::Pool;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Rough element-operations per walk hop (neighbour lookup + RNG step),
/// used to size the work estimate against the pool's spawn threshold.
const HOP_WORK: usize = 64;

/// Configuration shared by the walk samplers.
#[derive(Debug, Clone, Copy)]
pub struct WalkConfig {
    /// Number of root vertices (`bs` in Algorithm 1; "initial set" size).
    pub roots: usize,
    /// Walk length `h` (number of hops from each root).
    pub walk_length: usize,
}

impl Default for WalkConfig {
    fn default() -> Self {
        Self {
            roots: 20,
            walk_length: 2,
        }
    }
}

/// GraphSAINT's uniform random-walk sampler: roots drawn uniformly from all
/// vertices. Returns the set of visited vertices `V_s`.
pub fn uniform_random_walk(g: &HeteroGraph, cfg: &WalkConfig, rng: &mut impl Rng) -> NodeSet {
    let _span = kgtosa_obs::span!("sample.urw");
    let n = g.num_nodes();
    let mut visited = NodeSet::new(n);
    if n == 0 {
        return visited;
    }
    let roots: Vec<Vid> = (0..cfg.roots)
        .map(|_| Vid(rng.gen_range(0..n) as u32))
        .collect();
    run_walks(g, &roots, cfg.walk_length, rng, &mut visited);
    visited
}

/// The paper's biased random-walk sampler (Algorithm 1): roots drawn
/// uniformly *from the target set*, walks expanded `h` hops. Returns `V_s`.
pub fn biased_random_walk(
    g: &HeteroGraph,
    targets: &[Vid],
    cfg: &WalkConfig,
    rng: &mut impl Rng,
) -> NodeSet {
    let _span = kgtosa_obs::span!("sample.brw");
    let mut visited = NodeSet::new(g.num_nodes());
    if targets.is_empty() {
        return visited;
    }
    // getInitialVertices(bs, V_T): sample without replacement when possible.
    let initial: Vec<Vid> = if targets.len() <= cfg.roots {
        targets.to_vec()
    } else {
        targets
            .choose_multiple(rng, cfg.roots)
            .copied()
            .collect()
    };
    run_walks(g, &initial, cfg.walk_length, rng, &mut visited);
    visited
}

/// Runs one walk per root, in parallel when the total work warrants it,
/// and inserts every visited vertex. `rng` only hands out one stream seed
/// per root; the hops themselves draw from per-walker generators.
fn run_walks(
    g: &HeteroGraph,
    roots: &[Vid],
    len: usize,
    rng: &mut impl Rng,
    visited: &mut NodeSet,
) {
    let streams: Vec<(Vid, u64)> = roots.iter().map(|&r| (r, rng.gen())).collect();
    let work = roots
        .len()
        .saturating_mul(len.max(1))
        .saturating_mul(HOP_WORK);
    let paths = Pool::for_work(work).par_map_collect("sampler.walk", &streams, |_, &(root, seed)| {
        walk_path(g, root, len, seed)
    });
    for path in paths {
        for v in path {
            visited.insert(Vid(v));
        }
    }
}

/// One random walk of `len` steps from `root` over the undirected view,
/// stepping a dedicated generator seeded with this walker's stream seed.
/// Returns the visited path (root included).
fn walk_path(g: &HeteroGraph, root: Vid, len: usize, seed: u64) -> Vec<u32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut path = Vec::with_capacity(len + 1);
    path.push(root.raw());
    let mut current = root;
    for _ in 0..len {
        let nbrs = g.undirected().neighbors(current);
        if nbrs.is_empty() {
            break;
        }
        current = Vid(nbrs[rng.gen_range(0..nbrs.len())]);
        path.push(current.raw());
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgtosa_kg::KnowledgeGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two disjoint components: targets live in component A.
    fn two_components() -> (KnowledgeGraph, Vec<Vid>) {
        let mut kg = KnowledgeGraph::new();
        // Component A: chain of targets and neighbours.
        kg.add_triple_terms("t0", "T", "r", "x0", "X");
        kg.add_triple_terms("t1", "T", "r", "x0", "X");
        kg.add_triple_terms("x0", "X", "r", "x1", "X");
        // Component B: disconnected from targets.
        kg.add_triple_terms("y0", "Y", "r", "y1", "Y");
        kg.add_triple_terms("y1", "Y", "r", "y2", "Y");
        let targets = vec![kg.find_node("t0").unwrap(), kg.find_node("t1").unwrap()];
        (kg, targets)
    }

    #[test]
    fn brw_never_leaves_target_component() {
        let (kg, targets) = two_components();
        let g = HeteroGraph::build(&kg);
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = WalkConfig {
            roots: 10,
            walk_length: 4,
        };
        let vs = biased_random_walk(&g, &targets, &cfg, &mut rng);
        for v in vs.iter() {
            let term = kg.node_term(v);
            assert!(!term.starts_with('y'), "BRW escaped to {term}");
        }
        // All targets were used as roots (targets.len() <= roots).
        assert!(vs.contains(targets[0]));
        assert!(vs.contains(targets[1]));
    }

    #[test]
    fn urw_can_visit_anything() {
        let (kg, _) = two_components();
        let g = HeteroGraph::build(&kg);
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = WalkConfig {
            roots: 50,
            walk_length: 3,
        };
        let vs = uniform_random_walk(&g, &cfg, &mut rng);
        // With 50 roots over 7 nodes, both components get sampled.
        let has_y = vs.iter().any(|v| kg.node_term(v).starts_with('y'));
        assert!(has_y);
    }

    #[test]
    fn walks_are_deterministic_under_seed() {
        let (kg, targets) = two_components();
        let g = HeteroGraph::build(&kg);
        let cfg = WalkConfig::default();
        let a = biased_random_walk(&g, &targets, &cfg, &mut StdRng::seed_from_u64(9));
        let b = biased_random_walk(&g, &targets, &cfg, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
    }

    #[test]
    fn walks_bit_identical_across_thread_counts() {
        let (kg, targets) = two_components();
        let g = HeteroGraph::build(&kg);
        // Enough root·hop work to cross the pool's spawn threshold.
        let cfg = WalkConfig {
            roots: 400,
            walk_length: 4,
        };
        let base = kgtosa_par::with_threads(1, || {
            biased_random_walk(&g, &targets, &cfg, &mut StdRng::seed_from_u64(3))
        });
        for threads in [2usize, 4, 8] {
            let vs = kgtosa_par::with_threads(threads, || {
                biased_random_walk(&g, &targets, &cfg, &mut StdRng::seed_from_u64(3))
            });
            assert_eq!(
                vs.iter().collect::<Vec<_>>(),
                base.iter().collect::<Vec<_>>(),
                "threads={threads}"
            );
            let us = kgtosa_par::with_threads(threads, || {
                uniform_random_walk(&g, &cfg, &mut StdRng::seed_from_u64(3))
            });
            let ubase = kgtosa_par::with_threads(1, || {
                uniform_random_walk(&g, &cfg, &mut StdRng::seed_from_u64(3))
            });
            assert_eq!(
                us.iter().collect::<Vec<_>>(),
                ubase.iter().collect::<Vec<_>>(),
                "urw threads={threads}"
            );
        }
    }

    #[test]
    fn empty_targets_empty_sample() {
        let (kg, _) = two_components();
        let g = HeteroGraph::build(&kg);
        let vs = biased_random_walk(
            &g,
            &[],
            &WalkConfig::default(),
            &mut StdRng::seed_from_u64(0),
        );
        assert!(vs.is_empty());
    }

    #[test]
    fn isolated_root_stays_put() {
        let mut kg = KnowledgeGraph::new();
        let lonely = kg.add_node("lonely", "T");
        kg.add_triple_terms("a", "A", "r", "b", "B");
        let g = HeteroGraph::build(&kg);
        let vs = biased_random_walk(
            &g,
            &[lonely],
            &WalkConfig {
                roots: 1,
                walk_length: 5,
            },
            &mut StdRng::seed_from_u64(0),
        );
        assert_eq!(vs.len(), 1);
        assert!(vs.contains(lonely));
    }
}
