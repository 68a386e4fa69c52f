//! Data-sufficiency and graph-topology quality indicators.
//!
//! Section III-A of the paper grounds TOSG extraction in two families of
//! measurements, reported for every sampler in Table III:
//!
//! * **Data sufficiency** — how many target vertices the subgraph contains
//!   (absolute and as a ratio), and how many node/edge types survive.
//! * **Graph topology** — what fraction of non-target vertices is
//!   disconnected from every target, the average hop distance from
//!   non-target to the nearest target, and the Shannon entropy (Eq. 2) of
//!   the per-vertex count of distinct neighbour node types.

use std::collections::VecDeque;

use crate::graph::{Csr, HeteroGraph};
use crate::ids::{Cid, Vid};
use crate::subgraph::{live_classes, live_relations, NodeSet};
use crate::triples::KnowledgeGraph;

/// Quality indicators of a (sub)graph with respect to a target vertex set.
/// Field names mirror the columns of Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct SubgraphQuality {
    /// Total vertices in the subgraph.
    pub num_nodes: usize,
    /// Total triples in the subgraph.
    pub num_triples: usize,
    /// Number of target vertices present.
    pub target_count: usize,
    /// Target vertices as a percentage of all vertices.
    pub target_ratio_pct: f64,
    /// Live node types, `|C'|`.
    pub num_classes: usize,
    /// Live edge types, `|R'|`.
    pub num_relations: usize,
    /// Percentage of non-target vertices unreachable from every target.
    pub target_disconnected_pct: f64,
    /// Mean hop distance from reachable non-target vertices to the nearest
    /// target (undirected).
    pub avg_dist_to_target: f64,
    /// Shannon entropy of the neighbour-node-type-count distribution (Eq 2).
    pub avg_entropy: f64,
}

/// Computes all indicators for `kg` given its targets.
///
/// Distances and entropy read only the undirected adjacency, so this builds
/// that one CSR (`2|T|` edges), not a [`HeteroGraph`].
pub fn quality(kg: &KnowledgeGraph, targets: &[Vid]) -> SubgraphQuality {
    let n = kg.num_nodes();
    let undirected = Csr::undirected(n, kg.triples());
    let neighbors = |v: Vid| undirected.neighbors(v);
    let target_set = NodeSet::from_iter(n, targets.iter().copied());
    let dist = bfs_distances(n, neighbors, targets);

    let mut reachable_non_target = 0usize;
    let mut unreachable_non_target = 0usize;
    let mut dist_sum = 0u64;
    #[allow(clippy::needless_range_loop)]
    for v in 0..n {
        if target_set.contains(Vid(v as u32)) {
            continue;
        }
        match dist[v] {
            u32::MAX => unreachable_non_target += 1,
            d => {
                reachable_non_target += 1;
                dist_sum += d as u64;
            }
        }
    }
    let non_target = reachable_non_target + unreachable_non_target;

    SubgraphQuality {
        num_nodes: n,
        num_triples: kg.num_triples(),
        target_count: target_set.len(),
        target_ratio_pct: pct(target_set.len(), n),
        num_classes: live_classes(kg),
        num_relations: live_relations(kg),
        target_disconnected_pct: pct(unreachable_non_target, non_target),
        avg_dist_to_target: if reachable_non_target == 0 {
            0.0
        } else {
            dist_sum as f64 / reachable_non_target as f64
        },
        avg_entropy: type_entropy(kg.node_classes(), kg.num_classes(), neighbors),
    }
}

#[inline]
fn pct(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Multi-source BFS over the undirected merged adjacency. Returns, for each
/// vertex, the hop distance to the nearest target (`u32::MAX` when
/// unreachable). Targets themselves have distance 0.
pub fn distances_to_targets(g: &HeteroGraph, targets: &[Vid]) -> Vec<u32> {
    bfs_distances(g.num_nodes(), |v| g.undirected().neighbors(v), targets)
}

fn bfs_distances<'a>(
    n: usize,
    neighbors: impl Fn(Vid) -> &'a [u32],
    targets: &[Vid],
) -> Vec<u32> {
    let mut dist = vec![u32::MAX; n];
    let mut queue = VecDeque::with_capacity(targets.len());
    for &t in targets {
        if dist[t.idx()] == u32::MAX {
            dist[t.idx()] = 0;
            queue.push_back(t);
        }
    }
    while let Some(v) = queue.pop_front() {
        let next = dist[v.idx()] + 1;
        for &u in neighbors(v) {
            if dist[u as usize] == u32::MAX {
                dist[u as usize] = next;
                queue.push_back(Vid(u));
            }
        }
    }
    dist
}

/// Shannon entropy (Eq. 2) of the distribution of "number of distinct
/// neighbour node types" across all vertices.
///
/// For each vertex we count the distinct classes among its (undirected)
/// neighbours; `P(k)` is the fraction of vertices whose count is `k`;
/// `H = -Σ P(k) · log2 P(k)`. Higher values mean a more diverse topology.
pub fn neighbor_type_entropy(g: &HeteroGraph) -> f64 {
    type_entropy(g.node_classes(), g.num_classes(), |v| g.undirected().neighbors(v))
}

fn type_entropy<'a>(
    node_class: &[Cid],
    num_classes: usize,
    neighbors: impl Fn(Vid) -> &'a [u32],
) -> f64 {
    let n = node_class.len();
    if n == 0 {
        return 0.0;
    }
    let mut histogram: Vec<usize> = Vec::new();
    let mut seen = vec![u32::MAX; num_classes.max(1)];
    for v in 0..n {
        let mut distinct = 0usize;
        for &u in neighbors(Vid(v as u32)) {
            let c = node_class[u as usize].idx();
            if seen[c] != v as u32 {
                seen[c] = v as u32;
                distinct += 1;
            }
        }
        if distinct >= histogram.len() {
            histogram.resize(distinct + 1, 0);
        }
        histogram[distinct] += 1;
    }
    let total = n as f64;
    histogram
        .iter()
        .filter(|&&count| count > 0)
        .map(|&count| {
            let p = count as f64 / total;
            -p * p.log2()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// star: t is target; x1,x2 adjacent to t; y adjacent to x1; z isolated.
    fn star() -> (KnowledgeGraph, Vec<Vid>) {
        let mut kg = KnowledgeGraph::new();
        kg.add_triple_terms("t", "T", "r", "x1", "X");
        kg.add_triple_terms("t", "T", "r", "x2", "X");
        kg.add_triple_terms("x1", "X", "s", "y", "Y");
        kg.add_node("z", "Z");
        let t = kg.find_node("t").unwrap();
        (kg, vec![t])
    }

    #[test]
    fn distances_multi_source() {
        let (kg, targets) = star();
        let g = HeteroGraph::build(&kg);
        let d = distances_to_targets(&g, &targets);
        let idx = |s: &str| kg.find_node(s).unwrap().idx();
        assert_eq!(d[idx("t")], 0);
        assert_eq!(d[idx("x1")], 1);
        assert_eq!(d[idx("y")], 2);
        assert_eq!(d[idx("z")], u32::MAX);
    }

    #[test]
    fn quality_counts_disconnected() {
        let (kg, targets) = star();
        let q = quality(&kg, &targets);
        assert_eq!(q.num_nodes, 5);
        assert_eq!(q.target_count, 1);
        assert!((q.target_ratio_pct - 20.0).abs() < 1e-9);
        // z is the only disconnected non-target among 4 non-targets.
        assert!((q.target_disconnected_pct - 25.0).abs() < 1e-9);
        // distances: x1=1, x2=1, y=2 → avg 4/3.
        assert!((q.avg_dist_to_target - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn entropy_zero_for_uniform_counts() {
        // Every vertex has exactly one neighbour type → single bucket → H=0.
        let mut kg = KnowledgeGraph::new();
        kg.add_triple_terms("a", "A", "r", "b", "A");
        let g = HeteroGraph::build(&kg);
        assert!(neighbor_type_entropy(&g).abs() < 1e-12);
    }

    #[test]
    fn entropy_positive_for_mixed_counts() {
        let (kg, _) = star();
        let g = HeteroGraph::build(&kg);
        // t has 1 distinct type (X); x1 has 2 (T,Y); x2 1 (T); y 1 (X); z 0.
        // Buckets {0:1, 1:3, 2:1} → entropy of (0.2, 0.6, 0.2).
        let expect = -(0.2f64.log2() * 0.2 + 0.6f64.log2() * 0.6 + 0.2f64.log2() * 0.2);
        assert!((neighbor_type_entropy(&g) - expect).abs() < 1e-9);
    }

    #[test]
    fn entropy_bounded_by_log_buckets() {
        let (kg, _) = star();
        let g = HeteroGraph::build(&kg);
        let h = neighbor_type_entropy(&g);
        assert!(h >= 0.0);
        assert!(h <= (g.num_nodes() as f64).log2());
    }

    #[test]
    fn no_targets_all_disconnected() {
        let (kg, _) = star();
        let q = quality(&kg, &[]);
        assert_eq!(q.target_count, 0);
        assert!((q.target_disconnected_pct - 100.0).abs() < 1e-9);
        assert_eq!(q.avg_dist_to_target, 0.0);
    }
}
