//! Compressed sparse-row (CSR) adjacency views over a knowledge graph.
//!
//! GNN training and sampling need constant-time neighbourhood access, which
//! the flat triple list cannot provide. [`HeteroGraph`] materializes:
//!
//! * per-relation forward and reverse CSR (for RGCN-style message passing,
//!   one adjacency per relation and direction),
//! * a merged directed CSR labelled with relation ids, and
//! * a merged **undirected** CSR used by random walks, PPR and BFS.
//!
//! All structures use `u32` vertex ids and boxed slices to minimize memory,
//! matching the "transformation to adjacency matrices" step in the paper's
//! Figure 4 pipeline.

use kgtosa_par::{Pool, SharedSliceMut};

use crate::ids::{Cid, Rid, Vid};
use crate::triples::{KnowledgeGraph, Triple};

/// Deterministic (possibly parallel) counting sort keyed by edge source.
///
/// Returns the CSR offsets and calls `write(slot, edge)` exactly once per
/// edge, with the slot the serial two-pass sort would assign: per-chunk
/// degree histograms plus an ordered cursor scan reproduce the serial
/// placement exactly, so payload arrays come out bit-identical at any
/// thread count. Slot arithmetic is integral — unlike the float kernels in
/// `kgtosa-tensor`, chunk boundaries here may follow the worker count
/// without breaking determinism. `active(v)` is called in ascending order
/// for every source with at least one edge, from inside the prefix-sum
/// pass that already visits each degree.
fn par_counting_sort<E, S, W, A>(
    n: usize,
    edges: &[E],
    src: S,
    write: W,
    mut active: A,
) -> Box<[u32]>
where
    E: Copy + Sync,
    S: Fn(E) -> u32 + Sync,
    W: Fn(usize, E) + Sync,
    A: FnMut(u32),
{
    // In-place degrees → offsets (`counts[v + 1]` holds `v`'s degree).
    let mut prefix_sum = |counts: &mut [u32]| {
        for i in 0..n {
            if counts[i + 1] != 0 {
                active(i as u32);
            }
            counts[i + 1] += counts[i];
        }
    };
    let m = edges.len();
    let pool = Pool::for_work(m);
    // The parallel passes cost O(workers · n) histogram memory and zeroing;
    // when vertices outnumber edges the serial sort is the cheaper plan.
    if pool.threads() <= 1 || n > m {
        let mut counts = vec![0u32; n + 1];
        for &e in edges {
            counts[src(e) as usize + 1] += 1;
        }
        prefix_sum(&mut counts);
        let offsets = counts.clone().into_boxed_slice();
        let mut cursor = counts;
        for &e in edges {
            let s = src(e) as usize;
            write(cursor[s] as usize, e);
            cursor[s] += 1;
        }
        return offsets;
    }
    let chunk = m.div_ceil(pool.threads());
    let ranges: Vec<std::ops::Range<usize>> = (0..m)
        .step_by(chunk)
        .map(|lo| lo..(lo + chunk).min(m))
        .collect();
    // Pass 1: per-chunk degree histograms.
    let mut histograms = pool.par_map_collect("kg.csr.count", &ranges, |_, r| {
        let mut h = vec![0u32; n];
        for &e in &edges[r.clone()] {
            h[src(e) as usize] += 1;
        }
        h
    });
    // Pass 2 (serial, O(workers · n)): global offset prefix sum, then each
    // histogram is rewritten into its chunk's start cursor per source —
    // `cursor[c][s] = offsets[s] + Σ_{c' < c} counts[c'][s]`.
    let mut offsets = vec![0u32; n + 1];
    for h in &histograms {
        for (s, &c) in h.iter().enumerate() {
            offsets[s + 1] += c;
        }
    }
    prefix_sum(&mut offsets);
    let mut carry: Vec<u32> = offsets[..n].to_vec();
    for h in &mut histograms {
        for (s, slot) in h.iter_mut().enumerate() {
            let cnt = *slot;
            *slot = carry[s];
            carry[s] += cnt;
        }
    }
    // Pass 3: parallel fill. Slots never collide — each (chunk, source)
    // pair owns the half-open slot range computed in pass 2.
    let tasks: Vec<(std::ops::Range<usize>, std::sync::Mutex<Vec<u32>>)> = ranges
        .into_iter()
        .zip(histograms.into_iter().map(std::sync::Mutex::new))
        .collect();
    pool.par_map_collect("kg.csr.fill", &tasks, |_, (r, cursor)| {
        let mut cursor = cursor.lock().expect("chunk cursor poisoned");
        for &e in &edges[r.clone()] {
            let s = src(e) as usize;
            write(cursor[s] as usize, e);
            cursor[s] += 1;
        }
    });
    offsets.into_boxed_slice()
}

/// A compressed sparse-row adjacency structure.
///
/// `offsets` has `n + 1` entries; the neighbours of vertex `v` are
/// `targets[offsets[v] .. offsets[v + 1]]`. `active` lists, ascending, the
/// vertices that have any — in a typed KG a relation touches a small share
/// of the vertices, and kernels that walk this list instead of `0..n` pay
/// for the relation, not for the graph.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    offsets: Box<[u32]>,
    targets: Box<[u32]>,
    active: Box<[u32]>,
}

impl Csr {
    /// Builds a CSR from `(src, dst)` pairs over `n` vertices using
    /// counting sort; `O(n + m)` time, no per-edge hashing.
    pub fn from_edges(n: usize, edges: impl Iterator<Item = (u32, u32)>) -> Self {
        let edges: Vec<(u32, u32)> = edges.collect();
        Self::from_edge_list(n, &edges)
    }

    /// Builds a CSR from an edge slice: a serial two-pass counting sort for
    /// small inputs, a three-pass chunked parallel sort for large ones.
    /// Both plans place every edge in the same slot, so the output is
    /// bit-identical regardless of thread count.
    pub fn from_edge_list(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut targets = vec![0u32; edges.len()].into_boxed_slice();
        let shared = SharedSliceMut::new(&mut targets);
        let mut active = Vec::new();
        let offsets = par_counting_sort(
            n,
            edges,
            |(s, _)| s,
            |slot, (_, d)| {
                // SAFETY: counting-sort slots are disjoint across all edges.
                unsafe { shared.write(slot, d) }
            },
            |v| active.push(v),
        );
        Self { offsets, targets, active: active.into_boxed_slice() }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of stored edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: Vid) -> usize {
        (self.offsets[v.idx() + 1] - self.offsets[v.idx()]) as usize
    }

    /// Neighbour slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: Vid) -> &[u32] {
        let lo = self.offsets[v.idx()] as usize;
        let hi = self.offsets[v.idx() + 1] as usize;
        &self.targets[lo..hi]
    }

    /// The half-open range into the edge arrays for `v` (used to pair
    /// neighbours with parallel per-edge attributes).
    #[inline]
    pub fn edge_range(&self, v: Vid) -> std::ops::Range<usize> {
        self.offsets[v.idx()] as usize..self.offsets[v.idx() + 1] as usize
    }

    /// Raw target array (parallel to per-edge attribute arrays).
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// The vertices with at least one neighbour, ascending.
    #[inline]
    pub fn active_rows(&self) -> &[u32] {
        &self.active
    }
}

/// Forward (`out`) and reverse (`inc`) adjacency for one relation.
#[derive(Debug, Clone)]
pub struct RelAdj {
    /// `s -> o` edges of this relation.
    pub out: Csr,
    /// `o -> s` edges of this relation (reverse direction).
    pub inc: Csr,
}

/// A merged adjacency over all relations with per-edge relation labels.
///
/// The inner [`Csr`] is built without its active-row list (walks, PPR and
/// BFS start from a vertex and never scan rows), which is why it is not
/// handed out.
#[derive(Debug, Clone, Default)]
pub struct LabeledCsr {
    csr: Csr,
    rels: Box<[u32]>,
}

impl LabeledCsr {
    fn from_edges(n: usize, edges: &[(u32, u32, u32)]) -> Self {
        // Counting sort keyed by source, carrying (target, rel).
        let mut targets = vec![0u32; edges.len()].into_boxed_slice();
        let mut rels = vec![0u32; edges.len()].into_boxed_slice();
        let shared_t = SharedSliceMut::new(&mut targets);
        let shared_r = SharedSliceMut::new(&mut rels);
        let offsets = par_counting_sort(
            n,
            edges,
            |(s, _, _)| s,
            |slot, (_, d, r)| {
                // SAFETY: counting-sort slots are disjoint across all edges.
                unsafe {
                    shared_t.write(slot, d);
                    shared_r.write(slot, r);
                }
            },
            |_| {},
        );
        Self {
            csr: Csr { offsets, targets, active: Box::default() },
            rels,
        }
    }

    /// Neighbour vertex ids of `v`.
    #[inline]
    pub fn neighbors(&self, v: Vid) -> &[u32] {
        self.csr.neighbors(v)
    }

    /// Relation labels parallel to [`Self::neighbors`].
    #[inline]
    pub fn rels(&self, v: Vid) -> &[u32] {
        let range = self.csr.edge_range(v);
        &self.rels[range]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: Vid) -> usize {
        self.csr.degree(v)
    }

    /// Number of edges stored.
    pub fn num_edges(&self) -> usize {
        self.csr.num_edges()
    }

    /// Raw target array, parallel to the relation labels.
    pub fn targets(&self) -> &[u32] {
        self.csr.targets()
    }
}

/// All adjacency views required for training and sampling.
#[derive(Debug, Clone)]
pub struct HeteroGraph {
    n: usize,
    node_class: Vec<Cid>,
    num_classes: usize,
    rels: Vec<RelAdj>,
    merged_out: LabeledCsr,
    undirected: LabeledCsr,
}

impl HeteroGraph {
    /// Builds every view from a knowledge graph. `O(|R|·|V| + |T|)` time and
    /// memory: each of the `2|R|` per-relation CSRs carries `|V| + 1`
    /// offsets (plus its active rows, `≤ min(|V|, |T_r|)`), the two merged
    /// views `|V| + 1` offsets and `|T|` resp. `2|T|` labelled targets.
    pub fn build(kg: &KnowledgeGraph) -> Self {
        Self::from_triples(
            kg.num_nodes(),
            kg.num_relations(),
            kg.num_classes(),
            kg.node_classes().to_vec(),
            kg.triples(),
        )
    }

    /// Builds the views from raw parts (used by subgraph re-indexing, which
    /// already has remapped triples).
    pub fn from_triples(
        n: usize,
        num_relations: usize,
        num_classes: usize,
        node_class: Vec<Cid>,
        triples: &[Triple],
    ) -> Self {
        assert_eq!(node_class.len(), n, "one class per vertex required");
        // Partition edges by relation once, then build per-relation CSRs.
        let mut by_rel: Vec<Vec<(u32, u32)>> = vec![Vec::new(); num_relations];
        let mut merged: Vec<(u32, u32, u32)> = Vec::with_capacity(triples.len());
        let mut undirected: Vec<(u32, u32, u32)> = Vec::with_capacity(triples.len() * 2);
        for t in triples {
            by_rel[t.p.idx()].push((t.s.0, t.o.0));
            merged.push((t.s.0, t.o.0, t.p.0));
            undirected.push((t.s.0, t.o.0, t.p.0));
            undirected.push((t.o.0, t.s.0, t.p.0));
        }
        let rels = by_rel
            .into_iter()
            .map(|edges| RelAdj {
                out: Csr::from_edge_list(n, &edges),
                inc: Csr::from_edges(n, edges.iter().map(|&(s, o)| (o, s))),
            })
            .collect();
        Self {
            n,
            node_class,
            num_classes,
            rels,
            merged_out: LabeledCsr::from_edges(n, &merged),
            undirected: LabeledCsr::from_edges(n, &undirected),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of relations.
    #[inline]
    pub fn num_relations(&self) -> usize {
        self.rels.len()
    }

    /// Number of classes in the id space (including unused ids).
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of directed edges (= triples).
    pub fn num_edges(&self) -> usize {
        self.merged_out.num_edges()
    }

    /// Class of a vertex.
    #[inline]
    pub fn class_of(&self, v: Vid) -> Cid {
        self.node_class[v.idx()]
    }

    /// All vertex classes.
    pub fn node_classes(&self) -> &[Cid] {
        &self.node_class
    }

    /// Per-relation adjacency.
    #[inline]
    pub fn relation(&self, r: Rid) -> &RelAdj {
        &self.rels[r.idx()]
    }

    /// Merged directed adjacency with relation labels.
    pub fn merged_out(&self) -> &LabeledCsr {
        &self.merged_out
    }

    /// Merged undirected adjacency with relation labels (each triple appears
    /// in both directions). Used by walks, PPR and distance computations.
    pub fn undirected(&self) -> &LabeledCsr {
        &self.undirected
    }

    /// Total degree (in + out) of a vertex.
    #[inline]
    pub fn total_degree(&self, v: Vid) -> usize {
        self.undirected.degree(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_kg() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        // a -w-> p1, a -w-> p2, p1 -in-> v, p2 -in-> v
        kg.add_triple_terms("a", "Author", "writes", "p1", "Paper");
        kg.add_triple_terms("a", "Author", "writes", "p2", "Paper");
        kg.add_triple_terms("p1", "Paper", "publishedIn", "v", "Venue");
        kg.add_triple_terms("p2", "Paper", "publishedIn", "v", "Venue");
        kg
    }

    #[test]
    fn csr_from_edges_counts_degrees() {
        let edges = [(0u32, 1u32), (0, 2), (2, 1)];
        let csr = Csr::from_edges(3, edges.iter().copied());
        assert_eq!(csr.num_nodes(), 3);
        assert_eq!(csr.num_edges(), 3);
        assert_eq!(csr.degree(Vid(0)), 2);
        assert_eq!(csr.degree(Vid(1)), 0);
        let mut n0 = csr.neighbors(Vid(0)).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 2]);
    }

    #[test]
    fn per_relation_views_split_edges() {
        let kg = sample_kg();
        let g = HeteroGraph::build(&kg);
        let writes = kg.find_relation("writes").unwrap();
        let pub_in = kg.find_relation("publishedIn").unwrap();
        let a = kg.find_node("a").unwrap();
        let v = kg.find_node("v").unwrap();
        assert_eq!(g.relation(writes).out.degree(a), 2);
        assert_eq!(g.relation(writes).inc.degree(a), 0);
        assert_eq!(g.relation(pub_in).inc.degree(v), 2);
    }

    #[test]
    fn undirected_doubles_edges() {
        let kg = sample_kg();
        let g = HeteroGraph::build(&kg);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.undirected().num_edges(), 8);
        let v = kg.find_node("v").unwrap();
        assert_eq!(g.total_degree(v), 2);
    }

    #[test]
    fn labels_align_with_neighbors() {
        let kg = sample_kg();
        let g = HeteroGraph::build(&kg);
        let a = kg.find_node("a").unwrap();
        let writes = kg.find_relation("writes").unwrap();
        let nbrs = g.merged_out().neighbors(a);
        let rels = g.merged_out().rels(a);
        assert_eq!(nbrs.len(), 2);
        assert!(rels.iter().all(|&r| r == writes.0));
    }

    #[test]
    fn isolated_vertices_have_zero_degree() {
        let mut kg = sample_kg();
        let lonely = kg.add_node("lonely", "Author");
        let g = HeteroGraph::build(&kg);
        assert_eq!(g.total_degree(lonely), 0);
    }

    #[test]
    fn degree_sum_equals_edge_count() {
        let kg = sample_kg();
        let g = HeteroGraph::build(&kg);
        let sum: usize = (0..g.num_nodes())
            .map(|i| g.merged_out().degree(Vid(i as u32)))
            .sum();
        assert_eq!(sum, g.num_edges());
    }
}
