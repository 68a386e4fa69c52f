//! Compressed sparse-row (CSR) adjacency views over a knowledge graph.
//!
//! GNN training and sampling need constant-time neighbourhood access, which
//! the flat triple list cannot provide. [`HeteroGraph`] materializes:
//!
//! * per-relation forward and reverse CSR (for RGCN-style message passing,
//!   one adjacency per relation and direction), and
//! * a merged **undirected** CSR used by random walks, PPR and BFS.
//!
//! All structures use `u32` vertex ids and boxed slices to minimize memory,
//! matching the "transformation to adjacency matrices" step in the paper's
//! Figure 4 pipeline.

use kgtosa_par::{Pool, SharedSliceMut};

use crate::ids::{Cid, Rid, Vid};
use crate::triples::{KnowledgeGraph, Triple};

/// A compressed sparse-row adjacency structure.
///
/// `offsets` has `n + 1` entries; the neighbours of vertex `v` are
/// `targets[offsets[v] .. offsets[v + 1]]`. `active` lists, ascending, the
/// vertices that have any — in a typed KG a relation touches a small share
/// of the vertices, and kernels that walk this list instead of `0..n` pay
/// for the relation, not for the graph.
#[derive(Debug, Clone)]
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

    /// Builds a CSR from an edge slice by a counting sort keyed by source:
    /// a serial two-pass sort for small inputs, a three-pass chunked
    /// parallel sort for large ones. Per-chunk degree histograms plus an
    /// ordered cursor scan give every edge the slot the serial sort would,
    /// so the output is bit-identical regardless of thread count. Slot
    /// arithmetic is integral — unlike the float kernels in
    /// `kgtosa-tensor`, chunk boundaries here may follow the worker count
    /// without breaking determinism.
    pub fn from_edge_list(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut targets = vec![0u32; edges.len()].into_boxed_slice();
        let shared = SharedSliceMut::new(&mut targets);
        let write = |slot: u32, d: u32| {
            // SAFETY: counting-sort slots are disjoint across all edges.
            unsafe { shared.write(slot as usize, d) }
        };
        let mut active = Vec::new();
        // In-place degrees → offsets (`counts[v + 1]` holds `v`'s degree),
        // recording each source with at least one edge, ascending.
        let mut prefix_sum = |counts: &mut [u32]| {
            for i in 0..n {
                if counts[i + 1] != 0 {
                    active.push(i as u32);
                }
                counts[i + 1] += counts[i];
            }
        };
        let m = edges.len();
        let pool = Pool::for_work(m);
        // The parallel passes cost O(workers · n) histogram memory and
        // zeroing; when vertices outnumber edges the serial sort is the
        // cheaper plan.
        let offsets = if pool.threads() <= 1 || n > m {
            let mut counts = vec![0u32; n + 1];
            for &(s, _) in edges {
                counts[s as usize + 1] += 1;
            }
            prefix_sum(&mut counts);
            let offsets = counts.clone();
            let mut cursor = counts;
            for &(s, d) in edges {
                write(cursor[s as usize], d);
                cursor[s as usize] += 1;
            }
            offsets
        } else {
            let chunk = m.div_ceil(pool.threads());
            let ranges: Vec<std::ops::Range<usize>> = (0..m)
                .step_by(chunk)
                .map(|lo| lo..(lo + chunk).min(m))
                .collect();
            // Pass 1: per-chunk degree histograms.
            let mut histograms = pool.par_map_collect("kg.csr.count", &ranges, |_, r| {
                let mut h = vec![0u32; n];
                for &(s, _) in &edges[r.clone()] {
                    h[s as usize] += 1;
                }
                h
            });
            // Pass 2 (serial, O(workers · n)): global offset prefix sum,
            // then each histogram is rewritten into its chunk's start
            // cursor per source —
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
            // Pass 3: parallel fill. Slots never collide — each (chunk,
            // source) pair owns the half-open slot range computed in pass 2.
            let tasks: Vec<(std::ops::Range<usize>, std::sync::Mutex<Vec<u32>>)> = ranges
                .into_iter()
                .zip(histograms.into_iter().map(std::sync::Mutex::new))
                .collect();
            pool.par_map_collect("kg.csr.fill", &tasks, |_, (r, cursor)| {
                let mut cursor = cursor.lock().expect("chunk cursor poisoned");
                for &(s, d) in &edges[r.clone()] {
                    write(cursor[s as usize], d);
                    cursor[s as usize] += 1;
                }
            });
            offsets
        };
        Self {
            offsets: offsets.into_boxed_slice(),
            targets,
            active: active.into_boxed_slice(),
        }
    }

    /// The undirected view of `triples` over `n` vertices: each triple
    /// `(s, p, o)` contributes `s → o` and `o → s`, in triple order.
    pub(crate) fn undirected(n: usize, triples: &[Triple]) -> Self {
        let mut edges = Vec::with_capacity(2 * triples.len());
        for t in triples {
            edges.push((t.s.0, t.o.0));
            edges.push((t.o.0, t.s.0));
        }
        Self::from_edge_list(n, &edges)
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

    /// Raw target array: every vertex's neighbours, in vertex order.
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

/// All adjacency views required for training and sampling.
#[derive(Debug, Clone)]
pub struct HeteroGraph {
    n: usize,
    node_class: Vec<Cid>,
    num_classes: usize,
    rels: Vec<RelAdj>,
    undirected: Csr,
}

impl HeteroGraph {
    /// Builds every view from a knowledge graph. `O(|R|·|V| + |T|)` time and
    /// memory: each of the `2|R|` per-relation CSRs carries `|V| + 1`
    /// offsets (plus its active rows, `≤ min(|V|, |T_r|)`), the undirected
    /// view `|V| + 1` offsets, `2|T|` targets and `≤ |V|` active rows.
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
        for t in triples {
            by_rel[t.p.idx()].push((t.s.0, t.o.0));
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
            undirected: Csr::undirected(n, triples),
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
        self.undirected.num_edges() / 2
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

    /// Merged undirected adjacency (each triple appears in both
    /// directions). Used by walks, PPR and distance computations.
    pub fn undirected(&self) -> &Csr {
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
        let sum: usize = (0..g.num_relations())
            .flat_map(|r| {
                let out = &g.relation(Rid(r as u32)).out;
                (0..g.num_nodes()).map(|i| out.degree(Vid(i as u32)))
            })
            .sum();
        assert_eq!(sum, g.num_edges());
    }
}
