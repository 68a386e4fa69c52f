//! Schema-driven synthetic KG generation.
//!
//! The paper's datasets (Table I) are real KGs with heavy-tailed degrees,
//! tens-to-hundreds of node/edge types, and task labels correlated with
//! community structure. The generator reproduces those *shape* properties
//! at laptop scale:
//!
//! * every node type gets a contiguous id block and every node a latent
//!   **cluster**; task labels derive from clusters,
//! * edge types connect source/destination types with a configurable
//!   **cluster affinity** (how often an edge stays inside its cluster —
//!   this is what makes tasks learnable but not trivial),
//! * destination popularity follows a power law (hub venues, hub authors),
//! * "misc" types/relations pad the schema to the real KG's type counts —
//!   exactly the task-irrelevant diversity KG-TOSA prunes away.

use kgtosa_kg::{KnowledgeGraph, Triple, Vid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One node type and how many instances to create.
#[derive(Debug, Clone)]
pub struct NodeTypeSpec {
    /// Type (class) name.
    pub name: String,
    /// Number of instances.
    pub count: usize,
}

/// One edge type between two node types.
#[derive(Debug, Clone)]
pub struct EdgeTypeSpec {
    /// Relation name.
    pub name: String,
    /// Source node type.
    pub src: String,
    /// Destination node type.
    pub dst: String,
    /// Mean outgoing edges per source node.
    pub mean_out: f64,
    /// Probability an edge stays within the source's cluster.
    pub cluster_affinity: f64,
    /// Power-law skew of destination popularity (0 = uniform; higher =
    /// stronger hubs).
    pub skew: f64,
}

/// A full synthetic-KG schema.
#[derive(Debug, Clone)]
pub struct KgSpec {
    /// Dataset name (e.g. `MAG-42M` scaled).
    pub name: String,
    /// Number of latent clusters (drives label structure).
    pub clusters: usize,
    /// Node types.
    pub node_types: Vec<NodeTypeSpec>,
    /// Edge types.
    pub edge_types: Vec<EdgeTypeSpec>,
}

impl KgSpec {
    /// Adds `count` node types with `instances` instances each and **no**
    /// relations — schema padding for datasets whose node-type count
    /// exceeds their edge-type count (e.g. YAGO's 104 vs 98).
    pub fn pad_isolated_types(&mut self, count: usize, instances: usize) {
        for i in 0..count {
            self.node_types.push(NodeTypeSpec {
                name: format!("Isolated{i}"),
                count: instances,
            });
        }
    }

    /// Adds `count` one-instance-per-type "misc" node types plus one
    /// relation each, attached from `src` nodes at a low rate — padding the
    /// schema to realistic |C| / |R| without dominating the graph.
    pub fn pad_misc_types(&mut self, count: usize, src: &str, instances: usize) {
        for i in 0..count {
            let tname = format!("Misc{i}");
            self.node_types.push(NodeTypeSpec {
                name: tname.clone(),
                count: instances,
            });
            self.edge_types.push(EdgeTypeSpec {
                name: format!("miscRel{i}"),
                src: src.to_string(),
                dst: tname,
                mean_out: 0.05,
                cluster_affinity: 0.0,
                skew: 1.0,
            });
        }
    }
}

/// A generated dataset: the KG plus the node-id layout needed to derive
/// labels and tasks.
#[derive(Debug)]
pub struct GeneratedKg {
    /// The synthesized knowledge graph.
    pub kg: KnowledgeGraph,
    /// The spec it was generated from.
    pub spec: KgSpec,
    /// For each node type name, the `(first_vid, count)` block.
    pub blocks: Vec<(String, u32, usize)>,
    /// Number of clusters.
    pub clusters: usize,
}

impl GeneratedKg {
    /// The id block of a node type.
    pub fn block(&self, type_name: &str) -> Option<(u32, usize)> {
        self.blocks
            .iter()
            .find(|(n, _, _)| n == type_name)
            .map(|&(_, start, count)| (start, count))
    }

    /// All vertices of a node type, in generation ("time") order.
    pub fn nodes_of(&self, type_name: &str) -> Vec<Vid> {
        match self.block(type_name) {
            Some((start, count)) => (0..count as u32).map(|i| Vid(start + i)).collect(),
            None => Vec::new(),
        }
    }

    /// The latent cluster of a vertex (its index within its type block,
    /// modulo the cluster count).
    pub fn cluster_of(&self, v: Vid) -> usize {
        for &(_, start, count) in &self.blocks {
            if v.raw() >= start && (v.raw() - start) < count as u32 {
                return ((v.raw() - start) as usize) % self.clusters;
            }
        }
        0
    }
}

/// Generates a KG from a spec, deterministically under `seed`.
pub fn generate(spec: &KgSpec, seed: u64) -> GeneratedKg {
    let mut rng = StdRng::seed_from_u64(seed);
    let total_nodes: usize = spec.node_types.iter().map(|t| t.count).sum();
    let mut kg = KnowledgeGraph::with_capacity(total_nodes, 0);
    let mut blocks = Vec::with_capacity(spec.node_types.len());

    // Create all node blocks first so ids are contiguous per type.
    for t in &spec.node_types {
        let start = kg.num_nodes() as u32;
        for i in 0..t.count {
            kg.add_node(&format!("{}:{}", t.name, i), &t.name);
        }
        blocks.push((t.name.clone(), start, t.count));
    }

    let block_of = |name: &str| -> (u32, usize) {
        blocks
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, s, c)| (s, c))
            .unwrap_or_else(|| panic!("edge references unknown node type {name}"))
    };

    let mut triples = Vec::with_capacity(total_nodes * 4);
    for e in &spec.edge_types {
        let (src_start, src_count) = block_of(&e.src);
        let (dst_start, dst_count) = block_of(&e.dst);
        if src_count == 0 || dst_count == 0 {
            continue;
        }
        let rel = kg.add_relation(&e.name);
        for si in 0..src_count {
            let out_deg = sample_degree(e.mean_out, &mut rng);
            let src_cluster = si % spec.clusters;
            for _ in 0..out_deg {
                let di = if rng.gen::<f64>() < e.cluster_affinity {
                    // Stay in-cluster: pick among dst nodes with the same
                    // cluster residue.
                    let per_cluster = dst_count.div_ceil(spec.clusters);
                    if per_cluster == 0 {
                        continue;
                    }
                    let k = skewed_index(per_cluster, e.skew, &mut rng);
                    let idx = src_cluster + k * spec.clusters;
                    if idx >= dst_count {
                        continue;
                    }
                    idx
                } else {
                    skewed_index(dst_count, e.skew, &mut rng)
                };
                let (s, o) = (Vid(src_start + si as u32), Vid(dst_start + di as u32));
                triples.push(Triple::new(s, rel, o));
            }
        }
    }
    kg.extend_triples(triples);

    GeneratedKg {
        kg,
        spec: spec.clone(),
        blocks,
        clusters: spec.clusters,
    }
}

/// Heavy-tailed out-degree: base Poisson-like count with an occasional
/// 5× burst (hub authors, survey papers).
fn sample_degree(mean: f64, rng: &mut StdRng) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    let base = mean.floor() as usize + usize::from(rng.gen::<f64>() < mean.fract());
    if rng.gen::<f64>() < 0.03 {
        base * 5 + 1
    } else {
        base
    }
}

/// Power-law index in `0..n`: `floor(n · u^(1+skew))` concentrates mass on
/// low indices as `skew` grows.
fn skewed_index(n: usize, skew: f64, rng: &mut StdRng) -> usize {
    let u: f64 = rng.gen();
    let x = u.powf(1.0 + skew.max(0.0));
    ((x * n as f64) as usize).min(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_spec() -> KgSpec {
        KgSpec {
            name: "test".into(),
            clusters: 4,
            node_types: vec![
                NodeTypeSpec { name: "Paper".into(), count: 200 },
                NodeTypeSpec { name: "Venue".into(), count: 8 },
                NodeTypeSpec { name: "Author".into(), count: 100 },
            ],
            edge_types: vec![
                EdgeTypeSpec {
                    name: "cites".into(),
                    src: "Paper".into(),
                    dst: "Paper".into(),
                    mean_out: 2.0,
                    cluster_affinity: 0.8,
                    skew: 1.0,
                },
                EdgeTypeSpec {
                    name: "writes".into(),
                    src: "Author".into(),
                    dst: "Paper".into(),
                    mean_out: 3.0,
                    cluster_affinity: 0.9,
                    skew: 0.5,
                },
            ],
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let spec = paper_spec();
        let a = generate(&spec, 42);
        let b = generate(&spec, 42);
        assert_eq!(a.kg.num_triples(), b.kg.num_triples());
        assert_eq!(a.kg.triples(), b.kg.triples());
    }

    #[test]
    fn different_seed_different_graph() {
        let spec = paper_spec();
        let a = generate(&spec, 1);
        let b = generate(&spec, 2);
        assert_ne!(a.kg.triples(), b.kg.triples());
    }

    #[test]
    fn blocks_are_contiguous_and_typed() {
        let gen = generate(&paper_spec(), 0);
        let (start, count) = gen.block("Venue").unwrap();
        assert_eq!(count, 8);
        for i in 0..count as u32 {
            let v = Vid(start + i);
            assert_eq!(gen.kg.class_term(gen.kg.class_of(v)), "Venue");
        }
        assert_eq!(gen.nodes_of("Paper").len(), 200);
        assert!(gen.nodes_of("Nope").is_empty());
    }

    #[test]
    fn cluster_affinity_shapes_edges() {
        // With affinity 1.0, every cites edge stays in-cluster.
        let mut spec = paper_spec();
        spec.edge_types[0].cluster_affinity = 1.0;
        let gen = generate(&spec, 3);
        let cites = gen.kg.find_relation("cites").unwrap();
        for t in gen.kg.triples().iter().filter(|t| t.p == cites) {
            assert_eq!(gen.cluster_of(t.s), gen.cluster_of(t.o));
        }
    }

    #[test]
    fn misc_padding_adds_types() {
        let mut spec = paper_spec();
        let before_types = spec.node_types.len();
        spec.pad_misc_types(10, "Paper", 3);
        assert_eq!(spec.node_types.len(), before_types + 10);
        let gen = generate(&spec, 0);
        assert!(gen.kg.num_classes() >= before_types + 10);
        assert!(gen.kg.find_relation("miscRel0").is_some());
    }

    #[test]
    fn degrees_are_heavy_tailed() {
        let gen = generate(&paper_spec(), 5);
        let g = kgtosa_kg::HeteroGraph::build(&gen.kg);
        let degs: Vec<usize> = (0..g.num_nodes())
            .map(|v| g.total_degree(Vid(v as u32)))
            .collect();
        let max = *degs.iter().max().unwrap();
        let mean = degs.iter().sum::<usize>() as f64 / degs.len() as f64;
        assert!(max as f64 > 3.0 * mean, "max {max} mean {mean}");
    }

    #[test]
    fn skewed_index_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let i = skewed_index(10, 2.0, &mut rng);
            assert!(i < 10);
        }
    }
}
