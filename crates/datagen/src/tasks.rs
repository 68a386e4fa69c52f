//! Task construction: single-label node classification and missing-entity
//! link prediction over generated KGs (Definitions 2.2 / 2.3, Table II).

use kgtosa_kg::{Triple, Vid};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::spec::GeneratedKg;

/// How the train/valid/test split is drawn (Table II "Split" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitKind {
    /// By generation order — a stand-in for the paper's time-based splits.
    Time,
    /// Stratified random shuffle.
    Random,
}

/// A single-label node-classification task.
#[derive(Debug, Clone)]
pub struct NcTask {
    /// Task name, e.g. `PV/MAG`.
    pub name: String,
    /// Class of the target vertices.
    pub target_class: String,
    /// Per-vertex labels (`IGNORE_LABEL` off-target).
    pub labels: Vec<u32>,
    /// Number of label classes.
    pub num_labels: usize,
    /// Split kind used.
    pub split: SplitKind,
    /// Training targets.
    pub train: Vec<Vid>,
    /// Validation targets.
    pub valid: Vec<Vid>,
    /// Test targets.
    pub test: Vec<Vid>,
}

impl NcTask {
    /// All target vertices (train ∪ valid ∪ test).
    pub fn targets(&self) -> Vec<Vid> {
        let mut out = self.train.clone();
        out.extend_from_slice(&self.valid);
        out.extend_from_slice(&self.test);
        out
    }
}

/// Builds an NC task: the label of each target vertex is its latent
/// cluster (coarsened to `num_labels`), flipped to a random label with
/// probability `noise` — the knob controlling task difficulty.
#[allow(clippy::too_many_arguments)]
pub fn make_nc_task(
    gen: &GeneratedKg,
    name: &str,
    target_class: &str,
    num_labels: usize,
    noise: f64,
    split: SplitKind,
    ratios: (f64, f64, f64),
    seed: u64,
) -> NcTask {
    let mut rng = StdRng::seed_from_u64(seed);
    let targets = gen.nodes_of(target_class);
    assert!(!targets.is_empty(), "no vertices of class {target_class}");
    let mut labels = vec![kgtosa_tensor_ignore(); gen.kg.num_nodes()];
    for &v in &targets {
        let mut label = (gen.cluster_of(v) % num_labels) as u32;
        if rng.gen::<f64>() < noise {
            label = rng.gen_range(0..num_labels) as u32;
        }
        labels[v.idx()] = label;
    }
    let (train, valid, test) = split_nodes(targets, split, ratios, &mut rng);
    NcTask {
        name: name.to_string(),
        target_class: target_class.to_string(),
        labels,
        num_labels,
        split,
        train,
        valid,
        test,
    }
}

// Small indirection to avoid a direct tensor dependency in this crate.
const fn kgtosa_tensor_ignore() -> u32 {
    u32::MAX
}

fn split_nodes(
    mut nodes: Vec<Vid>,
    split: SplitKind,
    (tr, va, _te): (f64, f64, f64),
    rng: &mut StdRng,
) -> (Vec<Vid>, Vec<Vid>, Vec<Vid>) {
    if split == SplitKind::Random {
        nodes.shuffle(rng);
    }
    let n = nodes.len();
    let n_train = ((n as f64) * tr).round() as usize;
    let n_valid = ((n as f64) * va).round() as usize;
    let n_train = n_train.min(n);
    let n_valid = n_valid.min(n - n_train);
    let test = nodes.split_off(n_train + n_valid);
    let valid = nodes.split_off(n_train);
    (nodes, valid, test)
}

/// A missing-entity link-prediction task on one predicate.
#[derive(Debug, Clone)]
pub struct LpTask {
    /// Task name, e.g. `AA/DBLP`.
    pub name: String,
    /// The task predicate `p_T`.
    pub predicate: String,
    /// Source (subject) class.
    pub src_class: String,
    /// Destination (object) class.
    pub dst_class: String,
    /// Training triples (also present as graph edges).
    pub train: Vec<Triple>,
    /// Validation triples (held out of the graph).
    pub valid: Vec<Triple>,
    /// Test triples (held out of the graph).
    pub test: Vec<Triple>,
}

impl LpTask {
    /// Target vertices for TOSG extraction: subjects and objects of the
    /// task predicate's classes.
    pub fn target_nodes(&self, gen: &GeneratedKg) -> Vec<Vid> {
        let mut out = gen.nodes_of(&self.src_class);
        out.extend(gen.nodes_of(&self.dst_class));
        out
    }
}

/// Builds an LP task and inserts the training edges into the graph.
///
/// Every source vertex is linked to one destination of its own cluster
/// (with probability `1 - noise`, else a random destination), so the
/// correct object is inferable from cluster-correlated context — held-out
/// triples are predictable, not memorizable.
#[allow(clippy::too_many_arguments)]
pub fn make_lp_task(
    gen: &mut GeneratedKg,
    name: &str,
    predicate: &str,
    src_class: &str,
    dst_class: &str,
    noise: f64,
    split: SplitKind,
    ratios: (f64, f64, f64),
    seed: u64,
) -> LpTask {
    let mut rng = StdRng::seed_from_u64(seed);
    let sources = gen.nodes_of(src_class);
    let dsts = gen.nodes_of(dst_class);
    assert!(!sources.is_empty() && !dsts.is_empty(), "empty LP classes");
    let rel = gen.kg.add_relation(predicate);
    let clusters = gen.clusters;
    let (dst_start, dst_count) = gen.block(dst_class).unwrap();

    let mut triples = Vec::with_capacity(sources.len());
    let per_cluster = dst_count.div_ceil(clusters);
    for &s in &sources {
        let di = if rng.gen::<f64>() < noise || per_cluster == 0 {
            rng.gen_range(0..dst_count)
        } else {
            // A same-cluster destination, popularity-skewed within the
            // residue class so several objects per cluster stay plausible
            // (a single object per cluster would make ranking degenerate).
            let c = gen.cluster_of(s) % clusters;
            let k = ((rng.gen::<f64>().powf(2.0) * per_cluster as f64) as usize)
                .min(per_cluster - 1);
            let idx = c + k * clusters;
            if idx < dst_count {
                idx
            } else {
                c.min(dst_count - 1)
            }
        };
        triples.push(Triple::new(s, rel, Vid(dst_start + di as u32)));
    }
    let (train, valid, test) = split_triples(triples, split, ratios, &mut rng);
    gen.kg.extend_triples(train.iter().copied());
    LpTask {
        name: name.to_string(),
        predicate: predicate.to_string(),
        src_class: src_class.to_string(),
        dst_class: dst_class.to_string(),
        train,
        valid,
        test,
    }
}

fn split_triples(
    mut triples: Vec<Triple>,
    split: SplitKind,
    (tr, va, _te): (f64, f64, f64),
    rng: &mut StdRng,
) -> (Vec<Triple>, Vec<Triple>, Vec<Triple>) {
    if split == SplitKind::Random {
        triples.shuffle(rng);
    }
    let n = triples.len();
    // The paper's LP ratios (e.g. 99/0.5/0.5) are calibrated for millions
    // of triples; at laptop scale they would leave one or two evaluation
    // triples, so a minimum evaluation-set size is enforced.
    let min_eval = (n / 10).min(20);
    let n_valid = (((n as f64) * va).round() as usize).max(min_eval);
    let n_test = (n - ((n as f64) * tr).round() as usize)
        .saturating_sub(n_valid)
        .max(min_eval);
    let n_train = n.saturating_sub(n_valid + n_test);
    let test = triples.split_off(n_train + n_valid);
    let valid = triples.split_off(n_train);
    (triples, valid, test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{generate, EdgeTypeSpec, KgSpec, NodeTypeSpec};

    fn gen() -> GeneratedKg {
        let spec = KgSpec {
            name: "t".into(),
            clusters: 4,
            node_types: vec![
                NodeTypeSpec { name: "Paper".into(), count: 100 },
                NodeTypeSpec { name: "Venue".into(), count: 8 },
            ],
            edge_types: vec![EdgeTypeSpec {
                name: "cites".into(),
                src: "Paper".into(),
                dst: "Paper".into(),
                mean_out: 2.0,
                cluster_affinity: 0.9,
                skew: 0.5,
            }],
        };
        generate(&spec, 11)
    }

    #[test]
    fn nc_task_ratios_and_labels() {
        let g = gen();
        let task = make_nc_task(&g, "PV", "Paper", 4, 0.0, SplitKind::Time, (0.8, 0.1, 0.1), 0);
        assert_eq!(task.train.len(), 80);
        assert_eq!(task.valid.len(), 10);
        assert_eq!(task.test.len(), 10);
        // Noise-free labels equal the cluster.
        for &v in &task.train {
            assert_eq!(task.labels[v.idx()] as usize, g.cluster_of(v) % 4);
        }
        assert_eq!(task.targets().len(), 100);
    }

    #[test]
    fn nc_noise_flips_some_labels() {
        let g = gen();
        let clean = make_nc_task(&g, "PV", "Paper", 4, 0.0, SplitKind::Time, (0.8, 0.1, 0.1), 0);
        let noisy = make_nc_task(&g, "PV", "Paper", 4, 0.9, SplitKind::Time, (0.8, 0.1, 0.1), 0);
        let diff = clean
            .labels
            .iter()
            .zip(&noisy.labels)
            .filter(|(a, b)| a != b)
            .count();
        assert!(diff > 20, "only {diff} labels flipped at 90% noise");
    }

    #[test]
    fn random_split_differs_from_time() {
        let g = gen();
        let t1 = make_nc_task(&g, "x", "Paper", 4, 0.0, SplitKind::Time, (0.8, 0.1, 0.1), 5);
        let t2 = make_nc_task(&g, "x", "Paper", 4, 0.0, SplitKind::Random, (0.8, 0.1, 0.1), 5);
        assert_ne!(t1.train, t2.train);
    }

    #[test]
    fn lp_task_adds_only_train_edges() {
        let mut g = gen();
        let before = g.kg.num_triples();
        let task = make_lp_task(
            &mut g, "PV-LP", "publishedIn", "Paper", "Venue", 0.1,
            SplitKind::Time, (0.8, 0.1, 0.1), 3,
        );
        assert_eq!(g.kg.num_triples(), before + task.train.len());
        assert_eq!(task.train.len() + task.valid.len() + task.test.len(), 100);
        // Held-out triples are not graph edges.
        for t in task.valid.iter().chain(&task.test) {
            assert!(!g.kg.triples().contains(t));
        }
        assert!(!task.target_nodes(&g).is_empty());
    }

    #[test]
    fn lp_links_follow_clusters() {
        let mut g = gen();
        let task = make_lp_task(
            &mut g, "lp", "publishedIn", "Paper", "Venue", 0.0,
            SplitKind::Time, (1.0, 0.0, 0.0), 3,
        );
        for t in &task.train {
            assert_eq!(g.cluster_of(t.o) % g.clusters, g.cluster_of(t.s) % g.clusters);
        }
    }
}
