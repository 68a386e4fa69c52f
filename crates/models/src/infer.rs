//! Inference-only reconstruction of a trained RGCN NC model.
//!
//! A `KGTOSAC1` checkpoint stores the trainer's state blob —
//! [`EmbeddingTable`] then [`RgcnStack`], exactly as
//! [`crate::rgcn_nc::train_rgcn_nc`] saves them — but not the shapes that
//! state was created under; those are pinned by the fingerprint. Given
//! the same shapes ([`NcModelShape`]), [`RgcnNcModel::from_state`]
//! rebuilds the model and loads the blob, and prediction is then a pure
//! function of (state, graph): the daemon can serve the same checkpoint
//! from any number of threads and every response is bit-identical to a
//! fresh in-process forward pass (the repo's determinism contract).

use std::cell::RefCell;
use std::io::{self, Read};

use kgtosa_kg::{HeteroGraph, Vid};
use kgtosa_tensor::{argmax_rows, Matrix, ScratchArena, StateIo};

use crate::checkpoint::state_fingerprint;
use crate::common::TrainConfig;
use crate::stack::{EmbeddingTable, RgcnStack};

/// The shapes an RGCN NC checkpoint's state was created under. These must
/// match training exactly — the loader checks sizes structurally, and the
/// caller is expected to have matched the checkpoint fingerprint first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NcModelShape {
    /// Node count of the training graph.
    pub nodes: usize,
    /// Relation count of the training graph.
    pub relations: usize,
    /// Embedding / hidden dimension.
    pub dim: usize,
    /// Number of label classes.
    pub num_labels: usize,
    /// Learning rate (part of optimizer state shape only, not math).
    pub lr: f32,
    /// Seed the trainer initialized from (overwritten by the load, kept
    /// so a shape can also build an *untrained* twin for tests).
    pub seed: u64,
}

impl NcModelShape {
    /// Derives the shape from a training config plus graph/task facts,
    /// mirroring the constructor calls in `train_rgcn_nc`.
    pub fn from_config(cfg: &TrainConfig, nodes: usize, relations: usize, num_labels: usize) -> Self {
        Self { nodes, relations, dim: cfg.dim, num_labels, lr: cfg.lr, seed: cfg.seed }
    }

    /// The node count a checkpoint state blob was trained under: the row
    /// count its embedding table — the blob's first record — opens with.
    /// `None` when the blob is too short to say.
    pub fn trained_nodes(state: &[u8]) -> Option<usize> {
        let rows = state.get(..8)?.try_into().ok()?;
        usize::try_from(u64::from_le_bytes(rows)).ok()
    }
}

/// A frozen RGCN NC model rebuilt from checkpoint state.
pub struct RgcnNcModel {
    embed: EmbeddingTable,
    stack: RgcnStack,
    shape: NcModelShape,
    /// Fingerprint of the loaded state; the model never changes after the
    /// load, so it is computed there, once.
    param_hash: u64,
}

/// Marks a vertex outside the receptive field in [`ReceptiveField::pos`].
const ABSENT: u32 = u32::MAX;

/// The largest share of the full forward's neighbour-row reads
/// (`2 · |undirected edges|`: every edge from both ends, in both layers) at
/// which [`RgcnNcModel::predict_nodes`] still runs the rows-restricted
/// forward. Shape-only, known before any arithmetic. Measured on MAG 0.25 /
/// 1 / 2 at d = 16 and 64 over random vertex sets and prefixes of the target
/// class (table in DESIGN.md, "Kernel compute core"): the restricted path
/// takes 0.60–0.94× the full forward's time at a share of 0.52–0.54, breaks
/// even between 0.6 and 0.75, and takes 1.10–1.26× at 1 — there it reads the
/// same rows but also walks the field and translates every neighbour list.
const RESTRICTED_MAX_SHARE: f64 = 0.5;

/// The receptive field `F1` of a request: the distinct requested vertices
/// `S` in first-request order, then their neighbours not among them.
#[derive(Default)]
struct ReceptiveField {
    vertices: Vec<u32>,
    /// `pos[v]` = position of `v` in `vertices`, [`ABSENT`] elsewhere; one
    /// entry per vertex of the graph. Only the field's entries are ever
    /// written, and [`ReceptiveField::restart`] clears exactly those, so no
    /// call pays O(|V|) — and a call that panicked leaves nothing behind.
    pos: Vec<u32>,
}

impl ReceptiveField {
    /// Empties the field and sizes the map for a graph of `nodes` vertices
    /// (`/admin/update` grows |V| between calls).
    fn restart(&mut self, nodes: usize) {
        for v in self.vertices.drain(..) {
            if let Some(p) = self.pos.get_mut(v as usize) {
                *p = ABSENT;
            }
        }
        self.pos.resize(nodes, ABSENT);
    }

    fn enter(&mut self, v: u32) {
        if self.pos[v as usize] == ABSENT {
            // Listed before marked: whatever is marked gets cleared.
            self.vertices.push(v);
            self.pos[v as usize] = self.vertices.len() as u32 - 1;
        }
    }
}

/// What a thread keeps between [`RgcnNcModel::predict_nodes`] calls.
#[derive(Default)]
struct PredictScratch {
    /// Forward-pass intermediates: a daemon worker's steady-state `/infer`
    /// allocates no matrix.
    arena: ScratchArena,
    field: ReceptiveField,
}

thread_local! {
    static PREDICT_SCRATCH: RefCell<PredictScratch> = RefCell::default();
}

impl RgcnNcModel {
    /// The model a trainer configured like `shape` starts from: Xavier
    /// weights, no training. Deterministic in `shape`; what tests and the
    /// `kernels` bench predict with when no checkpoint is at hand.
    pub fn untrained(shape: NcModelShape) -> Self {
        let (embed, stack) = Self::initial_state(shape);
        Self::sealed(shape, embed, stack)
    }

    /// Rebuilds the model under `shape` and loads `state` (the checkpoint
    /// blob, checksum already verified by the registry). Trailing bytes
    /// mean the shape disagrees with the file and are an error — a
    /// mis-shaped load must never silently produce a half-loaded model.
    pub fn from_state(shape: NcModelShape, state: &[u8]) -> io::Result<Self> {
        let (mut embed, mut stack) = Self::initial_state(shape);
        let mut r: &[u8] = state;
        embed.load_state(&mut r)?;
        stack.load_state(&mut r)?;
        let mut rest = [0u8; 1];
        if r.read(&mut rest)? != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "checkpoint state longer than the given model shape",
            ));
        }
        Ok(Self::sealed(shape, embed, stack))
    }

    /// The constructor calls of `train_rgcn_nc`.
    fn initial_state(shape: NcModelShape) -> (EmbeddingTable, RgcnStack) {
        let embed = EmbeddingTable::new(shape.nodes, shape.dim, shape.lr, shape.seed);
        let stack = RgcnStack::new(
            shape.relations,
            shape.dim,
            shape.dim,
            shape.num_labels,
            shape.lr,
            shape.seed + 1,
        );
        (embed, stack)
    }

    fn sealed(shape: NcModelShape, embed: EmbeddingTable, stack: RgcnStack) -> Self {
        let param_hash = state_fingerprint(|w| {
            embed.save_state(w)?;
            stack.save_state(w)
        });
        Self { embed, stack, shape, param_hash }
    }

    /// The shape this model was rebuilt under.
    pub fn shape(&self) -> &NcModelShape {
        &self.shape
    }

    /// Full-graph logits (one row per node).
    pub fn logits(&self, graph: &HeteroGraph) -> Matrix {
        self.stack.forward(graph, &self.embed.weight).0
    }

    /// Predicted class per node for the whole graph.
    pub fn predict(&self, graph: &HeteroGraph) -> Vec<u32> {
        argmax_rows(&self.logits(graph))
    }

    /// Predicted classes for a subset of nodes, in the order given (repeats
    /// allowed): [`RgcnNcModel::predict`] at `nodes`, bit for bit, at the
    /// cost of the request's receptive field rather than of the graph. With
    /// `S` the distinct requested vertices and `F1 = S ∪ N(S)` (one walk of
    /// the undirected adjacency), layer 1 runs over `F1` against the
    /// embedding table and layer 2 over `S` against those `F1` rows
    /// ([`RgcnLayer::forward_rows_arena`](kgtosa_nn::RgcnLayer::forward_rows_arena)).
    /// A field that would read more than [`RESTRICTED_MAX_SHARE`] of the
    /// neighbour rows the full forward reads runs the full forward instead.
    /// Nothing on the restricted path is O(|V|), and an empty request runs
    /// no forward at all.
    ///
    /// Counts its exact work into `infer.rows` (output rows, both layers)
    /// and `infer.edge_visits` (neighbour rows read, both layers), and each
    /// full forward into `infer.full_forward`.
    pub fn predict_nodes(&self, graph: &HeteroGraph, nodes: &[Vid]) -> Vec<u32> {
        if nodes.is_empty() {
            return Vec::new();
        }
        PREDICT_SCRATCH.with(|scratch| {
            let PredictScratch { arena, field } = &mut *scratch.borrow_mut();
            field.restart(graph.num_nodes());
            nodes.iter().for_each(|v| field.enter(v.0));
            let requested = field.vertices.len();
            let adjacency = graph.undirected();
            let full_visits = 2 * adjacency.num_edges() as u64;
            let budget = (full_visits as f64 * RESTRICTED_MAX_SHARE) as u64;
            // Layer 1 reads the neighbours of F1, layer 2 those of S ⊆ F1.
            // The walk stops as soon as the part counted settles the choice.
            let mut visits = 0u64;
            let mut walked = 0;
            while walked < field.vertices.len() && visits <= budget {
                let v = Vid(field.vertices[walked]);
                let degree = adjacency.degree(v) as u64;
                if walked < requested {
                    visits += 2 * degree;
                    adjacency.neighbors(v).iter().for_each(|&j| field.enter(j));
                } else {
                    visits += degree;
                }
                walked += 1;
            }
            if visits > budget {
                kgtosa_obs::counter("infer.full_forward").inc();
                count_work(2 * graph.num_nodes(), full_visits);
                let (logits, cache) = self.stack.forward_arena(graph, &self.embed.weight, arena);
                let rows: Vec<u32> = nodes.iter().map(|v| v.0).collect();
                let preds = argmax_rows(&logits.gather_rows(&rows));
                arena.put(logits);
                cache.recycle(arena);
                return preds;
            }
            let (layer1, layer2) = (&self.stack.layer1, &self.stack.layer2);
            let (f1, pos) = (&field.vertices[..], &field.pos[..]);
            let (h1, read1) =
                layer1.forward_rows_arena(graph, &self.embed.weight, None, f1, pos, arena);
            let (logits, read2) =
                layer2.forward_rows_arena(graph, &h1, Some(pos), &f1[..requested], pos, arena);
            count_work(field.vertices.len() + requested, read1 + read2);
            let per_vertex = argmax_rows(&logits);
            arena.put(h1);
            arena.put(logits);
            nodes.iter().map(|v| per_vertex[field.pos[v.idx()] as usize]).collect()
        })
    }

    /// Trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.embed.param_count() + self.stack.param_count()
    }

    /// FNV fingerprint of the loaded state — comparable to
    /// [`crate::common::TrainReport::param_hash`]: equality proves the
    /// served model is bit-identical to the trainer's final state.
    pub fn param_hash(&self) -> u64 {
        self.param_hash
    }
}

/// Adds one `predict_nodes` call's work to the `infer.*` counters.
fn count_work(rows: usize, edge_visits: u64) {
    kgtosa_obs::counter("infer.rows").add(rows as u64);
    kgtosa_obs::counter("infer.edge_visits").add(edge_visits);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointConfig;
    use crate::common::{NcDataset, TrainConfig};
    use crate::registry::{read_validated_state, CheckpointRegistry};
    use kgtosa_kg::HeteroGraph;

    #[test]
    fn reloaded_model_matches_trainer_bit_for_bit() {
        let dir = std::env::temp_dir().join(format!("kgtosa-infer-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let (kg, labels, papers) = crate::testutil::toy_nc(20);
        let graph = HeteroGraph::build(&kg);
        let (train, rest) = papers.split_at(12);
        let (valid, test) = rest.split_at(4);
        let data = NcDataset {
            kg: &kg,
            graph: &graph,
            labels: &labels,
            num_labels: 2,
            train,
            valid,
            test,
        };
        let cfg = TrainConfig {
            epochs: 8,
            dim: 8,
            lr: 0.05,
            checkpoint: Some(CheckpointConfig::new(&dir)),
            ..Default::default()
        };
        let report = crate::rgcn_nc::train_rgcn_nc(&data, &cfg);

        let reg = CheckpointRegistry::scan(&dir).unwrap();
        let info = reg.by_method("RGCN").expect("checkpoint indexed");
        let (_, state) = read_validated_state(&info.path).unwrap();
        let shape = NcModelShape::from_config(&cfg, graph.num_nodes(), graph.num_relations(), 2);
        let model = RgcnNcModel::from_state(shape, &state).unwrap();

        // Bit-identity with the trainer's final state.
        assert_eq!(model.param_hash(), report.param_hash);
        assert_eq!(model.param_count(), report.param_count);

        // The served prediction reproduces the trainer's test accuracy.
        let preds = model.predict_nodes(&graph, test);
        let correct = test
            .iter()
            .zip(&preds)
            .filter(|(v, p)| labels[v.idx()] == **p)
            .count();
        let acc = correct as f64 / test.len() as f64;
        assert!((acc - report.metric).abs() < 1e-12, "{acc} vs {}", report.metric);

        // Two independent loads predict identically (pure function of state).
        let model2 = RgcnNcModel::from_state(shape, &state).unwrap();
        assert_eq!(model2.predict(&graph), model.predict(&graph));

        // A wrong shape is an error, never a silent partial load.
        let wrong = NcModelShape { dim: 4, ..shape };
        assert!(RgcnNcModel::from_state(wrong, &state).is_err());

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An untrained served-shape model over MAG at `scale`, with its graph
    /// and the task's test split.
    fn mag_model(scale: f64, seed: u64) -> (HeteroGraph, RgcnNcModel, Vec<Vid>) {
        let data = kgtosa_datagen::mag(scale, seed);
        let graph = HeteroGraph::build(&data.gen.kg);
        let shape = NcModelShape {
            nodes: graph.num_nodes(),
            relations: graph.num_relations(),
            dim: 8,
            num_labels: data.nc[0].num_labels,
            lr: 0.05,
            seed,
        };
        (graph, RgcnNcModel::untrained(shape), data.nc[0].test.clone())
    }

    /// What one `predict_nodes` call adds to the `infer.*` counters:
    /// `(rows, edge_visits, full_forward)`.
    fn counted(model: &RgcnNcModel, graph: &HeteroGraph, nodes: &[Vid]) -> (Vec<u32>, [u64; 3]) {
        let ctx = kgtosa_obs::TelemetryContext::new("predict_nodes");
        let preds = {
            let _scope = ctx.enter();
            model.predict_nodes(graph, nodes)
        };
        let counts = ["infer.rows", "infer.edge_visits", "infer.full_forward"]
            .map(|name| ctx.counter_delta(name));
        (preds, counts)
    }

    /// `predict_nodes` ≡ `predict` indexed at the nodes, on both sides of
    /// the selection rule — a few test nodes (rows-restricted forward) and
    /// every vertex (full forward), each out of order and with repeats — on
    /// a thread's first call, on later ones (which run in the scratch the
    /// other path left behind), and from two threads inside the call at the
    /// same time. The empty request answers without any forward.
    #[test]
    fn predict_nodes_is_predict_at_the_nodes() {
        let (graph, model, test) = mag_model(0.05, 11);
        let all = model.predict(&graph);
        assert!(all.iter().any(|&p| p != all[0]), "a constant prediction proves nothing");
        let few: Vec<Vid> = test.iter().rev().take(12).chain(&test[..3]).copied().collect();
        let every: Vec<Vid> = (0..graph.num_nodes() as u32).rev().chain([5, 5, 0]).map(Vid).collect();
        let expect = |nodes: &[Vid]| nodes.iter().map(|v| all[v.idx()]).collect::<Vec<u32>>();

        let (preds, [rows, _, full]) = counted(&model, &graph, &few);
        assert_eq!(preds, expect(&few), "first call");
        assert!(full == 0 && (rows as usize) < graph.num_nodes() / 4, "{rows} rows, {full} full");
        let (preds, [rows, _, full]) = counted(&model, &graph, &every);
        assert_eq!(preds, expect(&every), "every vertex");
        assert_eq!((rows as usize, full), (2 * graph.num_nodes(), 1));
        assert_eq!(model.predict_nodes(&graph, &few), expect(&few), "reused scratch");
        let (preds, counts) = counted(&model, &graph, &[]);
        assert_eq!((preds, counts), (Vec::new(), [0, 0, 0]), "no nodes, no forward");

        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    barrier.wait();
                    for call in 0..3 {
                        assert_eq!(model.predict_nodes(&graph, &few), expect(&few), "call {call}");
                        assert_eq!(model.predict_nodes(&graph, &every), expect(&every), "call {call}");
                    }
                });
            }
        });
    }

    /// The `infer.*` counters are exact: the same at 1 and 8 pool threads,
    /// and equal to |F1| + |S| and to the degrees of F1 and of S summed over
    /// the per-relation CSRs, with F1 derived from those CSRs too.
    #[test]
    fn predict_nodes_counts_its_exact_work() {
        let (graph, model, test) = mag_model(0.25, 7);
        let nodes: Vec<Vid> = test.iter().step_by(3).take(64).chain(&test[..2]).copied().collect();
        let relations = || (0..graph.num_relations()).map(|r| graph.relation(kgtosa_kg::Rid(r as u32)));
        let requested: std::collections::BTreeSet<u32> = nodes.iter().map(|v| v.0).collect();
        let mut field = requested.clone();
        for adj in relations() {
            for &v in &requested {
                field.extend(adj.inc.neighbors(Vid(v)));
                field.extend(adj.out.neighbors(Vid(v)));
            }
        }
        let degrees = |set: &std::collections::BTreeSet<u32>| -> u64 {
            relations()
                .flat_map(|adj| set.iter().map(|&v| adj.inc.degree(Vid(v)) + adj.out.degree(Vid(v))))
                .sum::<usize>() as u64
        };
        let want = [(field.len() + requested.len()) as u64, degrees(&field) + degrees(&requested), 0];
        // A 64-node request on MAG 0.25 touches ≈ 450 of 2 × 8 276 rows.
        assert!(want[0] * 20 < 2 * graph.num_nodes() as u64, "{} rows", want[0]);
        for threads in [1usize, 8] {
            let (_, counts) = kgtosa_par::with_threads(threads, || counted(&model, &graph, &nodes));
            assert_eq!(counts, want, "threads={threads}");
        }
    }
}
