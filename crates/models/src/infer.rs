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

thread_local! {
    /// Intermediates of [`RgcnNcModel::predict_nodes`]'s forward pass, kept
    /// by each calling thread between calls: a daemon worker's steady-state
    /// `/infer` allocates no |V|-row matrix.
    static PREDICT_ARENA: RefCell<ScratchArena> = RefCell::new(ScratchArena::new());
}

impl RgcnNcModel {
    /// Rebuilds the model under `shape` and loads `state` (the checkpoint
    /// blob, checksum already verified by the registry). Trailing bytes
    /// mean the shape disagrees with the file and are an error — a
    /// mis-shaped load must never silently produce a half-loaded model.
    pub fn from_state(shape: NcModelShape, state: &[u8]) -> io::Result<Self> {
        let mut embed = EmbeddingTable::new(shape.nodes, shape.dim, shape.lr, shape.seed);
        let mut stack = RgcnStack::new(
            shape.relations,
            shape.dim,
            shape.dim,
            shape.num_labels,
            shape.lr,
            shape.seed + 1,
        );
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
        let param_hash = state_fingerprint(|w| {
            embed.save_state(w)?;
            stack.save_state(w)
        });
        Ok(Self { embed, stack, shape, param_hash })
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

    /// Predicted classes for a subset of nodes, in the order given:
    /// [`RgcnNcModel::predict`] at `nodes`, with the argmax taken over those
    /// rows only and the forward pass run in this thread's recycled arena.
    pub fn predict_nodes(&self, graph: &HeteroGraph, nodes: &[Vid]) -> Vec<u32> {
        let rows: Vec<u32> = nodes.iter().map(|v| v.0).collect();
        PREDICT_ARENA.with(|arena| {
            let arena = &mut *arena.borrow_mut();
            let (logits, cache) = self.stack.forward_arena(graph, &self.embed.weight, arena);
            let preds = argmax_rows(&logits.gather_rows(&rows));
            arena.put(logits);
            cache.recycle(arena);
            preds
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

        let (kg, labels, papers) = crate::testutil::toy_nc();
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

    /// `predict_nodes` ≡ `predict` indexed at the nodes — on a thread's
    /// first call, on its second (which runs in the arena the first one
    /// refilled), and from two threads inside the call at the same time.
    #[test]
    fn predict_nodes_is_predict_at_the_nodes() {
        let (kg, _, papers) = crate::testutil::toy_nc();
        let graph = HeteroGraph::build(&kg);
        let shape = NcModelShape {
            nodes: graph.num_nodes(),
            relations: graph.num_relations(),
            dim: 8,
            num_labels: 3,
            lr: 0.05,
            seed: 11,
        };
        // An untrained model: the Xavier state a trainer would start from.
        let mut state = Vec::new();
        EmbeddingTable::new(shape.nodes, shape.dim, shape.lr, shape.seed)
            .save_state(&mut state)
            .unwrap();
        RgcnStack::new(shape.relations, shape.dim, shape.dim, shape.num_labels, shape.lr, shape.seed + 1)
            .save_state(&mut state)
            .unwrap();
        let model = RgcnNcModel::from_state(shape, &state).unwrap();

        let all = model.predict(&graph);
        assert!(all.iter().any(|&p| p != all[0]), "a constant prediction proves nothing");
        // Out of order, with a repeat, and a strict subset of the graph.
        let nodes: Vec<Vid> = papers.iter().rev().chain(&papers[..3]).copied().collect();
        let expect: Vec<u32> = nodes.iter().map(|v| all[v.idx()]).collect();

        assert_eq!(model.predict_nodes(&graph, &nodes), expect, "first call");
        assert_eq!(model.predict_nodes(&graph, &nodes), expect, "reused arena");
        assert_eq!(model.predict_nodes(&graph, &[]), Vec::<u32>::new());

        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    barrier.wait();
                    for call in 0..3 {
                        assert_eq!(model.predict_nodes(&graph, &nodes), expect, "call {call}");
                    }
                });
            }
        });
    }
}
