//! Full-batch RGCN node classification (Schlichtkrull et al.), the
//! no-sampling baseline of the paper's evaluation.
//!
//! Every epoch runs message passing over the *entire* graph, which is why
//! RGCN shows the shortest training time but the largest memory footprint
//! in Figure 6 — and why KG-TOSA's smaller `KG'` shrinks its memory most.

use std::io::{self, Read, Write};
use std::time::Instant;

use kgtosa_kg::Vid;
use kgtosa_tensor::{argmax_rows, softmax_cross_entropy_into, Matrix, ScratchArena, StateIo};

use crate::checkpoint::nc_data_key;
use crate::common::{restrict_labels, run_epochs, NcDataset, TrainConfig, TrainReport, TrainRun};
use crate::stack::{EmbeddingTable, RgcnStack};

/// Computes accuracy of `logits` rows at `nodes` against `labels`.
pub(crate) fn accuracy_at(logits: &Matrix, labels: &[u32], nodes: &[Vid]) -> f64 {
    if nodes.is_empty() {
        return 0.0;
    }
    let preds = argmax_rows(logits);
    let correct = nodes
        .iter()
        .filter(|&&v| preds[v.idx()] == labels[v.idx()])
        .count();
    correct as f64 / nodes.len() as f64
}

struct RgcnRun<'a> {
    data: &'a NcDataset<'a>,
    embed: EmbeddingTable,
    stack: RgcnStack,
    train_labels: Vec<u32>,
    // Per-trainer scratch arena: after the first epoch warms its buffer
    // pool, forward/backward run at zero matrix allocations per epoch
    // (asserted in tests/epoch_allocs.rs).
    arena: ScratchArena,
}

impl StateIo for RgcnRun<'_> {
    fn save_state(&self, w: &mut dyn Write) -> io::Result<()> {
        self.embed.save_state(w)?;
        self.stack.save_state(w)
    }

    fn load_state(&mut self, r: &mut dyn Read) -> io::Result<()> {
        self.embed.load_state(r)?;
        self.stack.load_state(r)
    }
}

impl TrainRun for RgcnRun<'_> {
    fn epoch(&mut self) -> (f64, f64) {
        let Self { data, embed, stack, train_labels, arena } = self;
        let (logits, cache) = stack.forward_arena(data.graph, &embed.weight, arena);
        let mut grad = arena.take(logits.rows(), logits.cols());
        let loss = softmax_cross_entropy_into(&logits, train_labels, &mut grad);
        let grad_x = stack.backward_step_arena(data.graph, &embed.weight, &cache, grad, arena);
        embed.step(&grad_x);
        arena.put(grad_x);
        let metric = accuracy_at(&logits, data.labels, data.valid);
        arena.put(logits);
        cache.recycle(arena);
        arena.reset();
        (loss as f64, metric)
    }

    fn test_metric(&self) -> f64 {
        let (logits, _) = self.stack.forward(self.data.graph, &self.embed.weight);
        accuracy_at(&logits, self.data.labels, self.data.test)
    }

    fn param_count(&self) -> usize {
        self.embed.param_count() + self.stack.param_count()
    }
}

/// Trains full-batch RGCN and reports metric/time/size (Figure 6 rows).
pub fn train_rgcn_nc(data: &NcDataset<'_>, cfg: &TrainConfig) -> TrainReport {
    let n = data.graph.num_nodes();
    let mut run = RgcnRun {
        data,
        embed: EmbeddingTable::new(n, cfg.dim, cfg.lr, cfg.seed),
        stack: RgcnStack::new(
            data.graph.num_relations(),
            cfg.dim,
            cfg.dim,
            data.num_labels,
            cfg.lr,
            cfg.seed + 1,
        ),
        train_labels: restrict_labels(data.labels, data.train, n),
        arena: ScratchArena::new(),
    };
    run_epochs(&mut run, cfg, "RGCN", nc_data_key(data), Instant::now())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgtosa_kg::HeteroGraph;

    use crate::testutil::toy_nc;

    #[test]
    fn learns_separable_task() {
        let (kg, labels, papers) = toy_nc(20);
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
            epochs: 40,
            dim: 8,
            lr: 0.05,
            ..Default::default()
        };
        let report = train_rgcn_nc(&data, &cfg);
        assert!(report.metric > 0.9, "test accuracy {}", report.metric);
        assert_eq!(report.trace.len(), 40);
        assert!(report.param_count > 0);
        // Trace improves over time.
        assert!(report.trace.last().unwrap().metric >= report.trace[0].metric);
    }

    #[test]
    fn accuracy_at_handles_empty() {
        let logits = Matrix::zeros(1, 2);
        assert_eq!(accuracy_at(&logits, &[0], &[]), 0.0);
    }
}
