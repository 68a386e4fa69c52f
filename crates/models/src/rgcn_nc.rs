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

use crate::checkpoint::{nc_data_key, state_fingerprint, Checkpointer};
use crate::common::{restrict_labels, EpochLog, NcDataset, TrainConfig, TrainReport};
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

/// Trains full-batch RGCN and reports metric/time/size (Figure 6 rows).
pub fn train_rgcn_nc(data: &NcDataset<'_>, cfg: &TrainConfig) -> TrainReport {
    let n = data.graph.num_nodes();
    let mut embed = EmbeddingTable::new(n, cfg.dim, cfg.lr, cfg.seed);
    let mut stack = RgcnStack::new(
        data.graph.num_relations(),
        cfg.dim,
        cfg.dim,
        data.num_labels,
        cfg.lr,
        cfg.seed + 1,
    );
    let train_labels = restrict_labels(data.labels, data.train, n);

    fn save_all(w: &mut dyn Write, embed: &EmbeddingTable, stack: &RgcnStack) -> io::Result<()> {
        embed.save_state(w)?;
        stack.save_state(w)
    }

    let ckpt = Checkpointer::from_cfg(cfg, "RGCN", nc_data_key(data));
    let start = Instant::now();
    let mut elog = EpochLog::new("RGCN", cfg.epochs, start);
    let mut trace = Vec::with_capacity(cfg.epochs);
    let mut first_epoch = 1;
    if let Some(c) = &ckpt {
        if let Some((done, t)) = c.resume(|r: &mut dyn Read| {
            embed.load_state(r)?;
            stack.load_state(r)
        }) {
            first_epoch = done + 1;
            trace = t;
        }
    }
    // Per-trainer scratch arena: after the first epoch warms its buffer
    // pool, forward/backward run at zero matrix allocations per epoch
    // (asserted in tests/epoch_allocs.rs).
    let mut arena = ScratchArena::new();
    for epoch in first_epoch..=cfg.epochs {
        let (logits, cache) = stack.forward_arena(data.graph, &embed.weight, &mut arena);
        let mut grad = arena.take(logits.rows(), logits.cols());
        let loss = softmax_cross_entropy_into(&logits, &train_labels, &mut grad);
        let grad_x = stack.backward_step_arena(data.graph, &embed.weight, &cache, grad, &mut arena);
        embed.step(&grad_x);
        arena.put(grad_x);
        let metric = accuracy_at(&logits, data.labels, data.valid);
        arena.put(logits);
        cache.recycle(&mut arena);
        arena.reset();
        trace.push(elog.epoch(cfg, epoch, loss as f64, metric));
        if let Some(c) = &ckpt {
            c.maybe_save(epoch, cfg.epochs, &trace, |w| save_all(w, &embed, &stack));
        }
    }
    let training_s = start.elapsed().as_secs_f64();

    let infer_start = Instant::now();
    let (logits, _) = stack.forward(data.graph, &embed.weight);
    let metric = accuracy_at(&logits, data.labels, data.test);
    let inference_s = infer_start.elapsed().as_secs_f64();

    TrainReport {
        method: "RGCN".into(),
        epochs: cfg.epochs,
        training_s,
        inference_s,
        param_count: embed.param_count() + stack.param_count(),
        metric,
        param_hash: state_fingerprint(|w| save_all(w, &embed, &stack)),
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgtosa_kg::HeteroGraph;

    use crate::testutil::toy_nc;

    #[test]
    fn learns_separable_task() {
        let (kg, labels, papers) = toy_nc();
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
