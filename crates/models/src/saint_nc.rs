//! GraphSAINT node classification: subgraph-sampled mini-batch training
//! with loss normalization (Zeng et al., ICLR'20).
//!
//! Each epoch samples one subgraph (uniform random walk by default — the
//! paper's "GraphSAINT+BRW" configuration swaps in the biased walk of
//! Algorithm 1), trains the shared RGCN weights on it, and updates only
//! the embedding rows the subgraph touched.

use std::io::{self, Read, Write};
use std::time::Instant;

use kgtosa_kg::NodeSet;
use kgtosa_sampler::{biased_random_walk, node_norm_weights, uniform_random_walk, WalkConfig};
use kgtosa_tensor::{AdamConfig, ScratchArena, SparseAdam, StateIo};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checkpoint::{nc_data_key, read_rng, write_rng};
use crate::common::{
    run_epochs, weighted_cross_entropy_into, NcDataset, TrainConfig, TrainReport, TrainRun,
};
use crate::rgcn_nc::accuracy_at;
use crate::stack::{EmbeddingTable, RgcnStack};
use crate::view::SubgraphView;

/// Which subgraph sampler drives each epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaintSampler {
    /// GraphSAINT's default uniform random walk.
    Uniform,
    /// The paper's task-biased walk (Algorithm 1) — "GraphSAINT+BRW".
    Biased,
}

impl SaintSampler {
    fn label(self) -> &'static str {
        match self {
            SaintSampler::Uniform => "GraphSAINT",
            SaintSampler::Biased => "GraphSAINT+BRW",
        }
    }
}

struct SaintRun<'a> {
    data: &'a NcDataset<'a>,
    sampler: SaintSampler,
    /// Walk shape of the per-epoch sampler (roots scale with batch size).
    walk: WalkConfig,
    cfg: &'a TrainConfig,
    // The RNG stream is part of the state: on resume it continues exactly
    // where the interrupted run's sampler left off.
    rng: StdRng,
    embed: EmbeddingTable,
    embed_opt: SparseAdam,
    stack: RgcnStack,
    /// Loss-normalization coefficient per vertex.
    norms: Vec<f32>,
    /// Train-membership mask for label restriction inside sampled subgraphs.
    in_train: Vec<bool>,
    // Per-trainer scratch arena: subgraph shapes vary per epoch, but the
    // buffer pool converges to the largest batch and stops allocating.
    arena: ScratchArena,
}

/// Draws one subgraph's vertex set.
fn sample(
    data: &NcDataset<'_>,
    sampler: SaintSampler,
    walk: &WalkConfig,
    rng: &mut StdRng,
) -> NodeSet {
    match sampler {
        SaintSampler::Uniform => uniform_random_walk(data.graph, walk, rng),
        SaintSampler::Biased => biased_random_walk(data.graph, data.train, walk, rng),
    }
}

impl StateIo for SaintRun<'_> {
    fn save_state(&self, w: &mut dyn Write) -> io::Result<()> {
        write_rng(w, &self.rng)?;
        self.embed.save_state(w)?;
        self.embed_opt.save_state(w)?;
        self.stack.save_state(w)
    }

    fn load_state(&mut self, r: &mut dyn Read) -> io::Result<()> {
        read_rng(r, &mut self.rng)?;
        self.embed.load_state(r)?;
        self.embed_opt.load_state(r)?;
        self.stack.load_state(r)
    }
}

impl TrainRun for SaintRun<'_> {
    fn epoch(&mut self) -> (f64, f64) {
        let nodes = sample(self.data, self.sampler, &self.walk, &mut self.rng);
        let Self { data, cfg, embed, embed_opt, stack, norms, in_train, arena, .. } = self;
        let mut loss = 0.0f32;
        // An empty sample (degenerate graph) skips the update but still
        // reports the epoch, so traces and telemetry stay per-epoch.
        if !nodes.is_empty() {
            let view = SubgraphView::build(data.kg, &nodes);
            let rows = view.parent_rows();
            let mut x = arena.take(rows.len(), cfg.dim);
            embed.weight.gather_rows_into(&rows, &mut x);
            let (logits, cache) = stack.forward_arena(&view.graph, &x, arena);
            // Per-row labels and normalization weights in subgraph space.
            let mut labels = vec![kgtosa_tensor::IGNORE_LABEL; rows.len()];
            let mut weights = vec![0.0f32; rows.len()];
            for (i, &parent) in view.to_parent.iter().enumerate() {
                if in_train[parent.idx()] {
                    labels[i] = data.labels[parent.idx()];
                    weights[i] = norms[parent.idx()];
                }
            }
            let mut grad = arena.take(logits.rows(), logits.cols());
            loss = weighted_cross_entropy_into(&logits, &labels, &weights, &mut grad);
            let grad_x = stack.backward_step_arena(&view.graph, &x, &cache, grad, arena);
            embed_opt.step_rows(&mut embed.weight, &rows, &grad_x);
            arena.put(grad_x);
            arena.put(logits);
            cache.recycle(arena);
            arena.put(x);
        }

        // Full-graph validation forward (standard GraphSAINT evaluation).
        let (full_logits, full_cache) = stack.forward_arena(data.graph, &embed.weight, arena);
        let metric = accuracy_at(&full_logits, data.labels, data.valid);
        arena.put(full_logits);
        full_cache.recycle(arena);
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

/// Trains GraphSAINT and reports metric/time/size.
pub fn train_graphsaint_nc(
    data: &NcDataset<'_>,
    cfg: &TrainConfig,
    sampler: SaintSampler,
) -> TrainReport {
    let n = data.graph.num_nodes();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let walk = WalkConfig { roots: cfg.batch_size.max(8), walk_length: 2 };

    let start = Instant::now();
    // Pre-sampling phase: estimate node sampling probabilities for the loss
    // normalization coefficients.
    let presamples: Vec<_> = (0..10).map(|_| sample(data, sampler, &walk, &mut rng)).collect();
    let norms = node_norm_weights(n, &presamples, 50.0);

    let mut in_train = vec![false; n];
    for &v in data.train {
        in_train[v.idx()] = true;
    }
    let mut run = SaintRun {
        data,
        sampler,
        walk,
        cfg,
        rng,
        embed: EmbeddingTable::new(n, cfg.dim, cfg.lr, cfg.seed),
        embed_opt: SparseAdam::new(n, cfg.dim, AdamConfig { lr: cfg.lr, ..Default::default() }),
        stack: RgcnStack::new(
            data.graph.num_relations(),
            cfg.dim,
            cfg.dim,
            data.num_labels,
            cfg.lr,
            cfg.seed + 1,
        ),
        norms,
        in_train,
        arena: ScratchArena::new(),
    };
    run_epochs(&mut run, cfg, sampler.label(), nc_data_key(data), start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgtosa_kg::HeteroGraph;

    #[test]
    fn learns_toy_task_with_both_samplers() {
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
            epochs: 60,
            dim: 8,
            lr: 0.05,
            batch_size: 16,
            ..Default::default()
        };
        for sampler in [SaintSampler::Uniform, SaintSampler::Biased] {
            let report = train_graphsaint_nc(&data, &cfg, sampler);
            assert!(
                report.metric > 0.7,
                "{}: accuracy {}",
                report.method,
                report.metric
            );
        }
    }

    #[test]
    fn method_labels() {
        assert_eq!(SaintSampler::Uniform.label(), "GraphSAINT");
        assert_eq!(SaintSampler::Biased.label(), "GraphSAINT+BRW");
    }
}
