//! ShaDowSAINT node classification (Zeng et al., "decoupling the depth and
//! scope of GNNs").
//!
//! Instead of one global graph per epoch, every target vertex gets its own
//! *shallow* bounded subgraph (depth-limited, fanout-capped ego net); the
//! GNN runs entirely inside that scope and the root's output row is the
//! prediction. Gradients from a mini-batch of roots are accumulated and
//! applied once, and only the touched embedding rows update.

use std::io::{self, Read, Write};
use std::time::Instant;

use kgtosa_kg::{FxHashMap, Vid};
use kgtosa_nn::{recycle_rgcn_grads, RgcnGrads};
use kgtosa_sampler::{ego_subgraph, ShadowConfig};
use kgtosa_tensor::{
    argmax_rows, softmax_cross_entropy_into, AdamConfig, Matrix, ScratchArena, SparseAdam, StateIo,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::checkpoint::{nc_data_key, read_rng, read_vids_into, write_rng, write_vids};
use crate::common::{run_epochs, NcDataset, TrainConfig, TrainReport, TrainRun};
use crate::stack::{EmbeddingTable, RgcnStack};
use crate::view::SubgraphView;

/// Zero-initialized gradients shaped like a stack's two layers.
fn zero_grads(stack: &RgcnStack) -> (RgcnGrads, RgcnGrads) {
    let zeros_like = |layer: &kgtosa_nn::RgcnLayer| RgcnGrads {
        w_fwd: layer
            .w_fwd
            .iter()
            .map(|w| Matrix::zeros(w.rows(), w.cols()))
            .collect(),
        w_rev: layer
            .w_rev
            .iter()
            .map(|w| Matrix::zeros(w.rows(), w.cols()))
            .collect(),
        w_self: Matrix::zeros(layer.w_self.rows(), layer.w_self.cols()),
        b: vec![0.0; layer.b.len()],
    };
    (zeros_like(&stack.layer1), zeros_like(&stack.layer2))
}

fn acc_grads(dst: &mut RgcnGrads, src: &RgcnGrads) {
    for (d, s) in dst.w_fwd.iter_mut().zip(&src.w_fwd) {
        d.add_assign(s);
    }
    for (d, s) in dst.w_rev.iter_mut().zip(&src.w_rev) {
        d.add_assign(s);
    }
    dst.w_self.add_assign(&src.w_self);
    for (d, &s) in dst.b.iter_mut().zip(&src.b) {
        *d += s;
    }
}

fn scale_grads(g: &mut RgcnGrads, alpha: f32) {
    for m in g.w_fwd.iter_mut().chain(g.w_rev.iter_mut()) {
        m.scale(alpha);
    }
    g.w_self.scale(alpha);
    for b in &mut g.b {
        *b *= alpha;
    }
}

/// Predicts the label logits of one root via its ego subgraph.
fn forward_root(
    data: &NcDataset<'_>,
    stack: &RgcnStack,
    embed: &Matrix,
    root: Vid,
    shadow: &ShadowConfig,
    rng: &mut StdRng,
) -> Vec<f32> {
    let ego = ego_subgraph(data.graph, root, shadow, rng);
    let view = SubgraphView::build_ordered(data.kg, &ego);
    let x = embed.gather_rows(&view.parent_rows());
    let (logits, _) = stack.forward(&view.graph, &x);
    logits.row(0).to_vec()
}

struct ShadowRun<'a> {
    data: &'a NcDataset<'a>,
    cfg: &'a TrainConfig,
    shadow: ShadowConfig,
    rng: StdRng,
    embed: EmbeddingTable,
    embed_opt: SparseAdam,
    stack: RgcnStack,
    // The in-place shuffle accumulates across epochs, so the current order
    // is resumable state alongside the RNG stream.
    train_nodes: Vec<Vid>,
    // Per-trainer scratch arena: ego subgraph shapes vary per root, but
    // the buffer pool converges to the largest scope and stops allocating.
    arena: ScratchArena,
}

impl StateIo for ShadowRun<'_> {
    fn save_state(&self, w: &mut dyn Write) -> io::Result<()> {
        write_rng(w, &self.rng)?;
        self.embed.save_state(w)?;
        self.embed_opt.save_state(w)?;
        self.stack.save_state(w)?;
        write_vids(w, &self.train_nodes)
    }

    fn load_state(&mut self, r: &mut dyn Read) -> io::Result<()> {
        read_rng(r, &mut self.rng)?;
        self.embed.load_state(r)?;
        self.embed_opt.load_state(r)?;
        self.stack.load_state(r)?;
        read_vids_into(r, &mut self.train_nodes)
    }
}

impl TrainRun for ShadowRun<'_> {
    fn epoch(&mut self) -> (f64, f64) {
        let Self { data, cfg, shadow, rng, embed, embed_opt, stack, train_nodes, arena } = self;
        train_nodes.shuffle(rng);
        let mut epoch_loss = 0.0f64;
        for batch in train_nodes.chunks(cfg.batch_size.max(1)) {
            let (mut acc1, mut acc2) = zero_grads(stack);
            let mut embed_grads: FxHashMap<u32, Vec<f32>> = FxHashMap::default();
            for &root in batch {
                let ego = ego_subgraph(data.graph, root, shadow, rng);
                let view = SubgraphView::build_ordered(data.kg, &ego);
                let rows = view.parent_rows();
                let mut x = arena.take(rows.len(), cfg.dim);
                embed.weight.gather_rows_into(&rows, &mut x);
                let (logits, cache) = stack.forward_arena(&view.graph, &x, arena);
                // Loss only at the root (row 0).
                let mut labels = vec![kgtosa_tensor::IGNORE_LABEL; rows.len()];
                labels[0] = data.labels[root.idx()];
                let mut grad = arena.take(logits.rows(), logits.cols());
                let root_loss = softmax_cross_entropy_into(&logits, &labels, &mut grad);
                epoch_loss += root_loss as f64;
                // Manual backward (no optimizer step yet — accumulate).
                let (grad_h1, g2) = stack.layer2.backward_arena(
                    &view.graph,
                    cache_h1(&cache),
                    cache_c2(&cache),
                    grad,
                    arena,
                );
                let (grad_x, g1) =
                    stack
                        .layer1
                        .backward_arena(&view.graph, &x, cache_c1(&cache), grad_h1, arena);
                acc_grads(&mut acc1, &g1);
                acc_grads(&mut acc2, &g2);
                recycle_rgcn_grads(g1, arena);
                recycle_rgcn_grads(g2, arena);
                for (i, &row) in rows.iter().enumerate() {
                    let slot = embed_grads
                        .entry(row)
                        .or_insert_with(|| vec![0.0; cfg.dim]);
                    for (s, &g) in slot.iter_mut().zip(grad_x.row(i)) {
                        *s += g;
                    }
                }
                arena.put(grad_x);
                arena.put(logits);
                cache.recycle(arena);
                arena.put(x);
            }
            let inv = 1.0 / batch.len().max(1) as f32;
            scale_grads(&mut acc1, inv);
            scale_grads(&mut acc2, inv);
            stack.apply_grads(&acc1, &acc2);
            // Batched sparse embedding update.
            let mut rows: Vec<u32> = embed_grads.keys().copied().collect();
            rows.sort_unstable();
            let mut grads = arena.take(rows.len(), cfg.dim);
            for (i, row) in rows.iter().enumerate() {
                let src = &embed_grads[row];
                for (d, &s) in grads.row_mut(i).iter_mut().zip(src) {
                    *d += s * inv;
                }
            }
            embed_opt.step_rows(&mut embed.weight, &rows, &grads);
            arena.put(grads);
        }
        arena.reset();
        // Validation via ego forward per node, fixed eval seed.
        let mut eval_rng = StdRng::seed_from_u64(12345);
        let metric = eval_accuracy(data, stack, &embed.weight, data.valid, shadow, &mut eval_rng);
        (epoch_loss / train_nodes.len().max(1) as f64, metric)
    }

    fn test_metric(&self) -> f64 {
        let mut eval_rng = StdRng::seed_from_u64(999);
        let Self { data, stack, embed, shadow, .. } = self;
        eval_accuracy(data, stack, &embed.weight, data.test, shadow, &mut eval_rng)
    }

    fn param_count(&self) -> usize {
        self.embed.param_count() + self.stack.param_count()
    }
}

/// Trains ShaDowSAINT and reports metric/time/size.
pub fn train_shadowsaint_nc(data: &NcDataset<'_>, cfg: &TrainConfig) -> TrainReport {
    let n = data.graph.num_nodes();
    let mut run = ShadowRun {
        data,
        cfg,
        shadow: ShadowConfig { depth: 2, fanout: 10 },
        rng: StdRng::seed_from_u64(cfg.seed),
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
        train_nodes: data.train.to_vec(),
        arena: ScratchArena::new(),
    };
    run_epochs(&mut run, cfg, "ShaDowSAINT", nc_data_key(data), Instant::now())
}

fn eval_accuracy(
    data: &NcDataset<'_>,
    stack: &RgcnStack,
    embed: &Matrix,
    nodes: &[Vid],
    shadow: &ShadowConfig,
    rng: &mut StdRng,
) -> f64 {
    if nodes.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    for &v in nodes {
        let logits = forward_root(data, stack, embed, v, shadow, rng);
        let m = Matrix::from_vec(1, logits.len(), logits);
        let pred = argmax_rows(&m)[0];
        correct += (pred == data.labels[v.idx()]) as usize;
    }
    correct as f64 / nodes.len() as f64
}

// Accessors into StackCache internals (kept private in stack.rs; these
// helpers expose them to this trainer only).
use crate::stack::StackCache;

fn cache_h1(c: &StackCache) -> &Matrix {
    c.h1()
}
fn cache_c1(c: &StackCache) -> &kgtosa_nn::RgcnCache {
    c.c1()
}
fn cache_c2(c: &StackCache) -> &kgtosa_nn::RgcnCache {
    c.c2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgtosa_kg::HeteroGraph;

    #[test]
    fn learns_toy_task() {
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
            epochs: 25,
            dim: 8,
            lr: 0.05,
            batch_size: 6,
            ..Default::default()
        };
        let report = train_shadowsaint_nc(&data, &cfg);
        assert!(report.metric > 0.7, "accuracy {}", report.metric);
        assert_eq!(report.method, "ShaDowSAINT");
        assert_eq!(report.trace.len(), 25);
    }
}
