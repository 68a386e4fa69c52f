//! LHGNN-style link prediction on latent heterogeneous graphs (Nguyen et
//! al., WWW'23).
//!
//! LHGNN's thesis: instead of trusting the observed node types, infer
//! *latent* types and weight message passing by latent-type compatibility.
//! This reproduction keeps that mechanism — every vertex gets a soft
//! assignment over `K` latent types from structural features, and each
//! message is scaled by the learned compatibility `z_iᵀ C z_j` — while the
//! pretext-task machinery of the original is simplified to a fixed random
//! projection of structural features (DESIGN.md §7). The result preserves
//! the method's cost profile (densest per-edge work of the three LP
//! methods) and its qualitative behaviour on typed KGs.

use std::io::{self, Read, Write};
use std::time::Instant;

use kgtosa_kg::{HeteroGraph, Triple, Vid};
use kgtosa_nn::{bce_negative, bce_positive};
use kgtosa_tensor::{
    relu_backward, relu_inplace, xavier_uniform, Adam, AdamConfig, Matrix, StateIo,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::checkpoint::{lp_data_key, read_rng, read_triples_into, write_rng, write_triples};
use crate::common::{run_epochs, LpDataset, TrainConfig, TrainReport, TrainRun};
use crate::lp_common::{corrupt_entity, evaluate_ranking, Decoder};
use crate::stack::EmbeddingTable;

/// Number of latent node types.
const K: usize = 4;

/// Soft latent-type assignments from structural features (degree statistics
/// + observed class id), via a fixed random projection + row softmax.
fn latent_types(g: &HeteroGraph, seed: u64) -> Matrix {
    let n = g.num_nodes();
    let feat_dim = 2 + 4; // degree stats + class-id hash buckets
    let mut feats = Matrix::zeros(n, feat_dim);
    let max_deg = (0..n)
        .map(|v| g.total_degree(Vid(v as u32)))
        .max()
        .unwrap_or(1)
        .max(1) as f32;
    for v in 0..n {
        let deg = g.total_degree(Vid(v as u32)) as f32;
        let row = feats.row_mut(v);
        row[0] = deg / max_deg;
        row[1] = 1.0 / (1.0 + deg);
        let bucket = g.class_of(Vid(v as u32)).idx() % 4;
        row[2 + bucket] = 1.0;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1a7e);
    let w = xavier_uniform(feat_dim, K, &mut rng);
    let logits = feats.matmul(&w);
    kgtosa_tensor::softmax_rows(&logits)
}

/// The latent-type-aware forward pass:
/// `m_i = (1/deg_i) Σ_j (z_iᵀ C z_j) x_j`, `h = ReLU(x·W0 + m·W1)`.
struct LatentConv;

impl LatentConv {
    #[allow(clippy::too_many_arguments)]
    fn forward(
        g: &HeteroGraph,
        x: &Matrix,
        z: &Matrix,
        c: &Matrix,
        w0: &Matrix,
        w1: &Matrix,
    ) -> (Matrix, Matrix, Vec<bool>) {
        let n = g.num_nodes();
        let d = x.cols();
        // zc = z @ C (n×K): w_ij = zc_i · z_j.
        let zc = z.matmul(c);
        let mut m = Matrix::zeros(n, d);
        for i in 0..n {
            let nbrs = g.undirected().neighbors(Vid(i as u32));
            if nbrs.is_empty() {
                continue;
            }
            let inv = 1.0 / nbrs.len() as f32;
            let zci = zc.row(i);
            let mrow = m.row_mut(i);
            for &j in nbrs {
                let w: f32 = zci
                    .iter()
                    .zip(z.row(j as usize))
                    .map(|(&a, &b)| a * b)
                    .sum();
                let src = x.row(j as usize);
                for k in 0..d {
                    mrow[k] += inv * w * src[k];
                }
            }
        }
        let mut h = x.matmul(w0);
        h.add_assign(&m.matmul(w1));
        let mask = relu_inplace(&mut h);
        (h, m, mask)
    }

    /// Backward. Returns `(grad_x, grad_w0, grad_w1, grad_c)`.
    #[allow(clippy::too_many_arguments)]
    fn backward(
        g: &HeteroGraph,
        x: &Matrix,
        z: &Matrix,
        c: &Matrix,
        w0: &Matrix,
        w1: &Matrix,
        m: &Matrix,
        mask: &[bool],
        mut grad_h: Matrix,
    ) -> (Matrix, Matrix, Matrix, Matrix) {
        relu_backward(&mut grad_h, mask);
        let grad_w0 = x.t_matmul(&grad_h);
        let grad_w1 = m.t_matmul(&grad_h);
        let mut grad_x = grad_h.matmul_t(w0);
        let grad_m = grad_h.matmul_t(w1);
        let zc = z.matmul(c);
        let mut grad_c = Matrix::zeros(K, K);
        let n = g.num_nodes();
        let d = x.cols();
        for i in 0..n {
            let nbrs = g.undirected().neighbors(Vid(i as u32));
            if nbrs.is_empty() {
                continue;
            }
            let inv = 1.0 / nbrs.len() as f32;
            let gm = grad_m.row(i);
            let zci = zc.row(i);
            let zi = z.row(i);
            for &j in nbrs {
                let xj = x.row(j as usize);
                let zj = z.row(j as usize);
                let w: f32 = zci.iter().zip(zj).map(|(&a, &b)| a * b).sum();
                // grad_x[j] += inv * w * gm
                let dst = grad_x.row_mut(j as usize);
                for k in 0..d {
                    dst[k] += inv * w * gm[k];
                }
                // grad_w_ij = inv * (gm · xj); grad_C += grad_w_ij * zi ⊗ zj
                let gw: f32 = gm.iter().zip(xj).map(|(&a, &b)| a * b).sum::<f32>() * inv;
                if gw != 0.0 {
                    for (a, &zia) in zi.iter().enumerate().take(K) {
                        let row = grad_c.row_mut(a);
                        let za = zia * gw;
                        for (slot, &zjb) in row.iter_mut().zip(zj) {
                            *slot += za * zjb;
                        }
                    }
                }
            }
        }
        (grad_x, grad_w0, grad_w1, grad_c)
    }
}

struct LhgnnRun<'a> {
    data: &'a LpDataset<'a>,
    cfg: &'a TrainConfig,
    /// Latent type assignment: a fixed function of the seed, rebuilt on
    /// resume rather than saved.
    z: Matrix,
    rng: StdRng,
    embed: EmbeddingTable,
    w0: Matrix,
    w1: Matrix,
    compat: Matrix,
    rel_emb: Matrix,
    o_w0: Adam,
    o_w1: Adam,
    o_c: Adam,
    o_rel: Adam,
    /// Shuffled in place across epochs, so the order is resumable state.
    train_triples: Vec<Triple>,
}

impl LhgnnRun<'_> {
    fn forward(&self) -> (Matrix, Matrix, Vec<bool>) {
        let Self { data, embed, z, compat, w0, w1, .. } = self;
        LatentConv::forward(data.graph, &embed.weight, z, compat, w0, w1)
    }
}

impl StateIo for LhgnnRun<'_> {
    fn save_state(&self, w: &mut dyn Write) -> io::Result<()> {
        write_rng(w, &self.rng)?;
        self.embed.save_state(w)?;
        for m in [&self.w0, &self.w1, &self.compat, &self.rel_emb] {
            m.save_state(w)?;
        }
        for a in [&self.o_w0, &self.o_w1, &self.o_c, &self.o_rel] {
            a.save_state(w)?;
        }
        write_triples(w, &self.train_triples)
    }

    fn load_state(&mut self, r: &mut dyn Read) -> io::Result<()> {
        read_rng(r, &mut self.rng)?;
        self.embed.load_state(r)?;
        for m in [&mut self.w0, &mut self.w1, &mut self.compat, &mut self.rel_emb] {
            m.load_state(r)?;
        }
        for a in [&mut self.o_w0, &mut self.o_w1, &mut self.o_c, &mut self.o_rel] {
            a.load_state(r)?;
        }
        read_triples_into(r, &mut self.train_triples)
    }
}

impl TrainRun for LhgnnRun<'_> {
    fn epoch(&mut self) -> (f64, f64) {
        let (g, cfg) = (self.data.graph, self.cfg);
        let n = g.num_nodes();
        self.train_triples.shuffle(&mut self.rng);
        let (h, m, mask) = self.forward();
        let mut grad_h = Matrix::zeros(n, cfg.dim);
        let mut grad_rel = Matrix::zeros(self.rel_emb.rows(), cfg.dim);
        let mut epoch_loss = 0.0f64;
        for t in &self.train_triples {
            let rel_emb = &self.rel_emb;
            let (hs, rp, to) = (t.s.idx(), t.p.idx(), t.o.idx());
            let score = kgtosa_nn::distmult_score(h.row(hs), rel_emb.row(rp), h.row(to));
            let (pos_loss, d) = bce_positive(score);
            epoch_loss += pos_loss as f64;
            scatter(&h, rel_emb, hs, rp, to, d, &mut grad_h, &mut grad_rel);
            for _ in 0..cfg.negatives.max(1) {
                let neg = corrupt_entity(&mut self.rng, n, t.o.raw()) as usize;
                let s = kgtosa_nn::distmult_score(h.row(hs), rel_emb.row(rp), h.row(neg));
                let (neg_loss, d) = bce_negative(s);
                epoch_loss += neg_loss as f64;
                scatter(&h, rel_emb, hs, rp, neg, d, &mut grad_h, &mut grad_rel);
            }
        }
        let scale = 1.0 / self.train_triples.len().max(1) as f32;
        grad_h.scale(scale);
        grad_rel.scale(scale);
        let (grad_x, gw0, gw1, gc) = LatentConv::backward(
            g,
            &self.embed.weight,
            &self.z,
            &self.compat,
            &self.w0,
            &self.w1,
            &m,
            &mask,
            grad_h,
        );
        self.o_w0.step(&mut self.w0, &gw0);
        self.o_w1.step(&mut self.w1, &gw1);
        self.o_c.step(&mut self.compat, &gc);
        self.o_rel.step(&mut self.rel_emb, &grad_rel);
        self.embed.step(&grad_x);

        let sample: Vec<_> = self.data.valid.iter().copied().take(200).collect();
        let metric = if sample.is_empty() {
            0.0
        } else {
            let (h, _, _) = self.forward();
            evaluate_ranking(&h, &self.rel_emb, &sample, Decoder::DistMult).hits_at_10
        };
        (epoch_loss * scale as f64, metric)
    }

    fn test_metric(&self) -> f64 {
        let (h, _, _) = self.forward();
        evaluate_ranking(&h, &self.rel_emb, self.data.test, Decoder::DistMult).hits_at_10
    }

    fn param_count(&self) -> usize {
        self.embed.param_count()
            + self.w0.param_count()
            + self.w1.param_count()
            + self.compat.param_count()
            + self.rel_emb.param_count()
    }
}

/// Trains LHGNN and reports Hits@10/time/size.
pub fn train_lhgnn_lp(data: &LpDataset<'_>, cfg: &TrainConfig) -> TrainReport {
    let g = data.graph;
    let nr = g.num_relations().max(1);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let z = latent_types(g, cfg.seed);
    let embed = EmbeddingTable::new(g.num_nodes(), cfg.dim, cfg.lr, cfg.seed);
    let w0 = xavier_uniform(cfg.dim, cfg.dim, &mut rng);
    let w1 = xavier_uniform(cfg.dim, cfg.dim, &mut rng);
    let compat = xavier_uniform(K, K, &mut rng);
    let rel_emb = xavier_uniform(nr, cfg.dim, &mut rng);
    let adam = AdamConfig { lr: cfg.lr, ..Default::default() };
    let mut run = LhgnnRun {
        data,
        cfg,
        z,
        rng,
        embed,
        o_w0: Adam::new(w0.param_count(), adam),
        o_w1: Adam::new(w1.param_count(), adam),
        o_c: Adam::new(compat.param_count(), adam),
        o_rel: Adam::new(rel_emb.param_count(), adam),
        w0,
        w1,
        compat,
        rel_emb,
        train_triples: data.train.to_vec(),
    };
    run_epochs(&mut run, cfg, "LHGNN", lp_data_key(data), Instant::now())
}

#[allow(clippy::too_many_arguments)]
fn scatter(
    h: &Matrix,
    rel: &Matrix,
    s: usize,
    r: usize,
    t: usize,
    dscore: f32,
    grad_h: &mut Matrix,
    grad_rel: &mut Matrix,
) {
    let (hrow, rrow, trow) = (h.row(s).to_vec(), rel.row(r).to_vec(), h.row(t).to_vec());
    let mut gh = vec![0.0f32; hrow.len()];
    let mut gr = vec![0.0f32; hrow.len()];
    let mut gt = vec![0.0f32; hrow.len()];
    kgtosa_nn::distmult_grad(&hrow, &rrow, &trow, dscore, &mut gh, &mut gr, &mut gt);
    for (d, v) in grad_h.row_mut(s).iter_mut().zip(&gh) {
        *d += v;
    }
    for (d, v) in grad_rel.row_mut(r).iter_mut().zip(&gr) {
        *d += v;
    }
    for (d, v) in grad_h.row_mut(t).iter_mut().zip(&gt) {
        *d += v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgtosa_kg::HeteroGraph;

    #[test]
    fn latent_types_are_distributions() {
        let (kg, _) = crate::testutil::toy_lp();
        let g = HeteroGraph::build(&kg);
        let z = latent_types(&g, 0);
        assert_eq!(z.shape(), (g.num_nodes(), K));
        for i in 0..z.rows() {
            let sum: f32 = z.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn learns_toy_lp_task() {
        let (kg, triples) = crate::testutil::toy_lp();
        let graph = HeteroGraph::build(&kg);
        let (train, rest) = triples.split_at(triples.len() - 6);
        let (valid, test) = rest.split_at(3);
        let data = LpDataset {
            kg: &kg,
            graph: &graph,
            train,
            valid,
            test,
        };
        let cfg = TrainConfig {
            epochs: 60,
            dim: 12,
            lr: 0.05,
            negatives: 4,
            ..Default::default()
        };
        let report = train_lhgnn_lp(&data, &cfg);
        assert!(report.metric > 0.3, "Hits@10 {}", report.metric);
        assert_eq!(report.method, "LHGNN");
    }
}
