//! RGCN link prediction: RGCN encoder + DistMult decoder with negative
//! sampling (the RGCN-PYG configuration the paper uses for LP tasks).

use std::io::{self, Read, Write};
use std::time::Instant;

use kgtosa_kg::Triple;
use kgtosa_tensor::{xavier_uniform, Adam, AdamConfig, Matrix, StateIo};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::checkpoint::{lp_data_key, read_rng, read_triples_into, write_rng, write_triples};
use crate::common::{run_epochs, LpDataset, TrainConfig, TrainReport, TrainRun};
use crate::lp_common::{corrupt_entity, evaluate_ranking, Decoder};
use crate::stack::{EmbeddingTable, RgcnLayerOpt};
use kgtosa_nn::{bce_negative, bce_positive, distmult_grad, RgcnLayer};

struct RgcnLpRun<'a> {
    data: &'a LpDataset<'a>,
    cfg: &'a TrainConfig,
    rng: StdRng,
    embed: EmbeddingTable,
    encoder: RgcnLayer,
    rel_emb: Matrix,
    enc_opt: RgcnLayerOpt,
    rel_opt: Adam,
    /// Shuffled in place across epochs, so the order is resumable state.
    train_triples: Vec<Triple>,
}

impl StateIo for RgcnLpRun<'_> {
    fn save_state(&self, w: &mut dyn Write) -> io::Result<()> {
        write_rng(w, &self.rng)?;
        self.embed.save_state(w)?;
        self.encoder.save_state(w)?;
        self.rel_emb.save_state(w)?;
        self.enc_opt.save_state(w)?;
        self.rel_opt.save_state(w)?;
        write_triples(w, &self.train_triples)
    }

    fn load_state(&mut self, r: &mut dyn Read) -> io::Result<()> {
        read_rng(r, &mut self.rng)?;
        self.embed.load_state(r)?;
        self.encoder.load_state(r)?;
        self.rel_emb.load_state(r)?;
        self.enc_opt.load_state(r)?;
        self.rel_opt.load_state(r)?;
        read_triples_into(r, &mut self.train_triples)
    }
}

impl TrainRun for RgcnLpRun<'_> {
    // The NC trainer owns `RGCN.ckpt`.
    const CHECKPOINT: Option<&'static str> = Some("RGCN-LP");

    fn epoch(&mut self) -> (f64, f64) {
        let Self { data, cfg, rng, embed, encoder, rel_emb, enc_opt, rel_opt, train_triples } =
            self;
        let g = data.graph;
        let n = g.num_nodes();
        train_triples.shuffle(rng);
        // Full-graph encoder forward.
        let (z, cache) = encoder.forward(g, &embed.weight);
        let mut grad_z = Matrix::zeros(n, cfg.dim);
        let mut grad_rel = Matrix::zeros(rel_emb.rows(), cfg.dim);
        let mut epoch_loss = 0.0f64;
        for t in train_triples.iter() {
            let (hs, rp, to) = (t.s.idx(), t.p.idx(), t.o.idx());
            // Positive.
            let score = kgtosa_nn::distmult_score(z.row(hs), rel_emb.row(rp), z.row(to));
            let (pos_loss, dscore) = bce_positive(score);
            epoch_loss += pos_loss as f64;
            scatter_distmult(&z, rel_emb, hs, rp, to, dscore, &mut grad_z, &mut grad_rel);
            // Negatives: corrupt the tail (and head alternately).
            for k in 0..cfg.negatives {
                if k % 2 == 0 {
                    let neg = corrupt_entity(rng, n, t.o.raw()) as usize;
                    let s = kgtosa_nn::distmult_score(z.row(hs), rel_emb.row(rp), z.row(neg));
                    let (neg_loss, d) = bce_negative(s);
                    epoch_loss += neg_loss as f64;
                    scatter_distmult(&z, rel_emb, hs, rp, neg, d, &mut grad_z, &mut grad_rel);
                } else {
                    let neg = corrupt_entity(rng, n, t.s.raw()) as usize;
                    let s = kgtosa_nn::distmult_score(z.row(neg), rel_emb.row(rp), z.row(to));
                    let (neg_loss, d) = bce_negative(s);
                    epoch_loss += neg_loss as f64;
                    scatter_distmult(&z, rel_emb, neg, rp, to, d, &mut grad_z, &mut grad_rel);
                }
            }
        }
        let scale = 1.0 / train_triples.len().max(1) as f32;
        grad_z.scale(scale);
        grad_rel.scale(scale);
        let (grad_x, enc_grads) = encoder.backward(g, &embed.weight, &cache, grad_z);
        enc_opt.step(encoder, &enc_grads);
        rel_opt.step(rel_emb, &grad_rel);
        embed.step(&grad_x);

        // Validation Hits@10 (subsampled for speed on larger graphs).
        let sample: Vec<_> = data.valid.iter().copied().take(200).collect();
        let (z, _) = encoder.forward(g, &embed.weight);
        let metric = if sample.is_empty() {
            0.0
        } else {
            evaluate_ranking(&z, rel_emb, &sample, Decoder::DistMult).hits_at_10
        };
        (epoch_loss * scale as f64, metric)
    }

    fn test_metric(&self) -> f64 {
        let (z, _) = self.encoder.forward(self.data.graph, &self.embed.weight);
        evaluate_ranking(&z, &self.rel_emb, self.data.test, Decoder::DistMult).hits_at_10
    }

    fn param_count(&self) -> usize {
        self.embed.param_count() + self.encoder.param_count() + self.rel_emb.param_count()
    }
}

/// Trains RGCN-LP and reports Hits@10/time/size (Figure 7 rows).
pub fn train_rgcn_lp(data: &LpDataset<'_>, cfg: &TrainConfig) -> TrainReport {
    let g = data.graph;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let embed = EmbeddingTable::new(g.num_nodes(), cfg.dim, cfg.lr, cfg.seed);
    let encoder = RgcnLayer::new(g.num_relations(), cfg.dim, cfg.dim, true, &mut rng);
    let rel_emb = xavier_uniform(g.num_relations().max(1), cfg.dim, &mut rng);
    let adam_cfg = AdamConfig { lr: cfg.lr, ..Default::default() };
    let mut run = RgcnLpRun {
        data,
        cfg,
        rng,
        embed,
        enc_opt: RgcnLayerOpt::new(&encoder, adam_cfg),
        rel_opt: Adam::new(rel_emb.param_count(), adam_cfg),
        encoder,
        rel_emb,
        train_triples: data.train.to_vec(),
    };
    run_epochs(&mut run, cfg, "RGCN", lp_data_key(data), Instant::now())
}

/// Accumulates `dscore · ∂score/∂(h,r,t)` into the entity/relation grads.
#[allow(clippy::too_many_arguments)]
fn scatter_distmult(
    z: &Matrix,
    rel: &Matrix,
    h: usize,
    r: usize,
    t: usize,
    dscore: f32,
    grad_z: &mut Matrix,
    grad_rel: &mut Matrix,
) {
    // Manual split borrows: rows h and t may alias when h == t.
    let (hrow, rrow, trow) = (
        z.row(h).to_vec(),
        rel.row(r).to_vec(),
        z.row(t).to_vec(),
    );
    let mut gh = vec![0.0f32; hrow.len()];
    let mut gr = vec![0.0f32; hrow.len()];
    let mut gt = vec![0.0f32; hrow.len()];
    distmult_grad(&hrow, &rrow, &trow, dscore, &mut gh, &mut gr, &mut gt);
    for (d, s) in grad_z.row_mut(h).iter_mut().zip(&gh) {
        *d += s;
    }
    for (d, s) in grad_rel.row_mut(r).iter_mut().zip(&gr) {
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
        let report = train_rgcn_lp(&data, &cfg);
        assert!(report.metric > 0.4, "Hits@10 {}", report.metric);
        assert_eq!(report.trace.len(), 60);
    }
}
