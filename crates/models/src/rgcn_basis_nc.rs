//! Full-batch RGCN with basis decomposition — the classic alternative way
//! to tame `|R|`-proportional model growth. KG-TOSA attacks the same
//! problem by shrinking the relation set itself; the `ablation_basis`
//! bench puts the two side by side (and shows they compose).

use std::io::{self, Read, Write};
use std::time::Instant;

use kgtosa_nn::RgcnBasisLayer;
use kgtosa_tensor::state::{expect_u64, write_u64};
use kgtosa_tensor::{softmax_cross_entropy, Adam, AdamConfig, StateIo};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checkpoint::nc_data_key;
use crate::common::{restrict_labels, run_epochs, NcDataset, TrainConfig, TrainReport, TrainRun};
use crate::rgcn_nc::accuracy_at;
use crate::stack::EmbeddingTable;

/// Optimizer bundle for one basis layer.
struct BasisOpt {
    bases: Vec<Adam>,
    coeffs: Adam,
    w_self: Adam,
    b: Adam,
}

impl BasisOpt {
    fn new(layer: &RgcnBasisLayer, cfg: AdamConfig) -> Self {
        Self {
            bases: layer
                .bases
                .iter()
                .map(|m| Adam::new(m.param_count(), cfg))
                .collect(),
            coeffs: Adam::new(layer.coeffs.param_count(), cfg),
            w_self: Adam::new(layer.w_self.param_count(), cfg),
            b: Adam::new(layer.b.len(), cfg),
        }
    }

    fn step(&mut self, layer: &mut RgcnBasisLayer, grads: &kgtosa_nn::BasisGrads) {
        for ((m, g), opt) in layer.bases.iter_mut().zip(&grads.bases).zip(&mut self.bases) {
            opt.step(m, g);
        }
        self.coeffs.step(&mut layer.coeffs, &grads.coeffs);
        self.w_self.step(&mut layer.w_self, &grads.w_self);
        self.b.step_slice(&mut layer.b, &grads.b);
    }
}

impl StateIo for BasisOpt {
    fn save_state(&self, w: &mut dyn Write) -> io::Result<()> {
        write_u64(w, self.bases.len() as u64)?;
        for opt in &self.bases {
            opt.save_state(w)?;
        }
        self.coeffs.save_state(w)?;
        self.w_self.save_state(w)?;
        self.b.save_state(w)
    }

    fn load_state(&mut self, r: &mut dyn Read) -> io::Result<()> {
        expect_u64(r, self.bases.len() as u64, "optimizer basis count")?;
        for opt in &mut self.bases {
            opt.load_state(r)?;
        }
        self.coeffs.load_state(r)?;
        self.w_self.load_state(r)?;
        self.b.load_state(r)
    }
}

struct BasisRun<'a> {
    data: &'a NcDataset<'a>,
    embed: EmbeddingTable,
    layer1: RgcnBasisLayer,
    layer2: RgcnBasisLayer,
    opt1: BasisOpt,
    opt2: BasisOpt,
    train_labels: Vec<u32>,
}

impl StateIo for BasisRun<'_> {
    fn save_state(&self, w: &mut dyn Write) -> io::Result<()> {
        self.embed.save_state(w)?;
        self.layer1.save_state(w)?;
        self.layer2.save_state(w)?;
        self.opt1.save_state(w)?;
        self.opt2.save_state(w)
    }

    fn load_state(&mut self, r: &mut dyn Read) -> io::Result<()> {
        self.embed.load_state(r)?;
        self.layer1.load_state(r)?;
        self.layer2.load_state(r)?;
        self.opt1.load_state(r)?;
        self.opt2.load_state(r)
    }
}

impl TrainRun for BasisRun<'_> {
    fn epoch(&mut self) -> (f64, f64) {
        let graph = self.data.graph;
        let (h1, c1) = self.layer1.forward(graph, &self.embed.weight);
        let (logits, c2) = self.layer2.forward(graph, &h1);
        let (loss, grad) = softmax_cross_entropy(&logits, &self.train_labels);
        let (grad_h1, g2) = self.layer2.backward(graph, &h1, &c2, grad);
        let (grad_x, g1) = self.layer1.backward(graph, &self.embed.weight, &c1, grad_h1);
        self.opt2.step(&mut self.layer2, &g2);
        self.opt1.step(&mut self.layer1, &g1);
        self.embed.step(&grad_x);
        (loss as f64, accuracy_at(&logits, self.data.labels, self.data.valid))
    }

    fn test_metric(&self) -> f64 {
        let (h1, _) = self.layer1.forward(self.data.graph, &self.embed.weight);
        let (logits, _) = self.layer2.forward(self.data.graph, &h1);
        accuracy_at(&logits, self.data.labels, self.data.test)
    }

    fn param_count(&self) -> usize {
        self.embed.param_count() + self.layer1.param_count() + self.layer2.param_count()
    }
}

/// Trains a two-layer basis-decomposed RGCN classifier.
pub fn train_rgcn_basis_nc(
    data: &NcDataset<'_>,
    cfg: &TrainConfig,
    num_bases: usize,
) -> TrainReport {
    let n = data.graph.num_nodes();
    let nr = data.graph.num_relations();
    let mut rng = StdRng::seed_from_u64(cfg.seed + 1);
    let embed = EmbeddingTable::new(n, cfg.dim, cfg.lr, cfg.seed);
    let layer1 = RgcnBasisLayer::new(nr, num_bases, cfg.dim, cfg.dim, true, &mut rng);
    let layer2 = RgcnBasisLayer::new(nr, num_bases, cfg.dim, data.num_labels, false, &mut rng);
    let adam = AdamConfig { lr: cfg.lr, ..Default::default() };
    let mut run = BasisRun {
        data,
        embed,
        opt1: BasisOpt::new(&layer1, adam),
        opt2: BasisOpt::new(&layer2, adam),
        layer1,
        layer2,
        train_labels: restrict_labels(data.labels, data.train, n),
    };
    let method = format!("RGCN-basis{num_bases}");
    run_epochs(&mut run, cfg, &method, nc_data_key(data), Instant::now())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgtosa_kg::HeteroGraph;

    #[test]
    fn learns_toy_task_with_few_bases() {
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
        let cfg = TrainConfig { epochs: 50, dim: 8, lr: 0.05, ..Default::default() };
        let report = train_rgcn_basis_nc(&data, &cfg, 2);
        assert!(report.metric > 0.7, "accuracy {}", report.metric);
        // Fewer parameters than the full model on the same graph.
        let full = crate::rgcn_nc::train_rgcn_nc(&data, &TrainConfig { epochs: 1, ..cfg });
        assert!(report.param_count < full.param_count);
    }
}
