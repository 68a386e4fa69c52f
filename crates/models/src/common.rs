//! Shared dataset views, training configuration and reports for the HGNN
//! methods, and the one epoch loop (`run_epochs`) they all train through.

use std::time::Instant;

use kgtosa_kg::{HeteroGraph, KnowledgeGraph, Triple, Vid};
use kgtosa_tensor::{Matrix, StateIo};

use crate::checkpoint::{state_fingerprint, Checkpointer};

/// A node-classification dataset over a (sub)graph.
///
/// `labels[v]` is the class index of vertex `v` or
/// [`kgtosa_tensor::IGNORE_LABEL`] for non-target vertices. Splits hold
/// target vertex ids.
pub struct NcDataset<'a> {
    /// The knowledge graph being trained on (FG or KG').
    pub kg: &'a KnowledgeGraph,
    /// Its adjacency views.
    pub graph: &'a HeteroGraph,
    /// Per-vertex labels.
    pub labels: &'a [u32],
    /// Number of label classes.
    pub num_labels: usize,
    /// Training target vertices.
    pub train: &'a [Vid],
    /// Validation target vertices.
    pub valid: &'a [Vid],
    /// Test target vertices.
    pub test: &'a [Vid],
}

/// A link-prediction dataset: triples of one task predicate split by time
/// or randomly (Table II).
pub struct LpDataset<'a> {
    /// The knowledge graph being trained on (FG or KG').
    pub kg: &'a KnowledgeGraph,
    /// Its adjacency views.
    pub graph: &'a HeteroGraph,
    /// Training triples of the task predicate.
    pub train: &'a [Triple],
    /// Validation triples.
    pub valid: &'a [Triple],
    /// Test triples.
    pub test: &'a [Triple],
}

/// Hyperparameters shared by all trainers.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Embedding / hidden dimension (the paper uses 128; scaled runs use
    /// less).
    pub dim: usize,
    /// Learning rate.
    pub lr: f32,
    /// RNG seed (weights, sampling, negatives).
    pub seed: u64,
    /// Mini-batch size where the method uses batches.
    pub batch_size: usize,
    /// Negative samples per positive (LP methods).
    pub negatives: usize,
    /// TransE margin (MorsE).
    pub margin: f32,
    /// Per-epoch telemetry hook; [`kgtosa_obs::Observer::none`] (the
    /// default) makes it a no-op.
    pub observer: kgtosa_obs::Observer,
    /// Epoch checkpoint/resume; `None` (the default) disables it.
    pub checkpoint: Option<crate::checkpoint::CheckpointConfig>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 30,
            dim: 32,
            lr: 1e-2,
            seed: 7,
            batch_size: 256,
            negatives: 4,
            margin: 1.0,
            observer: kgtosa_obs::Observer::none(),
            checkpoint: None,
        }
    }
}

/// One point of a convergence trace (Figure 9): elapsed wall-clock seconds
/// and the validation metric at that moment.
#[derive(Debug, Clone, Copy)]
pub struct TracePoint {
    /// Epoch index (1-based).
    pub epoch: usize,
    /// Seconds since training started.
    pub elapsed_s: f64,
    /// Validation metric (accuracy or Hits@10).
    pub metric: f64,
}

/// The outcome of one training run, covering every quantity the paper
/// reports per method (Figures 1, 6, 7; Table IV).
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Method label (e.g. `RGCN`, `GraphSAINT`).
    pub method: String,
    /// Epochs run.
    pub epochs: usize,
    /// Training wall-clock seconds.
    pub training_s: f64,
    /// Test-set inference wall-clock seconds.
    pub inference_s: f64,
    /// Trainable parameter count (model size).
    pub param_count: usize,
    /// Final test metric (accuracy for NC, Hits@10 for LP).
    pub metric: f64,
    /// FNV fingerprint of the final trainable state (parameters +
    /// optimizer moments). Two runs ended bit-identically iff these match;
    /// the checkpoint/resume property tests compare exactly this.
    pub param_hash: u64,
    /// Convergence trace on the validation split.
    pub trace: Vec<TracePoint>,
}

/// Softmax cross-entropy with per-row weights (GraphSAINT's loss
/// normalization). Rows with weight 0 or ignored labels contribute nothing.
///
/// Allocating form of [`weighted_cross_entropy_into`].
pub fn weighted_cross_entropy(
    logits: &Matrix,
    labels: &[u32],
    weights: &[f32],
) -> (f32, Matrix) {
    let mut grad = Matrix::zeros(logits.rows(), logits.cols());
    let loss = weighted_cross_entropy_into(logits, labels, weights, &mut grad);
    (loss, grad)
}

/// [`weighted_cross_entropy`] writing the gradient into an existing buffer
/// (the mini-batch trainers draw it from their scratch arena). The
/// softmax, masking and scaling run in place on `grad`, so the hot loop
/// allocates nothing.
pub fn weighted_cross_entropy_into(
    logits: &Matrix,
    labels: &[u32],
    weights: &[f32],
    grad: &mut Matrix,
) -> f32 {
    assert_eq!(logits.rows(), labels.len());
    assert_eq!(logits.rows(), weights.len());
    kgtosa_tensor::softmax_rows_into(logits, grad);
    let mut loss = 0.0f64;
    let mut weight_sum = 0.0f64;
    for (r, (&label, &w)) in labels.iter().zip(weights).enumerate() {
        if label == kgtosa_tensor::IGNORE_LABEL || w == 0.0 {
            grad.row_mut(r).fill(0.0);
            continue;
        }
        weight_sum += w as f64;
        let g = grad.row_mut(r);
        let p = g[label as usize].max(1e-12);
        loss -= w as f64 * (p as f64).ln();
        g[label as usize] -= 1.0;
        for v in g.iter_mut() {
            *v *= w;
        }
    }
    let denom = weight_sum.max(1.0);
    grad.scale(1.0 / denom as f32);
    (loss / denom) as f32
}

/// Builds the per-vertex label array restricted to the given labeled set
/// (everything else ignored).
pub fn restrict_labels(labels: &[u32], keep: &[Vid], n: usize) -> Vec<u32> {
    let mut out = vec![kgtosa_tensor::IGNORE_LABEL; n];
    for &v in keep {
        out[v.idx()] = labels[v.idx()];
    }
    out
}

/// What a trainer supplies to [`run_epochs`]: its resumable state through
/// [`StateIo`] — the one place its state order is spelled, shared by
/// checkpoint save, resume load and `param_hash` — and its model steps.
pub(crate) trait TrainRun: StateIo {
    /// Checkpoint file stem where it must differ from the method label
    /// (RGCN-LP reports as `RGCN` but must not share `RGCN.ckpt` with the
    /// NC trainer).
    const CHECKPOINT: Option<&'static str> = None;

    /// Runs one epoch; returns `(mean training loss, validation metric)`.
    fn epoch(&mut self) -> (f64, f64);

    /// Test-split metric; the driver times this call as inference.
    fn test_metric(&self) -> f64;

    /// Trainable parameter count (model size).
    fn param_count(&self) -> usize;
}

/// The epoch protocol every trainer shares: resume from `cfg.checkpoint`
/// if a matching file exists, run the remaining epochs — per epoch one
/// [`TracePoint`], one observer event with loss, timing and heap
/// statistics, and an interval save — then time the test-split inference
/// and assemble the report. `start` is the trainer's
/// clock origin, so the set-up a method counts as training (GraphSAINT's
/// pre-sampling, SeHGNN's feature propagation) stays inside `training_s`
/// and the trace.
pub(crate) fn run_epochs<R: TrainRun>(
    run: &mut R,
    cfg: &TrainConfig,
    method: &str,
    data_key: u64,
    start: Instant,
) -> TrainReport {
    let ckpt = Checkpointer::from_cfg(cfg, R::CHECKPOINT.unwrap_or(method), data_key);
    let mut trace = Vec::with_capacity(cfg.epochs);
    let mut first_epoch = 1;
    if let Some((done, t)) = ckpt.as_ref().and_then(|c| c.resume(|r| run.load_state(r))) {
        first_epoch = done + 1;
        trace = t;
    }
    let mut last_elapsed_s = 0.0;
    for epoch in first_epoch..=cfg.epochs {
        let (loss, metric) = run.epoch();
        let elapsed_s = start.elapsed().as_secs_f64();
        if cfg.observer.enabled() {
            let mem = kgtosa_memtrack::snapshot();
            cfg.observer.on_epoch(&kgtosa_obs::EpochEvent {
                method,
                epoch: epoch - 1,
                epochs: cfg.epochs,
                loss,
                metric,
                elapsed_s,
                epoch_s: elapsed_s - last_elapsed_s,
                live_bytes: mem.live_bytes,
                peak_bytes: mem.peak_bytes,
                allocs: mem.alloc_count,
            });
        }
        last_elapsed_s = elapsed_s;
        trace.push(TracePoint { epoch, elapsed_s, metric });
        if let Some(c) = &ckpt {
            c.maybe_save(epoch, cfg.epochs, &trace, |w| run.save_state(w));
        }
    }
    let training_s = start.elapsed().as_secs_f64();

    let infer_start = Instant::now();
    let metric = run.test_metric();
    let inference_s = infer_start.elapsed().as_secs_f64();

    TrainReport {
        method: method.into(),
        epochs: cfg.epochs,
        training_s,
        inference_s,
        param_count: run.param_count(),
        metric,
        param_hash: state_fingerprint(|w| run.save_state(w)),
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgtosa_tensor::IGNORE_LABEL;

    #[test]
    fn weighted_ce_matches_unweighted_when_uniform() {
        let logits = Matrix::from_vec(2, 3, vec![1., 2., 3., 0., 0., 0.]);
        let labels = [2u32, 0u32];
        let (lw, gw) = weighted_cross_entropy(&logits, &labels, &[1.0, 1.0]);
        let (lu, gu) = kgtosa_tensor::softmax_cross_entropy(&logits, &labels);
        assert!((lw - lu).abs() < 1e-6);
        for (a, b) in gw.data().iter().zip(gu.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_weight_rows_are_silent() {
        let logits = Matrix::from_vec(2, 2, vec![5., -5., 0., 0.]);
        let (_, g) = weighted_cross_entropy(&logits, &[0, 1], &[0.0, 1.0]);
        assert_eq!(g.row(0), &[0.0, 0.0]);
        assert!(g.row(1)[1] < 0.0);
    }

    #[test]
    fn restrict_labels_masks_rest() {
        let labels = vec![1, 2, 3];
        let out = restrict_labels(&labels, &[Vid(1)], 3);
        assert_eq!(out, vec![IGNORE_LABEL, 2, IGNORE_LABEL]);
    }

    #[test]
    fn config_defaults_sane() {
        let c = TrainConfig::default();
        assert!(c.epochs > 0 && c.dim > 0 && c.lr > 0.0);
    }
}
