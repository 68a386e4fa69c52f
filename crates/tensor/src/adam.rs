//! The Adam optimizer, with a dense variant for layer weights and a sparse
//! row-wise variant for embedding tables.

use crate::matrix::Matrix;

/// Adam hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical stabilizer.
    pub eps: f32,
    /// L2 weight decay (applied as decoupled decay).
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            lr: 1e-2,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

/// Dense Adam state for one parameter matrix.
#[derive(Debug, Clone)]
pub struct Adam {
    cfg: AdamConfig,
    pub(crate) m: Vec<f32>,
    pub(crate) v: Vec<f32>,
    pub(crate) t: u64,
}

impl Adam {
    /// Creates state for a parameter of `len` elements.
    pub fn new(len: usize, cfg: AdamConfig) -> Self {
        Self {
            cfg,
            m: vec![0.0; len],
            v: vec![0.0; len],
            t: 0,
        }
    }

    /// Applies one update step: `param -= lr * m̂ / (sqrt(v̂) + eps)`.
    pub fn step(&mut self, param: &mut Matrix, grad: &Matrix) {
        assert_eq!(param.shape(), grad.shape(), "grad shape mismatch");
        self.step_slice(param.data_mut(), grad.data());
    }

    /// Slice variant of [`Adam::step`] for non-matrix parameters (biases).
    pub fn step_slice(&mut self, param: &mut [f32], grad: &[f32]) {
        assert_eq!(param.len(), self.m.len(), "state size mismatch");
        assert_eq!(param.len(), grad.len(), "grad size mismatch");
        self.t += 1;
        let cfg = self.cfg;
        let bc1 = 1.0 - cfg.beta1.powi(self.t as i32);
        let bc2 = 1.0 - cfg.beta2.powi(self.t as i32);
        for i in 0..param.len() {
            let g = grad[i] + cfg.weight_decay * param[i];
            self.m[i] = cfg.beta1 * self.m[i] + (1.0 - cfg.beta1) * g;
            self.v[i] = cfg.beta2 * self.v[i] + (1.0 - cfg.beta2) * g * g;
            let m_hat = self.m[i] / bc1;
            let v_hat = self.v[i] / bc2;
            param[i] -= cfg.lr * m_hat / (v_hat.sqrt() + cfg.eps);
        }
    }
}

/// Sparse (row-wise) Adam for embedding tables: only rows touched by a
/// mini-batch are updated, with per-row bias-correction steps — the standard
/// "sparse Adam" used by embedding-heavy models such as MorsE/TransE.
#[derive(Debug, Clone)]
pub struct SparseAdam {
    cfg: AdamConfig,
    pub(crate) m: Matrix,
    pub(crate) v: Matrix,
    pub(crate) t: Vec<u32>,
}

impl SparseAdam {
    /// Creates state matching an embedding table's shape.
    pub fn new(rows: usize, cols: usize, cfg: AdamConfig) -> Self {
        Self {
            cfg,
            m: Matrix::zeros(rows, cols),
            v: Matrix::zeros(rows, cols),
            t: vec![0; rows],
        }
    }

    /// Updates only `rows` of `param`, where `grads.row(i)` is the gradient
    /// for `param.row(rows[i])`. Duplicate indices must be pre-accumulated.
    pub fn step_rows(&mut self, param: &mut Matrix, rows: &[u32], grads: &Matrix) {
        assert_eq!(rows.len(), grads.rows(), "index/grad mismatch");
        let cfg = self.cfg;
        for (i, &r) in rows.iter().enumerate() {
            let r = r as usize;
            self.t[r] += 1;
            let bc1 = 1.0 - cfg.beta1.powi(self.t[r] as i32);
            let bc2 = 1.0 - cfg.beta2.powi(self.t[r] as i32);
            let g_row = grads.row(i);
            let m_row = self.m.row_mut(r);
            for (m, &g) in m_row.iter_mut().zip(g_row) {
                *m = cfg.beta1 * *m + (1.0 - cfg.beta1) * g;
            }
            let v_row = self.v.row_mut(r);
            for (v, &g) in v_row.iter_mut().zip(g_row) {
                *v = cfg.beta2 * *v + (1.0 - cfg.beta2) * g * g;
            }
            let (m_row, v_row) = (self.m.row(r), self.v.row(r));
            let p_row = param.row_mut(r);
            for j in 0..p_row.len() {
                let m_hat = m_row[j] / bc1;
                let v_hat = v_row[j] / bc2;
                p_row[j] -= cfg.lr * m_hat / (v_hat.sqrt() + cfg.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizing f(x) = x² with Adam must approach 0.
    #[test]
    fn adam_minimizes_quadratic() {
        let mut x = Matrix::from_vec(1, 1, vec![5.0]);
        let mut opt = Adam::new(1, AdamConfig { lr: 0.2, ..Default::default() });
        for _ in 0..200 {
            let grad = Matrix::from_vec(1, 1, vec![2.0 * x.get(0, 0)]);
            opt.step(&mut x, &grad);
        }
        assert!(x.get(0, 0).abs() < 0.05, "got {}", x.get(0, 0));
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut x = Matrix::from_vec(1, 1, vec![1.0]);
        let mut opt = Adam::new(
            1,
            AdamConfig { lr: 0.05, weight_decay: 1.0, ..Default::default() },
        );
        let zero_grad = Matrix::zeros(1, 1);
        for _ in 0..100 {
            opt.step(&mut x, &zero_grad);
        }
        assert!(x.get(0, 0).abs() < 0.5);
    }

    #[test]
    fn sparse_adam_updates_only_touched_rows() {
        let mut table = Matrix::from_vec(3, 2, vec![1.; 6]);
        let before_row2 = table.row(2).to_vec();
        let mut opt = SparseAdam::new(3, 2, AdamConfig::default());
        let grads = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
        opt.step_rows(&mut table, &[0], &grads);
        assert_ne!(table.row(0), &[1.0, 1.0]);
        assert_eq!(table.row(2), before_row2.as_slice());
    }

    #[test]
    fn sparse_adam_minimizes_rowwise_quadratic() {
        let mut table = Matrix::from_vec(2, 1, vec![3.0, -4.0]);
        let mut opt = SparseAdam::new(2, 1, AdamConfig { lr: 0.2, ..Default::default() });
        for _ in 0..200 {
            let g = Matrix::from_vec(2, 1, vec![2.0 * table.get(0, 0), 2.0 * table.get(1, 0)]);
            opt.step_rows(&mut table, &[0, 1], &g);
        }
        assert!(table.get(0, 0).abs() < 0.05);
        assert!(table.get(1, 0).abs() < 0.05);
    }
}
