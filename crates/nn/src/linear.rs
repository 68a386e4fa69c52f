//! Fully-connected layer with explicit backward pass.

use kgtosa_tensor::{xavier_uniform, Matrix};
use rand::Rng;

/// `y = x @ W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix, `in_dim × out_dim`.
    pub w: Matrix,
    /// Bias vector, `out_dim`.
    pub b: Vec<f32>,
}

/// Gradients produced by [`Linear::backward`].
#[derive(Debug, Clone)]
pub struct LinearGrads {
    /// Gradient of the weights.
    pub w: Matrix,
    /// Gradient of the bias.
    pub b: Vec<f32>,
}

impl Linear {
    /// Xavier-initialized layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            w: xavier_uniform(in_dim, out_dim, rng),
            b: vec![0.0; out_dim],
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Forward pass; the caller keeps `x` for the backward pass.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w);
        for r in 0..y.rows() {
            let row = y.row_mut(r);
            for (v, &b) in row.iter_mut().zip(&self.b) {
                *v += b;
            }
        }
        y
    }

    /// Backward pass: given the forward input `x` and `∂L/∂y`, returns
    /// `∂L/∂x` and the parameter gradients.
    pub fn backward(&self, x: &Matrix, grad_out: &Matrix) -> (Matrix, LinearGrads) {
        let grad_x = grad_out.matmul_t(&self.w);
        let grad_w = x.t_matmul(grad_out);
        let mut grad_b = vec![0.0f32; self.b.len()];
        for r in 0..grad_out.rows() {
            for (gb, &g) in grad_b.iter_mut().zip(grad_out.row(r)) {
                *gb += g;
            }
        }
        (grad_x, LinearGrads { w: grad_w, b: grad_b })
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.w.param_count() + self.b.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Linear::new(3, 2, &mut rng);
        layer.b = vec![1.0, -1.0];
        let x = Matrix::zeros(4, 3);
        let y = layer.forward(&x);
        assert_eq!(y.shape(), (4, 2));
        // Zero input → output equals bias.
        for r in 0..4 {
            assert_eq!(y.row(r), &[1.0, -1.0]);
        }
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(42);
        let layer = Linear::new(3, 2, &mut rng);
        let x = xavier_uniform(2, 3, &mut rng);
        // Loss = sum(y).
        let y = layer.forward(&x);
        let grad_out = Matrix::from_vec(y.rows(), y.cols(), vec![1.0; y.param_count()]);
        let (grad_x, grads) = layer.backward(&x, &grad_out);

        let eps = 1e-3f32;
        // Check dL/dx numerically.
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let lp: f32 = layer.forward(&xp).data().iter().sum();
                let lm: f32 = layer.forward(&xm).data().iter().sum();
                let num = (lp - lm) / (2.0 * eps);
                assert!(
                    (num - grad_x.get(r, c)).abs() < 1e-2,
                    "dx({r},{c}): num {num} vs analytic {}",
                    grad_x.get(r, c)
                );
            }
        }
        // Check dL/dW numerically.
        for r in 0..layer.w.rows() {
            for c in 0..layer.w.cols() {
                let mut lp_layer = layer.clone();
                lp_layer.w.set(r, c, layer.w.get(r, c) + eps);
                let mut lm_layer = layer.clone();
                lm_layer.w.set(r, c, layer.w.get(r, c) - eps);
                let lp: f32 = lp_layer.forward(&x).data().iter().sum();
                let lm: f32 = lm_layer.forward(&x).data().iter().sum();
                let num = (lp - lm) / (2.0 * eps);
                assert!((num - grads.w.get(r, c)).abs() < 1e-2);
            }
        }
        // Bias gradient is the batch size for sum loss.
        assert!(grads.b.iter().all(|&g| (g - 2.0).abs() < 1e-5));
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let layer = Linear::new(7, 5, &mut rng);
        assert_eq!(layer.param_count(), 7 * 5 + 5);
    }
}
