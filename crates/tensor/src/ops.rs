//! Element-wise and row-wise operations used by layer implementations.

use crate::matrix::Matrix;

/// In-place ReLU; returns the activation mask needed by the backward pass.
pub fn relu_inplace(m: &mut Matrix) -> Vec<bool> {
    let mut mask = vec![false; m.param_count()];
    for (v, keep) in m.data_mut().iter_mut().zip(&mut mask) {
        if *v > 0.0 {
            *keep = true;
        } else {
            *v = 0.0;
        }
    }
    mask
}

/// Backward of ReLU: zeroes gradient entries where the activation was
/// clamped.
pub fn relu_backward(grad: &mut Matrix, mask: &[bool]) {
    assert_eq!(grad.param_count(), mask.len(), "mask size mismatch");
    for (g, &keep) in grad.data_mut().iter_mut().zip(mask) {
        if !keep {
            *g = 0.0;
        }
    }
}

/// Numerically-stable row-wise softmax (out of place).
pub fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(logits.rows(), logits.cols());
    softmax_rows_into(logits, &mut out);
    out
}

/// `out = softmax(logits)` row-wise, reusing `out`'s buffer (no hidden
/// allocation; `out` may alias a scratch matrix kept across steps).
pub fn softmax_rows_into(logits: &Matrix, out: &mut Matrix) {
    assert_eq!(logits.shape(), out.shape(), "softmax output shape");
    for r in 0..out.rows() {
        let src = logits.row(r);
        let row = out.row_mut(r);
        let max = src.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for (v, &s) in row.iter_mut().zip(src) {
            *v = (s - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Softmax + cross-entropy over rows with integer labels.
///
/// Returns `(mean_loss, grad_logits)` where the gradient is already divided
/// by the batch size. Rows whose label is `IGNORE_LABEL` contribute neither
/// loss nor gradient (used for unlabeled vertices inside a subgraph batch).
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[u32]) -> (f32, Matrix) {
    let mut grad = Matrix::zeros(logits.rows(), logits.cols());
    let loss = softmax_cross_entropy_into(logits, labels, &mut grad);
    (loss, grad)
}

/// Softmax + cross-entropy writing the logit gradient into `grad` (one
/// buffer serves as both the probability scratch and the output — the
/// `probs.clone()` the out-of-place version used to pay is gone).
///
/// Returns the mean loss; `grad` holds `∂L/∂logits`, already divided by
/// the number of counted rows.
pub fn softmax_cross_entropy_into(logits: &Matrix, labels: &[u32], grad: &mut Matrix) -> f32 {
    assert_eq!(logits.rows(), labels.len(), "one label per row");
    softmax_rows_into(logits, grad);
    let mut loss = 0.0f64;
    let mut counted = 0usize;
    for (r, &label) in labels.iter().enumerate() {
        if label == IGNORE_LABEL {
            grad.row_mut(r).fill(0.0);
            continue;
        }
        counted += 1;
        let g = grad.row_mut(r);
        let p = g[label as usize].max(1e-12);
        loss -= (p as f64).ln();
        g[label as usize] -= 1.0;
    }
    let denom = counted.max(1) as f32;
    grad.scale(1.0 / denom);
    (loss / counted.max(1) as f64) as f32
}

/// Label sentinel excluded from the loss.
pub const IGNORE_LABEL: u32 = u32::MAX;

/// Row-wise argmax (predictions from logits).
pub fn argmax_rows(m: &Matrix) -> Vec<u32> {
    (0..m.rows())
        .map(|r| {
            let row = m.row(r);
            let mut best = 0usize;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            best as u32
        })
        .collect()
}

/// Logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_roundtrip() {
        let mut m = Matrix::from_vec(1, 4, vec![-2., -0.5, 0.5, 2.]);
        let mask = relu_inplace(&mut m);
        assert_eq!(m.data(), &[0., 0., 0.5, 2.]);
        let mut g = Matrix::from_vec(1, 4, vec![1.; 4]);
        relu_backward(&mut g, &mask);
        assert_eq!(g.data(), &[0., 0., 1., 1.]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., -5., 0., 5.]);
        let s = softmax_rows(&m);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Monotone: larger logit → larger prob.
        assert!(s.get(0, 2) > s.get(0, 1));
    }

    #[test]
    fn cross_entropy_perfect_prediction_small_loss() {
        let m = Matrix::from_vec(1, 2, vec![10.0, -10.0]);
        let (loss, grad) = softmax_cross_entropy(&m, &[0]);
        assert!(loss < 1e-3);
        assert!(grad.get(0, 0).abs() < 1e-3);
    }

    #[test]
    fn cross_entropy_gradient_signs() {
        let m = Matrix::from_vec(1, 2, vec![0.0, 0.0]);
        let (loss, grad) = softmax_cross_entropy(&m, &[1]);
        assert!((loss - (2.0f32).ln()).abs() < 1e-5);
        assert!(grad.get(0, 0) > 0.0);
        assert!(grad.get(0, 1) < 0.0);
    }

    #[test]
    fn ignored_labels_skip_loss() {
        let m = Matrix::from_vec(2, 2, vec![0.0, 0.0, 100.0, -100.0]);
        let (loss_with, g) = softmax_cross_entropy(&m, &[IGNORE_LABEL, 0]);
        assert!(loss_with < 1e-3);
        assert_eq!(g.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn argmax_picks_largest() {
        let m = Matrix::from_vec(2, 3, vec![1., 5., 2., 7., 0., 3.]);
        assert_eq!(argmax_rows(&m), vec![1, 0]);
    }

    #[test]
    fn sigmoid_bounds() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(10.0) > 0.999);
        assert!(sigmoid(-10.0) < 0.001);
    }
}
