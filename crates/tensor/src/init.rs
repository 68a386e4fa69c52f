//! Weight initializers.
//!
//! The paper initializes node embeddings "randomly using Xavier weight"
//! (§V-A3); the same scheme is used for layer weights here. All initializers
//! take an explicit RNG so experiments are reproducible from a single seed.

use rand::Rng;

use crate::matrix::Matrix;

/// Xavier/Glorot uniform: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    let a = (6.0f64 / (rows + cols) as f64).sqrt() as f32;
    let mut m = Matrix::zeros(rows, cols);
    for v in m.data_mut() {
        *v = rng.gen_range(-a..=a);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_within_bound() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = xavier_uniform(10, 20, &mut rng);
        let a = (6.0f64 / 30.0).sqrt() as f32;
        assert!(m.data().iter().all(|&v| v.abs() <= a + 1e-6));
        // Not all zero.
        assert!(m.norm() > 0.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = xavier_uniform(4, 4, &mut StdRng::seed_from_u64(7));
        let b = xavier_uniform(4, 4, &mut StdRng::seed_from_u64(7));
        assert_eq!(a.data(), b.data());
    }
}
