//! Synthetic classification datasets (substitute for the proprietary
//! training data; the numerics are exercised identically).

use rand::{rngs::StdRng, Rng, SeedableRng};
use rapid_numerics::Tensor;

/// A labelled dataset: features `[n, dim]` and class labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Feature matrix `[n, dim]`.
    pub x: Tensor,
    /// Class label per row.
    pub y: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Feature dimensionality.
    pub(crate) fn dim(&self) -> usize {
        self.x.shape()[1]
    }

    /// Extracts rows `[start, end)` as a batch.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn batch(&self, start: usize, end: usize) -> (Tensor, &[usize]) {
        assert!(start <= end && end <= self.len(), "batch range out of bounds");
        let dim = self.dim();
        let rows = end - start;
        let data = self.x.as_slice()[start * dim..end * dim].to_vec();
        (Tensor::from_vec(vec![rows, dim], data), &self.y[start..end])
    }
}

/// Gaussian blobs: `classes` clusters with random centres in `[-2, 2]^dim`
/// and isotropic noise `spread`.
pub fn gaussian_blobs(n: usize, classes: usize, dim: usize, spread: f32, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let centres: Vec<Vec<f32>> = (0..classes)
        .map(|_| (0..dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
        .collect();
    let mut x = Vec::with_capacity(n * dim);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let c = i % classes;
        #[allow(clippy::needless_range_loop)]
        for d in 0..dim {
            // Box-Muller normal noise.
            let u1: f32 = rng.gen_range(1e-6f32..1.0);
            let u2: f32 = rng.gen_range(0.0f32..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
            x.push(centres[c][d] + spread * z);
        }
        y.push(c);
    }
    Dataset { x: Tensor::from_vec(vec![n, dim], x), y, classes }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn blobs_shape_and_labels() {
        let d = gaussian_blobs(100, 4, 8, 0.2, 1);
        assert_eq!(d.len(), 100);
        assert_eq!(d.dim(), 8);
        assert_eq!(d.classes, 4);
        assert!(d.y.iter().all(|&c| c < 4));
    }

    #[test]
    fn batch_extraction() {
        let d = gaussian_blobs(10, 2, 3, 0.1, 2);
        let (bx, by) = d.batch(4, 7);
        assert_eq!(bx.shape(), &[3, 3]);
        assert_eq!(by.len(), 3);
        assert_eq!(bx.get(&[0, 0]), d.x.get(&[4, 0]));
    }

    #[test]
    fn datasets_are_deterministic() {
        assert_eq!(gaussian_blobs(50, 3, 4, 0.3, 7), gaussian_blobs(50, 3, 4, 0.3, 7));
    }

    #[test]
    #[should_panic(expected = "batch range out of bounds")]
    fn bad_batch_panics() {
        let d = gaussian_blobs(10, 2, 3, 0.1, 3);
        let _ = d.batch(8, 12);
    }
}
