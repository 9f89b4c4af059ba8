//! A minimal row-major `f32` tensor shared across the workspace.
//!
//! Functional emulation works on `f32` values that are exact members of the
//! emulated format's value set (see [`crate::format::FpFormat`]); this type
//! is the container those values live in.

use crate::NumericsError;

/// Dense row-major tensor of `f32` values.
///
/// # Example
///
/// ```
/// use rapid_numerics::Tensor;
///
/// let mut t = Tensor::zeros(vec![2, 3]);
/// t.set(&[1, 2], 5.0);
/// assert_eq!(t.get(&[1, 2]), 5.0);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape has a zero dimension product overflow.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let n: usize = shape.iter().product();
        Self { shape, data: vec![0.0; n] }
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(n, data.len(), "shape {shape:?} does not match data length {}", data.len());
        Self { shape, data }
    }

    /// Creates a tensor filled by `f(flat_index)`.
    pub fn from_fn(shape: Vec<usize>, mut f: impl FnMut(usize) -> f32) -> Self {
        let n: usize = shape.iter().product();
        let data = (0..n).map(&mut f).collect();
        Self { shape, data }
    }

    /// Uniform random tensor in `[lo, hi)` from a deterministic seed.
    pub fn random_uniform(shape: Vec<usize>, lo: f32, hi: f32, seed: u64) -> Self {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        Self::from_fn(shape, |_| rng.gen_range(lo..hi))
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reshapes in place to `shape`, zero-filling all elements. Existing
    /// contents are discarded but the backing allocation is kept, so scratch
    /// tensors (e.g. im2col buffers) can be reused across calls without
    /// reallocating.
    pub(crate) fn reset(&mut self, shape: Vec<usize>) {
        let n: usize = shape.iter().product();
        self.data.clear();
        self.data.resize(n, 0.0);
        self.shape = shape;
    }

    fn flat_index(&self, idx: &[usize]) -> usize {
        assert_eq!(
            idx.len(),
            self.shape.len(),
            "index rank {} does not match tensor rank {}",
            idx.len(),
            self.shape.len()
        );
        let mut flat = 0usize;
        for (i, (&ix, &dim)) in idx.iter().zip(&self.shape).enumerate() {
            assert!(ix < dim, "index {ix} out of bounds for dim {i} of size {dim}");
            flat = flat * dim + ix;
        }
        flat
    }

    /// Element at a multidimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn get(&self, idx: &[usize]) -> f32 {
        self.data[self.flat_index(idx)]
    }

    /// Sets the element at a multidimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn set(&mut self, idx: &[usize], v: f32) {
        let i = self.flat_index(idx);
        self.data[i] = v;
    }

    /// Returns a tensor with every element mapped through `f`.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Reshapes without moving data.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::ShapeMismatch`] if the element counts differ.
    pub fn reshape(mut self, shape: Vec<usize>) -> Result<Self, NumericsError> {
        let n: usize = shape.iter().product();
        if n != self.data.len() {
            return Err(NumericsError::ShapeMismatch {
                expected: format!("{} elements", self.data.len()),
                actual: format!("shape {shape:?} = {n} elements"),
            });
        }
        self.shape = shape;
        Ok(self)
    }

    /// Largest absolute value (0.0 for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Fraction of exactly-zero elements (drives the sparsity/throttling
    /// model).
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().filter(|&&x| x == 0.0).count() as f64 / self.data.len() as f64
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// Works in 16×16 tiles: each tile's source rows are read into a
    /// stack buffer, then written out as contiguous destination rows. A
    /// plain element loop writes the output with a stride of `rows`
    /// elements, which misses cache on nearly every store when that stride
    /// is a multiple of a cache-set period; wider tiles measured no faster.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transposed(&self) -> Self {
        const TILE: usize = 16;
        assert_eq!(self.shape.len(), 2, "transpose requires a rank-2 tensor");
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = Tensor::zeros(vec![c, r]);
        let mut tile = [[0.0f32; TILE]; TILE];
        for i0 in (0..r).step_by(TILE) {
            let h = TILE.min(r - i0);
            for j0 in (0..c).step_by(TILE) {
                let w = TILE.min(c - j0);
                for (di, trow) in tile[..h].iter_mut().enumerate() {
                    trow[..w].copy_from_slice(&self.data[(i0 + di) * c + j0..][..w]);
                }
                for dj in 0..w {
                    let orow = &mut out.data[(j0 + dj) * r + i0..][..h];
                    for (o, trow) in orow.iter_mut().zip(&tile) {
                        *o = trow[dj];
                    }
                }
            }
        }
        out
    }

    /// Maximum relative element-wise difference against `other`, normalized
    /// by `other`'s max magnitude (useful for accuracy comparisons).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_rel_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch in max_rel_diff");
        let denom = other.max_abs().max(1e-12);
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0f32, |m, (&a, &b)| m.max((a - b).abs() / denom))
    }
}

impl FromIterator<f32> for Tensor {
    /// Collects into a rank-1 tensor.
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        let data: Vec<f32> = iter.into_iter().collect();
        Self { shape: vec![data.len()], data }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn indexing_row_major() {
        let t = Tensor::from_vec(vec![2, 3], vec![0., 1., 2., 3., 4., 5.]);
        assert_eq!(t.get(&[0, 0]), 0.0);
        assert_eq!(t.get(&[0, 2]), 2.0);
        assert_eq!(t.get(&[1, 0]), 3.0);
        assert_eq!(t.get(&[1, 2]), 5.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let t = Tensor::zeros(vec![2, 3]);
        t.get(&[0, 3]);
    }

    #[test]
    fn reshape_checks_count() {
        let t = Tensor::zeros(vec![2, 3]);
        assert!(t.clone().reshape(vec![3, 2]).is_ok());
        assert!(t.reshape(vec![4, 2]).is_err());
    }

    #[test]
    fn transpose_round_trips() {
        let t = Tensor::random_uniform(vec![3, 5], -1.0, 1.0, 42);
        assert_eq!(t.transposed().transposed(), t);
        assert_eq!(t.transposed().get(&[4, 2]), t.get(&[2, 4]));
    }

    /// `t.transposed()` against the index formula `out[j][i] = t[i][j]`,
    /// plus the round trip.
    fn check_transpose(r: usize, c: usize, seed: u64) {
        let t = Tensor::random_uniform(vec![r, c], -1.0, 1.0, seed);
        let want = Tensor::from_fn(vec![c, r], |x| t.as_slice()[(x % r) * c + x / r]);
        let got = t.transposed();
        assert_eq!(got.shape(), want.shape(), "[{r}, {c}]");
        assert_eq!(got.as_slice(), want.as_slice(), "[{r}, {c}]");
        assert_eq!(got.transposed(), t, "[{r}, {c}] round trip");
    }

    /// Empty dimensions, single rows and columns, and one below, at and
    /// above the 16×16 tile edge.
    #[test]
    fn transpose_edge_shapes_match_index_oracle() {
        let dims = [0, 1, 15, 16, 17, 32, 33, 70];
        for r in dims {
            for c in dims {
                check_transpose(r, c, (r * 71 + c) as u64);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn transposed_matches_index_oracle(r in 0usize..=70, c in 0usize..=70, seed in 0u64..1000) {
            check_transpose(r, c, seed);
        }
    }

    #[test]
    fn stats() {
        let t = Tensor::from_vec(vec![4], vec![0.0, 0.0, 2.0, -4.0]);
        assert_eq!(t.max_abs(), 4.0);
        assert_eq!(t.sparsity(), 0.5);
    }

    #[test]
    fn random_is_deterministic() {
        let a = Tensor::random_uniform(vec![10], 0.0, 1.0, 9);
        let b = Tensor::random_uniform(vec![10], 0.0, 1.0, 9);
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn collect_makes_rank1() {
        let t: Tensor = (0..4).map(|i| i as f32).collect();
        assert_eq!(t.shape(), &[4]);
    }
}
