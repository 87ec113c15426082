//! The dense tensor type.

use crate::{Rng, Shape, TensorError};

/// A dense, row-major `f32` tensor: `f32` is the one element type the
/// engine computes, stores and plans memory for.
///
/// # Example
///
/// ```
/// use pe_tensor::Tensor;
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.numel(), 6);
/// assert!(t.data().iter().all(|&x| x == 0.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[] as &[usize])
    }
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub(crate) fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates a rank-0 scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// Creates an identity matrix of size `n x n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros([n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from a data vector and shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape volume. Use
    /// `Tensor::try_from_vec` for a fallible variant.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        Tensor::try_from_vec(data, shape).expect("data length must match shape volume")
    }

    /// Creates a tensor from a data vector and shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLengthMismatch`] if the data length does not
    /// match the shape volume.
    pub(crate) fn try_from_vec(
        data: Vec<f32>,
        shape: impl Into<Shape>,
    ) -> Result<Self, TensorError> {
        let shape = shape.into();
        if data.len() != shape.numel() {
            return Err(TensorError::DataLengthMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor with values drawn from `N(0, std^2)`.
    pub fn randn(shape: impl Into<Shape>, std: f32, rng: &mut Rng) -> Self {
        let shape = shape.into();
        let data = (0..shape.numel())
            .map(|_| rng.normal_with(0.0, std))
            .collect();
        Tensor { shape, data }
    }

    /// Kaiming/He initialisation for a weight of the given shape, where
    /// `fan_in` is the number of input connections per output unit.
    pub fn kaiming(shape: impl Into<Shape>, fan_in: usize, rng: &mut Rng) -> Self {
        let std = (2.0 / fan_in.max(1) as f32).sqrt();
        Tensor::randn(shape, std, rng)
    }

    /// The tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Immutable view of the underlying data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank mismatches or is out of bounds.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.ravel(idx)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank mismatches or is out of bounds.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let off = self.shape.ravel(idx);
        self.data[off] = value;
    }

    /// Returns `true` when the two tensors have equal shape and all elements
    /// are within `tol` of each other.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol + tol * b.abs().max(a.abs()))
    }

    /// Index of the maximum element along the last axis, for each row of a
    /// 2-D tensor. Used for classification accuracy.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.shape.rank(), 2, "argmax_rows requires a rank-2 tensor");
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        (0..rows)
            .map(|r| {
                let row = &self.data[r * cols..(r + 1) * cols];
                row.iter()
                    .enumerate()
                    .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                        if v > bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    })
                    .0
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Tensor {
        /// Creates a tensor with values drawn uniformly from `[lo, hi)`.
        pub(crate) fn rand_uniform(
            shape: impl Into<Shape>,
            lo: f32,
            hi: f32,
            rng: &mut Rng,
        ) -> Self {
            let shape = shape.into();
            let data = (0..shape.numel()).map(|_| rng.uniform(lo, hi)).collect();
            Tensor { shape, data }
        }

        /// Returns a copy reshaped to `shape` (the volume must match).
        ///
        /// # Panics
        ///
        /// Panics if the new shape volume differs from the current one.
        pub(crate) fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
            let shape = shape.into();
            assert_eq!(shape.numel(), self.numel(), "reshape volume mismatch");
            Tensor {
                shape,
                data: self.data.clone(),
            }
        }

        /// Applies `f` elementwise, returning a new tensor.
        pub(crate) fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
            Tensor {
                shape: self.shape.clone(),
                data: self.data.iter().map(|&x| f(x)).collect(),
            }
        }

        /// Sum of all elements.
        pub(crate) fn sum(&self) -> f32 {
            self.data.iter().sum()
        }

        /// Mean of all elements (0 for an empty tensor).
        pub(crate) fn mean(&self) -> f32 {
            if self.data.is_empty() {
                0.0
            } else {
                self.sum() / self.data.len() as f32
            }
        }

        /// Maximum absolute element (0 for an empty tensor).
        pub(crate) fn max_abs(&self) -> f32 {
            self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
        }

        /// Squared L2 norm of all elements.
        pub(crate) fn sq_norm(&self) -> f32 {
            self.data.iter().map(|&x| x * x).sum()
        }
    }

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::full([2, 3], 2.5);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.dims(), &[2, 3]);
        assert_eq!(t.at(&[1, 2]), 2.5);
    }

    #[test]
    fn try_from_vec_rejects_bad_length() {
        let err = Tensor::try_from_vec(vec![1.0; 5], [2, 3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::DataLengthMismatch {
                expected: 6,
                actual: 5
            }
        );
    }

    #[test]
    fn eye_matrix() {
        let t = Tensor::eye(3);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 2]), 0.0);
        assert_eq!(t.sum(), 3.0);
    }

    #[test]
    fn set_and_get() {
        let mut t = Tensor::zeros([2, 2]);
        t.set(&[1, 0], 7.0);
        assert_eq!(t.at(&[1, 0]), 7.0);
        assert_eq!(t.sum(), 7.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let r = t.reshape([3, 2]);
        assert_eq!(r.dims(), &[3, 2]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    #[should_panic(expected = "reshape volume mismatch")]
    fn reshape_wrong_volume_panics() {
        Tensor::zeros([2, 3]).reshape([4, 2]);
    }

    #[test]
    fn map_and_stats() {
        let t = Tensor::from_vec(vec![-1.0, 2.0, -3.0], [3]);
        let m = t.map(|x| x * x);
        assert_eq!(m.data(), &[1.0, 4.0, 9.0]);
        assert_eq!(t.max_abs(), 3.0);
        assert!((t.mean() - (-2.0 / 3.0)).abs() < 1e-6);
        assert_eq!(m.sq_norm(), 1.0 + 16.0 + 81.0);
    }

    #[test]
    fn randn_is_reasonable() {
        let mut rng = Rng::seed_from_u64(0);
        let t = Tensor::randn([64, 64], 1.0, &mut rng);
        assert!(t.mean().abs() < 0.05);
        let var = t.data().iter().map(|x| x * x).sum::<f32>() / t.numel() as f32;
        assert!((var - 1.0).abs() < 0.1);
    }

    #[test]
    fn kaiming_scale_shrinks_with_fan_in() {
        let mut rng = Rng::seed_from_u64(0);
        let small = Tensor::kaiming([32, 32], 8, &mut rng);
        let big = Tensor::kaiming([32, 32], 8192, &mut rng);
        assert!(small.max_abs() > big.max_abs());
    }

    #[test]
    fn allclose_tolerance() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let b = Tensor::from_vec(vec![1.0 + 1e-7, 2.0 - 1e-7], [2]);
        assert!(a.allclose(&b, 1e-5));
        let c = Tensor::from_vec(vec![1.1, 2.0], [2]);
        assert!(!a.allclose(&c, 1e-5));
    }

    #[test]
    fn argmax_rows_picks_max_per_row() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.8, 0.1, 0.1], [2, 3]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }
}
