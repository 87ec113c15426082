//! Tensor shapes and broadcasting helpers.

/// A dense, row-major tensor shape.
///
/// `Shape` is an inexpensive wrapper around a `Vec<usize>` of dimension
/// sizes. A rank-0 shape denotes a scalar with one element.
///
/// # Example
///
/// ```
/// use pe_tensor::Shape;
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.numel(), 24);
/// assert_eq!(s.rank(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from dimension sizes.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape { dims }
    }

    /// Creates a scalar (rank-0) shape.
    pub fn scalar() -> Self {
        Shape { dims: Vec::new() }
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// Row-major strides (in elements) for this shape.
    pub(crate) fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Computes the broadcast result shape of `self` and `other`, if any.
    pub fn broadcast_with(&self, other: &Shape) -> Option<Shape> {
        let r = self.rank().max(other.rank());
        let mut out = vec![0usize; r];
        #[allow(clippy::needless_range_loop)]
        for i in 0..r {
            let a = if i < r - self.rank() {
                1
            } else {
                self.dims[i - (r - self.rank())]
            };
            let b = if i < r - other.rank() {
                1
            } else {
                other.dims[i - (r - other.rank())]
            };
            if a == b || a == 1 || b == 1 {
                out[i] = a.max(b);
            } else {
                return None;
            }
        }
        Some(Shape::new(out))
    }

    /// Converts a multi-dimensional index into a flat row-major offset.
    ///
    /// # Panics
    ///
    /// Panics if `idx.len() != rank()`.
    pub(crate) fn ravel(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.rank(), "index rank mismatch");
        idx.iter().zip(self.strides()).map(|(i, s)| i * s).sum()
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl<const N: usize> From<&[usize; N]> for Shape {
    fn from(dims: &[usize; N]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl From<&Vec<usize>> for Shape {
    fn from(dims: &Vec<usize>) -> Self {
        Shape::new(dims.clone())
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.dims()[1], 3);
        assert_eq!(Shape::scalar().numel(), 1);
        assert_eq!(Shape::scalar().rank(), 0);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        let s = Shape::new(vec![5]);
        assert_eq!(s.strides(), vec![1]);
        assert!(Shape::scalar().strides().is_empty());
    }

    #[test]
    fn broadcast_rules() {
        let a = Shape::new(vec![2, 1, 4]);
        let b = Shape::new(vec![3, 1]);
        let c = a.broadcast_with(&b).unwrap();
        assert_eq!(c.dims(), &[2, 3, 4]);

        let a = Shape::new(vec![2, 3]);
        let b = Shape::new(vec![4, 3]);
        assert!(a.broadcast_with(&b).is_none());
    }

    /// Converts a flat row-major index into a multi-dimensional index.
    fn unravel(s: &Shape, mut flat: usize) -> Vec<usize> {
        let mut idx = vec![0usize; s.rank()];
        for (i, st) in s.strides().iter().enumerate() {
            idx[i] = flat / st;
            flat %= st;
        }
        idx
    }

    #[test]
    fn ravel_unravel_roundtrip() {
        let s = Shape::new(vec![2, 3, 4]);
        for flat in 0..s.numel() {
            let idx = unravel(&s, flat);
            assert_eq!(s.ravel(&idx), flat);
        }
    }

    #[test]
    fn display_format() {
        let s = Shape::new(vec![2, 3]);
        assert_eq!(s.to_string(), "[2, 3]");
    }
}
