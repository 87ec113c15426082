//! Borrowed tensor views over externally owned storage.
//!
//! The compiled runtime executes a training step out of one preallocated
//! arena: every transient buffer is a `[f32]` range of the slab at an offset
//! chosen by the memory planner. [`TensorView`] is the read-only handle the
//! kernels' `_into` variants accept for such a range — shape metadata plus a
//! borrowed data slice, with no owned allocation anywhere.

use crate::{Shape, Tensor};

/// A borrowed, row-major, `f32` tensor: dimension sizes plus a data slice.
///
/// Unlike [`Tensor`], a view owns nothing; it is `Copy` and is meant to be
/// constructed fresh for every kernel call from arena offsets, parameter
/// stores or step inputs.
///
/// # Example
///
/// ```
/// use pe_tensor::{Tensor, TensorView};
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
/// let v = t.view();
/// assert_eq!(v.dims(), &[2, 2]);
/// assert_eq!(v.numel(), 4);
/// assert_eq!(v.data()[3], 4.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TensorView<'a> {
    dims: &'a [usize],
    data: &'a [f32],
}

impl<'a> TensorView<'a> {
    /// Creates a view from dimension sizes and a data slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice length does not equal the shape volume.
    pub fn new(dims: &'a [usize], data: &'a [f32]) -> Self {
        debug_assert_eq!(
            dims.iter().product::<usize>(),
            data.len(),
            "view data length must match shape volume"
        );
        TensorView { dims, data }
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &'a [usize] {
        self.dims
    }

    /// The borrowed data slice.
    pub fn data(&self) -> &'a [f32] {
        self.data
    }

    /// Number of dimensions.
    pub(crate) fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Copies the view into an owned [`Tensor`] (allocates).
    pub fn to_tensor(&self) -> Tensor {
        Tensor::from_vec(self.data.to_vec(), Shape::new(self.dims.to_vec()))
    }
}

impl Tensor {
    /// A borrowed view of the whole tensor.
    pub fn view(&self) -> TensorView<'_> {
        TensorView {
            dims: self.dims(),
            data: self.data(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_round_trips_through_tensor() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let v = t.view();
        assert_eq!(v.rank(), 2);
        assert_eq!(v.numel(), 6);
        let back = v.to_tensor();
        assert_eq!(back, t);
    }

    #[test]
    fn view_over_external_slice() {
        let slab = [0.0f32, 1.0, 2.0, 3.0];
        let dims = [2usize, 2];
        let v = TensorView::new(&dims, &slab[..]);
        assert_eq!(v.data()[2], 2.0);
    }
}
