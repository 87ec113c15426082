//! # pe-tensor
//!
//! Tensor substrate for PockEngine-RS: a small, dependency-light numerical
//! library providing the dense tensor type and the CPU kernels that the
//! PockEngine runtime executes. `f32` is the one element type: every tensor
//! stores it, every kernel computes in it, and the memory planner sizes every
//! buffer as four bytes per element.
//!
//! The crate deliberately mirrors the primitive operator set that the paper's
//! compiler shares between inference and training (§2.5): GEMM, convolution
//! (lowered onto the GEMM core), depthwise convolution, pooling,
//! element-wise math, normalisation, softmax and embedding
//! lookups, together with the vector-Jacobian products needed to express
//! backpropagation with the same primitives.
//!
//! # Example
//!
//! ```
//! use pe_tensor::{Tensor, kernels};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let mut c = Tensor::zeros([2, 2]);
//! kernels::gemm::matmul_into(a.view(), b.view(), false, false, c.data_mut());
//! assert_eq!(c.data(), a.data());
//! ```

#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod codec;
pub mod kernels;
pub(crate) mod rng;
pub(crate) mod shape;
pub(crate) mod tensor;
pub(crate) mod view;

pub use rng::Rng;
pub use shape::Shape;
pub use tensor::Tensor;
pub use view::TensorView;

/// Error type for tensor-level operations.
///
/// Most kernels validate their inputs with assertions (shape mismatches are
/// programming errors inside the engine); `TensorError` is reserved for
/// conditions that a caller may reasonably want to handle, such as
/// constructing a tensor from mismatched data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TensorError {
    /// The provided data length does not match the product of the shape dims.
    DataLengthMismatch {
        /// Number of elements implied by the shape.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::DataLengthMismatch { expected, actual } => {
                write!(
                    f,
                    "data length {actual} does not match shape volume {expected}"
                )
            }
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let e = TensorError::DataLengthMismatch {
            expected: 4,
            actual: 3,
        };
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tensor>();
        assert_send_sync::<TensorError>();
    }
}
