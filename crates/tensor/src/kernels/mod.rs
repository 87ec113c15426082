//! Reference CPU kernels.
//!
//! Each submodule hosts a family of kernels in the shared forward/backward
//! primitive operator set (paper §2.5). Every kernel is a free function over
//! borrowed [`crate::TensorView`] operands that writes its result into an
//! `out: &mut [f32]` the caller has sized (an arena range, at run time): the
//! kernel allocates nothing and asserts that the operand and output lengths
//! agree, because shape agreement is established by the compiler's shape
//! inference before execution.

pub mod conv;
pub mod elementwise;
pub mod embedding;
pub mod gemm;
pub mod layout;
pub mod norm;
pub mod pool;

/// Allocates a zeroed tensor of `dims`, lets `kernel` write it, and returns
/// it: one line for a test to run an `_into` kernel.
#[cfg(test)]
pub(crate) fn run_into(
    dims: impl Into<crate::Shape>,
    kernel: impl FnOnce(&mut [f32]),
) -> crate::Tensor {
    let mut out = crate::Tensor::zeros(dims);
    kernel(out.data_mut());
    out
}
