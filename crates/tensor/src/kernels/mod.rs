//! Reference CPU kernels.
//!
//! Each submodule hosts a family of kernels in the shared forward/backward
//! primitive operator set (paper §2.5). Kernels are free functions operating
//! on [`crate::Tensor`] values; they validate shapes with assertions because
//! shape agreement is established by the compiler's shape inference before
//! execution.

pub mod conv;
pub mod elementwise;
pub mod embedding;
pub mod gemm;
pub mod layout;
pub mod norm;
pub mod pool;
pub mod reduce;
