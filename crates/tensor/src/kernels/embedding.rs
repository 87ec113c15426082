//! Embedding lookup (gather) and its scatter-add gradient.

use crate::TensorView;

/// Embedding lookup writing into a preallocated `out`.
///
/// `table` is `[vocab, dim]`; `ids` holds integer token indices stored as
/// floats with any shape `[...]`; `out` has shape `[..., dim]`.
///
/// # Panics
///
/// Panics if an index is out of range or `out` has the wrong length.
pub fn gather_into(table: TensorView, ids: TensorView, out: &mut [f32]) {
    let (vocab, dim) = (table.dims()[0], table.dims()[1]);
    assert_eq!(
        out.len(),
        ids.numel() * dim,
        "gather output length mismatch"
    );
    for (i, &idf) in ids.data().iter().enumerate() {
        let id = idf as usize;
        assert!(id < vocab, "token id {id} out of range for vocab {vocab}");
        out[i * dim..(i + 1) * dim].copy_from_slice(&table.data()[id * dim..(id + 1) * dim]);
    }
}

/// Gradient of [`gather_into`] with respect to the table: scatter-adds `dy`
/// rows into a preallocated `[vocab, dim]` `out` (zero-filled first, then
/// accumulated).
///
/// # Panics
///
/// Panics if `out` does not match `vocab * dim`.
pub fn gather_grad_into(
    ids: TensorView,
    dy: TensorView,
    vocab: usize,
    dim: usize,
    out: &mut [f32],
) {
    assert_eq!(out.len(), vocab * dim, "gather_grad output length mismatch");
    out.fill(0.0);
    for (i, &idf) in ids.data().iter().enumerate() {
        let id = idf as usize;
        let src = &dy.data()[i * dim..(i + 1) * dim];
        let dst = &mut out[id * dim..(id + 1) * dim];
        for (d, s) in dst.iter_mut().zip(src) {
            *d += s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::run_into;
    use crate::Tensor;

    #[test]
    fn gather_rows() {
        let table = Tensor::from_vec(vec![0.0, 0.1, 1.0, 1.1, 2.0, 2.1], [3, 2]);
        let ids = Tensor::from_vec(vec![2.0, 0.0], [2]);
        let out = run_into([2, 2], |o| gather_into(table.view(), ids.view(), o));
        assert_eq!(out.dims(), &[2, 2]);
        assert_eq!(out.data(), &[2.0, 2.1, 0.0, 0.1]);
    }

    #[test]
    fn gather_batched_shape() {
        let table = Tensor::from_vec((0..20).map(|v| v as f32).collect(), [5, 4]);
        let ids = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 0.0, 1.0], [2, 3]);
        let out = run_into([2, 3, 4], |o| gather_into(table.view(), ids.view(), o));
        assert_eq!(out.dims(), &[2, 3, 4]);
        assert_eq!(&out.data()[..4], &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn gather_grad_accumulates_repeats() {
        let ids = Tensor::from_vec(vec![1.0, 1.0, 0.0], [3]);
        let dy = Tensor::ones([3, 2]);
        let g = run_into([4, 2], |o| gather_grad_into(ids.view(), dy.view(), 4, 2, o));
        assert_eq!(g.at(&[1, 0]), 2.0);
        assert_eq!(g.at(&[0, 0]), 1.0);
        assert_eq!(g.at(&[3, 0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_out_of_range_panics() {
        let table = Tensor::zeros([2, 2]);
        let ids = Tensor::from_vec(vec![5.0], [1]);
        gather_into(table.view(), ids.view(), &mut [0.0; 2]);
    }
}
