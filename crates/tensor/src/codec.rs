//! The byte codec of every payload that crosses a process boundary: the
//! wire protocol's frames (`pe_net`) and the `ParamStore` snapshot
//! (`pe_runtime`) are both written by [`Writer`] and read by [`Reader`].
//!
//! Integers are little-endian; an `f32` is its IEEE-754 bit pattern, so
//! values round-trip bit-exactly; a duration is `u64` nanoseconds
//! (saturating); a string is a `u32` byte length, then UTF-8. A shape is a
//! rank `u8` of at most 8, then one `u32` per dim, and a tensor is its shape,
//! then its elements in row-major order.
//!
//! A [`Reader`]'s bytes are untrusted: every read is checked against what
//! remains *before* anything is sized from it, so a short payload or a
//! hostile rank, dim or length is a [`CodecError`], never a panic or an
//! allocation the payload cannot back. A [`Writer`] panics on a value its
//! field cannot hold rather than truncate it into bytes that decode as
//! something else.

use std::time::Duration;

use crate::Tensor;

/// The largest rank a shape may declare.
const MAX_RANK: usize = 8;

/// Why a payload could not be decoded: truncation, a hostile header, bad
/// UTF-8 or trailing bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

/// `v` as a narrower field type; panics if it does not fit.
pub fn fit<T: TryFrom<usize>>(v: usize) -> T {
    T::try_from(v)
        .unwrap_or_else(|_| panic!("{v} overflows its {}-byte field", std::mem::size_of::<T>()))
}

/// Appends values to a payload in the codec's layout.
#[derive(Debug)]
pub struct Writer(Vec<u8>);

impl Writer {
    /// The payload `write` produces, with room for `capacity` bytes.
    pub fn encode(capacity: usize, write: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut w = Writer(Vec::with_capacity(capacity));
        write(&mut w);
        w.0
    }

    /// Raw bytes, unprefixed.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// A `u16`.
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    /// A `u32`; an `f32` is written as its `to_bits`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// A `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Every element of a row, unprefixed (the reader knows its length).
    pub fn f32s(&mut self, row: &[f32]) {
        for &v in row {
            self.u32(v.to_bits());
        }
    }

    /// A duration.
    pub fn duration(&mut self, d: Duration) {
        self.u64(d.as_nanos().try_into().unwrap_or(u64::MAX));
    }

    /// A string; panics at 4 GiB or longer.
    pub fn str(&mut self, s: &str) {
        self.u32(fit(s.len()));
        self.bytes(s.as_bytes());
    }

    /// A shape; panics on a rank above 8 or a dim above `u32::MAX`.
    pub fn dims(&mut self, dims: &[usize]) {
        let rank = dims.len();
        assert!(rank <= MAX_RANK, "rank {rank} exceeds {MAX_RANK}");
        self.u8(fit(rank));
        for &d in dims {
            self.u32(fit(d));
        }
    }

    /// A tensor; panics as [`Writer::dims`] does.
    pub fn tensor(&mut self, t: &Tensor) {
        self.dims(t.dims());
        self.f32s(t.data());
    }
}

/// Reads values back out of an untrusted payload. Every read fails with a
/// [`CodecError`] when the payload is too short for it.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// Reads all of `bytes` with `read`; bytes left after it are an error.
    pub fn read_all<T, E: From<CodecError>>(
        bytes: &'a [u8],
        read: impl FnOnce(&mut Reader<'a>) -> Result<T, E>,
    ) -> Result<T, E> {
        let mut r = Reader { bytes, at: 0 };
        let value = read(&mut r)?;
        match r.remaining() {
            0 => Ok(value),
            n => Err(CodecError(format!("{n} trailing bytes after the payload")).into()),
        }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// The next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError(format!(
                "truncated: wanted {n} bytes at offset {}, have {}",
                self.at,
                self.remaining()
            )));
        }
        self.at += n;
        Ok(&self.bytes[self.at - n..self.at])
    }

    /// Every byte that remains.
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = &self.bytes[self.at..];
        self.at = self.bytes.len();
        rest
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// A `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A `u32`; an `f32` is its `from_bits`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A row of `n` elements. Its byte count is overflow-checked and
    /// compared with what remains before the row is allocated: dims like
    /// `[2^31, 2^31]` pass a per-dim product but wrap `n * 4` to 0.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, CodecError> {
        let bytes = n
            .checked_mul(4)
            .ok_or_else(|| CodecError(format!("a row of {n} elements overflows")))?;
        let left = self.remaining();
        let row = self
            .take(bytes)
            .map_err(|_| CodecError(format!("{n} elements need {bytes} bytes, {left} remain")))?;
        Ok(row
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// A duration.
    pub fn duration(&mut self) -> Result<Duration, CodecError> {
        Ok(Duration::from_nanos(self.u64()?))
    }

    /// A string, borrowed from the payload; bytes that are not UTF-8 fail.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| CodecError("string is not UTF-8".into()))
    }

    /// A shape; a rank above 8 fails before any dim is read.
    pub fn dims(&mut self) -> Result<Vec<usize>, CodecError> {
        let rank = self.u8()? as usize;
        if rank > MAX_RANK {
            return Err(CodecError(format!("rank {rank} exceeds {MAX_RANK}")));
        }
        (0..rank).map(|_| Ok(self.u32()? as usize)).collect()
    }

    /// A tensor; a volume that overflows, or that the payload cannot hold,
    /// fails before the elements are allocated.
    pub fn tensor(&mut self) -> Result<Tensor, CodecError> {
        let dims = self.dims()?;
        let numel = dims
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d))
            .ok_or_else(|| CodecError("tensor volume overflows".into()))?;
        Ok(Tensor::from_vec(self.f32s(numel)?, dims))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_value_round_trips_bit_exactly() {
        let t = Tensor::from_vec(vec![1.5, -0.0, f32::from_bits(0x7fc0_0001)], [1, 3]);
        let bytes = Writer::encode(0, |w| {
            w.u8(7);
            w.u16(0xBEEF);
            w.u32(u32::MAX);
            w.u64(u64::MAX - 1);
            w.duration(Duration::from_nanos(1_234_567_891));
            w.str("fc.weight");
            w.dims(&[]);
            w.tensor(&t);
        });
        let back = Reader::read_all(&bytes, |r| {
            assert_eq!(r.u8(), Ok(7));
            assert_eq!(r.u16(), Ok(0xBEEF));
            assert_eq!(r.u32(), Ok(u32::MAX));
            assert_eq!(r.u64(), Ok(u64::MAX - 1));
            assert_eq!(r.duration(), Ok(Duration::from_nanos(1_234_567_891)));
            assert_eq!(r.str(), Ok("fc.weight"));
            assert_eq!(r.dims(), Ok(vec![]));
            r.tensor()
        })
        .unwrap();
        assert_eq!(back.dims(), t.dims());
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&t));
    }

    #[test]
    fn hostile_headers_error_before_sizing_anything() {
        let read = |bytes: &[u8]| Reader::read_all(bytes, |r| r.tensor()).unwrap_err().0;
        assert!(read(&[9]).contains("rank 9 exceeds 8"));
        assert!(read(&Writer::encode(9, |w| w.dims(&[1 << 31, 1 << 31]))).contains("overflows"));
        assert!(read(&Writer::encode(5, |w| w.dims(&[u32::MAX as usize]))).contains("elements"));
        assert!(read(&[1, 2]).contains("truncated"));
        let trailing = Reader::read_all(&[0, 1], |r| r.u8()).unwrap_err();
        assert!(trailing.0.contains("trailing"), "{trailing:?}");
    }

    #[test]
    #[should_panic(expected = "overflows its 1-byte field")]
    fn a_writer_refuses_what_its_field_cannot_hold() {
        Writer::encode(1, |w| w.u8(fit(256)));
    }
}
