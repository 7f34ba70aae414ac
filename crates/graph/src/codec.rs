//! The one bounds-checked [`Reader`] and the one [`Writer`] behind every
//! binary format of the workspace: the flat, compressed and permutation
//! files of [`crate::io`], and the wire protocol, write-ahead log and
//! checkpoint of the service.
//!
//! All integers are little-endian and floats are written as their raw
//! bit patterns, so a value round-trips exactly. A decoder is
//! straight-line code: every read checks the bytes it needs, and a
//! short, malformed or over-long input comes back as one
//! [`DecodeError`] naming the format, the field and the byte offset —
//! never a panic, and never an allocation larger than the bytes present.

use std::fmt;
use std::io;

/// A malformed input: what is wrong with which field of which format,
/// and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// The format being decoded, e.g. `"GGCKPT4 checkpoint"`.
    pub format: &'static str,
    /// The field that failed.
    pub field: &'static str,
    /// Byte offset of that field in the input.
    pub offset: usize,
    /// What is wrong with it.
    pub problem: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} at byte {}: {}",
            self.format, self.field, self.offset, self.problem
        )
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for io::Error {
    fn from(e: DecodeError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// A cursor over one encoded input. Each read names the field it reads,
/// so its error can say which one was short or bad.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    format: &'static str,
    data: &'a [u8],
    pos: usize,
    /// Where the last field read starts: what [`Reader::invalid`] names.
    last: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `data`, an input in `format`.
    pub fn new(format: &'static str, data: &'a [u8]) -> Reader<'a> {
        Reader {
            format,
            data,
            pos: 0,
            last: 0,
        }
    }

    /// Bytes consumed so far: the offset of the next field.
    #[inline]
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// An error about `field` at `offset`.
    pub fn error_at(
        &self,
        offset: usize,
        field: &'static str,
        problem: impl Into<String>,
    ) -> DecodeError {
        DecodeError {
            format: self.format,
            field,
            offset,
            problem: problem.into(),
        }
    }

    /// An error about the field read last, for a value that is present
    /// but not valid.
    pub fn invalid(&self, field: &'static str, problem: impl Into<String>) -> DecodeError {
        self.error_at(self.last, field, problem)
    }

    /// The next `n` bytes, borrowed from the input.
    #[inline]
    pub fn slice(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(self.truncated(n, field));
        }
        self.last = self.pos;
        self.pos += n;
        Ok(&self.data[self.last..self.pos])
    }

    #[cold]
    fn truncated(&self, n: usize, field: &'static str) -> DecodeError {
        let have = self.remaining();
        let problem = format!("truncated: needs {n} bytes, {have} remain");
        self.error_at(self.pos, field, problem)
    }

    #[inline]
    fn array<const N: usize>(&mut self, field: &'static str) -> Result<[u8; N], DecodeError> {
        Ok(self.slice(N, field)?.try_into().expect("slice of N bytes"))
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, field: &'static str) -> Result<u8, DecodeError> {
        Ok(self.array::<1>(field)?[0])
    }

    /// One byte that `parse` must accept — an enum code or a flag set.
    #[inline]
    pub fn u8_as<T>(
        &mut self,
        field: &'static str,
        parse: impl FnOnce(u8) -> Option<T>,
    ) -> Result<T, DecodeError> {
        let b = self.u8(field)?;
        parse(b).ok_or_else(|| self.invalid(field, format!("unknown value {b:#04x}")))
    }

    /// A `u32`.
    #[inline]
    pub fn u32(&mut self, field: &'static str) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array(field)?))
    }

    /// A `u64`.
    #[inline]
    pub fn u64(&mut self, field: &'static str) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array(field)?))
    }

    /// An `f64`, bit for bit.
    #[inline]
    pub fn f64(&mut self, field: &'static str) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.array(field)?))
    }

    /// The bytes of `n` fixed-size elements of `size` bytes each. The
    /// total is bounds-checked (overflow included) before anything is
    /// read, so a forged count cannot drive an allocation.
    #[inline]
    pub fn elements(
        &mut self,
        n: usize,
        size: usize,
        field: &'static str,
    ) -> Result<&'a [u8], DecodeError> {
        let bytes = n.checked_mul(size).ok_or_else(|| {
            self.error_at(
                self.pos,
                field,
                format!("{n} elements of {size} bytes overflow"),
            )
        })?;
        self.slice(bytes, field)
    }

    /// `n` `u32`s (vertex ids, degrees, offsets).
    #[inline]
    pub fn u32s(&mut self, n: usize, field: &'static str) -> Result<Vec<u32>, DecodeError> {
        let bytes = self.elements(n, 4, field)?;
        Ok(bytes.chunks_exact(4).map(le_u32).collect())
    }

    /// `n` `u64`s.
    #[inline]
    pub fn u64s(&mut self, n: usize, field: &'static str) -> Result<Vec<u64>, DecodeError> {
        let bytes = self.elements(n, 8, field)?;
        Ok(bytes.chunks_exact(8).map(le_u64).collect())
    }

    /// `n` `f64`s, bit for bit.
    #[inline]
    pub fn f64s(&mut self, n: usize, field: &'static str) -> Result<Vec<f64>, DecodeError> {
        let bytes = self.elements(n, 8, field)?;
        Ok(bytes.chunks_exact(8).map(le_f64).collect())
    }

    /// The format's magic prefix, which must equal `want`.
    pub fn magic(&mut self, want: &[u8]) -> Result<(), DecodeError> {
        if self.slice(want.len(), "magic")? != want {
            return Err(self.invalid("magic", "bad magic"));
        }
        Ok(())
    }

    /// The input's last four bytes as a `u32`: a checksum trailing what
    /// it covers. The reader then ends where they start, so the fields
    /// before it decode (and [`finish`](Self::finish)) as if it were not
    /// there.
    pub fn trailing_u32(&mut self, field: &'static str) -> Result<u32, DecodeError> {
        if self.remaining() < 4 {
            return Err(self.truncated(4, field));
        }
        let (body, tail) = self.data.split_at(self.data.len() - 4);
        self.data = body;
        Ok(le_u32(tail))
    }

    /// Succeeds only at the end of the input: a format holds exactly one
    /// message, so bytes after it are an error.
    #[inline]
    pub fn finish(&self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(self.error_at(self.pos, "end", format!("{n} trailing bytes"))),
        }
    }
}

/// The little-endian `u32` at the front of `b`: one field of a
/// fixed-size record from [`Reader::elements`].
///
/// # Panics
/// Panics if `b` holds fewer than 4 bytes.
#[inline]
pub fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("4 bytes"))
}

#[inline]
fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

/// The little-endian `f64` at the front of `b`, bit for bit.
///
/// # Panics
/// Panics if `b` holds fewer than 8 bytes.
#[inline]
pub fn le_f64(b: &[u8]) -> f64 {
    f64::from_bits(le_u64(b))
}

/// A growing output buffer, the encoding twin of [`Reader`]. Derefs to
/// the bytes written so far.
#[derive(Debug, Clone, Default)]
pub struct Writer(Vec<u8>);

impl Writer {
    /// An empty buffer with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Writer {
        Writer(Vec::with_capacity(n))
    }

    /// Appends raw bytes.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.0.extend_from_slice(b);
    }

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// Appends a `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends an `f64`, bit for bit.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends each `u32` of `vs` (no length prefix).
    pub fn u32s(&mut self, vs: &[u32]) {
        self.0.reserve(4 * vs.len());
        vs.iter().for_each(|&v| self.u32(v));
    }

    /// Appends each `u64` of `vs` (no length prefix).
    pub fn u64s(&mut self, vs: &[u64]) {
        self.0.reserve(8 * vs.len());
        vs.iter().for_each(|&v| self.u64(v));
    }

    /// Appends each `f64` of `vs` (no length prefix).
    pub fn f64s(&mut self, vs: &[f64]) {
        self.0.reserve(8 * vs.len());
        vs.iter().for_each(|&v| self.f64(v));
    }

    /// The bytes written.
    pub fn into_vec(self) -> Vec<u8> {
        self.0
    }
}

impl std::ops::Deref for Writer {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_and_reader_roundtrip_every_width() {
        let mut w = Writer::with_capacity(64);
        w.bytes(b"HDR");
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(42);
        w.f64(-2.5);
        w.u32s(&[1, 2]);
        w.u64s(&[u64::MAX]);
        w.f64s(&[0.5, f64::NAN]);
        let bytes = w.into_vec();
        let mut r = Reader::new("test", &bytes);
        r.magic(b"HDR").unwrap();
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xdead_beef);
        assert_eq!(r.u64("c").unwrap(), 42);
        assert_eq!(r.f64("d").unwrap(), -2.5);
        assert_eq!(r.u32s(2, "e").unwrap(), [1, 2]);
        assert_eq!(r.u64s(1, "f").unwrap(), [u64::MAX]);
        let fs = r.f64s(2, "g").unwrap();
        assert_eq!((fs[0], fs[1].to_bits()), (0.5, f64::NAN.to_bits()));
        r.finish().unwrap();
    }

    #[test]
    fn errors_name_format_field_and_offset() {
        let bytes = [1u8, 2, 3, 4, 5, 6];
        let mut r = Reader::new("demo", &bytes);
        r.u32("head").unwrap();
        let err = r.u32("tail").unwrap_err();
        assert_eq!((err.format, err.field, err.offset), ("demo", "tail", 4));
        assert_eq!(
            err.to_string(),
            "demo: tail at byte 4: truncated: needs 4 bytes, 2 remain"
        );
        // A failed read consumes nothing.
        assert_eq!(r.finish().unwrap_err().problem, "2 trailing bytes");
        let err = r.u8_as("kind", |b| (b == 0).then_some(())).unwrap_err();
        assert_eq!((err.field, err.offset), ("kind", 4));
        let err = io::Error::from(r.invalid("kind", "bad"));
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn counts_are_checked_before_anything_is_allocated() {
        let mut r = Reader::new("demo", &[0u8; 8]);
        assert!(r.u32s(3, "ids").is_err());
        assert!(r.f64s(usize::MAX / 4, "xs").is_err(), "n × 8 overflows");
        assert!(r.u64s(usize::MAX, "ys").is_err());
        assert_eq!(r.u64s(1, "ok").unwrap(), [0]);
    }
}
