//! Little-endian byte streams: the one reader and writer under every
//! stored format (`MMD1` documents, `CPN1` nets, catalog rows and table
//! records, WAL frames, `GIM1` and `AIM1` images and overlays, `LIC1`
//! streams, audio segment lists).
//!
//! Every count a stream declares goes through [`Reader::count32`] or
//! [`Reader::count16`], which reject a count whose elements, at their
//! smallest encoding, cannot fit in the bytes left. A decoder built on
//! [`Reader`] therefore allocates in proportion to its input, and malformed
//! bytes end in a [`WireError`], never an abort.
//!
//! ```
//! use rcmo_obs::wire::{Reader, Writer};
//!
//! let mut w = Writer::default();
//! w.u32(1);
//! w.str16("ab");
//! let bytes = w.into_bytes();
//! let mut r = Reader::new(&bytes);
//! assert_eq!(r.count32(2), Ok(1)); // a string takes at least 2 bytes
//! assert_eq!(r.str16().as_deref(), Ok("ab"));
//! r.finish().unwrap();
//! assert!(Reader::new(&[0xFF; 4]).count32(2).is_err());
//! ```

use std::fmt;

/// Why a byte stream failed to parse, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Offset of the field that failed.
    pub offset: usize,
    /// What was wrong with it.
    pub problem: &'static str,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at offset {}", self.problem, self.offset)
    }
}

impl std::error::Error for WireError {}

/// A bounds-checked little-endian cursor over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn error(&self, problem: &'static str) -> WireError {
        WireError {
            offset: self.pos,
            problem,
        }
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return Err(self.error("stream ends inside a field"));
        }
        self.pos += n;
        Ok(&self.buf[self.pos - n..self.pos])
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// A `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_le_bytes)
    }

    /// A `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// An IEEE-754 `f64`, bit for bit.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, WireError> {
        self.array().map(f64::from_le_bytes)
    }

    /// Bytes prefixed by a `u32` length.
    #[inline]
    pub fn bytes32(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn utf8(&mut self, len: usize) -> Result<String, WireError> {
        let invalid = self.error("invalid UTF-8");
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| invalid)
    }

    /// UTF-8 text prefixed by a `u16` length.
    pub fn str16(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        self.utf8(len)
    }

    /// UTF-8 text prefixed by a `u32` length.
    pub fn str32(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        self.utf8(len)
    }

    /// Consumes the four-byte `magic`.
    pub fn magic(&mut self, magic: &[u8; 4]) -> Result<(), WireError> {
        let bad = self.error("bad magic");
        match self.take(4) {
            Ok(found) if found == magic => Ok(()),
            _ => Err(bad),
        }
    }

    fn count(&self, count: usize, min_elem_bytes: usize) -> Result<usize, WireError> {
        if count > self.remaining() / min_elem_bytes {
            return Err(self.error("declared count exceeds the bytes left"));
        }
        Ok(count)
    }

    /// A `u32` element count, rejected unless that many elements of at
    /// least `min_elem_bytes` (non-zero) each fit in the bytes left.
    pub fn count32(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let count = self.u32()? as usize;
        self.count(count, min_elem_bytes)
    }

    /// A `u16` element count, bounded like [`count32`](Self::count32).
    pub fn count16(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let count = self.u16()? as usize;
        self.count(count, min_elem_bytes)
    }

    /// Ends a stream that must hold nothing after its last field.
    pub fn finish(self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            _ => Err(self.error("trailing bytes")),
        }
    }
}

/// A little-endian byte sink, the encoding side of [`Reader`].
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Everything written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Raw bytes, unprefixed (magics, fixed-size images).
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    /// A `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// A `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// An IEEE-754 `f64`, bit for bit.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Bytes prefixed by a `u32` length.
    #[inline]
    pub fn bytes32(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.bytes(b);
    }

    /// Text prefixed by a `u16` length.
    pub fn str16(&mut self, s: &str) {
        debug_assert!(s.len() <= u16::MAX as usize, "too long for a u16 prefix");
        self.u16(s.len() as u16);
        self.bytes(s.as_bytes());
    }

    /// Text prefixed by a `u32` length.
    pub fn str32(&mut self, s: &str) {
        self.bytes32(s.as_bytes());
    }
}
