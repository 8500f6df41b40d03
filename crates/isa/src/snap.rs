//! Std-only binary codec for simulator snapshots.
//!
//! Every crate in the workspace serializes its dynamic state through
//! [`SnapWriter`] / [`SnapReader`]: a flat little-endian byte stream with
//! no self-description, no alignment, and no external dependencies. The
//! format is deliberately dumb — the snapshot file framing (magic,
//! schema version, CRC guard, atomic rename) lives in `mlpwin-sim`;
//! this module only provides the primitive encode/decode vocabulary and
//! the CRC-32 used to guard it.
//!
//! Decoding is fallible: a truncated or corrupted stream yields a typed
//! [`SnapError`] instead of a panic, so the restore path can quarantine
//! the file and fall back to an older rotation.
//!
//! # Example
//!
//! ```
//! use mlpwin_isa::snap::{SnapReader, SnapWriter};
//!
//! let mut w = SnapWriter::new();
//! w.put_u64(42);
//! w.put_bool(true);
//! w.put_opt_u64(None);
//! let bytes = w.into_bytes();
//!
//! let mut r = SnapReader::new(&bytes);
//! assert_eq!(r.get_u64().unwrap(), 42);
//! assert!(r.get_bool().unwrap());
//! assert_eq!(r.get_opt_u64().unwrap(), None);
//! assert!(r.finish().is_ok());
//! ```

use std::fmt;

/// Errors produced while decoding a snapshot byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The stream ended before `wanted` bytes could be read at `offset`.
    ShortRead { offset: usize, wanted: usize },
    /// A tag byte (bool / option discriminant / enum variant) held a
    /// value outside its legal range.
    BadTag {
        offset: usize,
        tag: u8,
        what: &'static str,
    },
    /// A length prefix or count field was implausible (e.g. larger than
    /// the remaining stream), pointing at corruption.
    BadLength {
        offset: usize,
        len: u64,
        what: &'static str,
    },
    /// Decoding finished but `trailing` bytes were left unread —
    /// a schema mismatch between writer and reader.
    TrailingBytes { trailing: usize },
    /// A semantic check failed after structurally valid decoding
    /// (e.g. a geometry field disagreeing with the live config).
    Mismatch { what: &'static str },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::ShortRead { offset, wanted } => {
                write!(
                    f,
                    "snapshot truncated: wanted {wanted} bytes at offset {offset}"
                )
            }
            SnapError::BadTag { offset, tag, what } => {
                write!(
                    f,
                    "snapshot corrupt: bad {what} tag {tag:#04x} at offset {offset}"
                )
            }
            SnapError::BadLength { offset, len, what } => {
                write!(
                    f,
                    "snapshot corrupt: implausible {what} length {len} at offset {offset}"
                )
            }
            SnapError::TrailingBytes { trailing } => {
                write!(
                    f,
                    "snapshot schema mismatch: {trailing} trailing bytes after decode"
                )
            }
            SnapError::Mismatch { what } => {
                write!(f, "snapshot incompatible with live configuration: {what}")
            }
        }
    }
}

impl std::error::Error for SnapError {}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), computed with a
/// lazily built 256-entry table. This is the checksum that guards every
/// snapshot file; it only needs to catch truncation and bit rot, not
/// adversarial tampering.
pub fn crc32(bytes: &[u8]) -> u32 {
    // Slicing-by-8: eight derived tables let the hot loop fold one
    // 8-byte chunk per iteration instead of one byte — snapshot frames
    // run to megabytes and every save/load pays this checksum.
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 8];
        for (i, entry) in tables[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        for k in 1..8 {
            for i in 0..256usize {
                let prev = tables[k - 1][i];
                tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        tables
    });
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[..4].try_into().expect("4 bytes")) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..].try_into().expect("4 bytes"));
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// Append-only little-endian byte sink. Infallible: writing can only
/// grow the buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter { buf: Vec::new() }
    }

    /// Creates a writer with `cap` bytes pre-reserved.
    pub fn with_capacity(cap: usize) -> SnapWriter {
        SnapWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` travels as `u64` so 32- and 64-bit hosts interoperate.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Raw bytes with a `u64` length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Option discriminant (0 = None, 1 = Some) followed by the payload.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.put_u8(0),
            Some(x) => {
                self.put_u8(1);
                self.put_u64(x);
            }
        }
    }

    /// Generic option: discriminant byte, then `f` encodes the payload.
    pub fn put_opt<T>(&mut self, v: Option<&T>, f: impl FnOnce(&mut SnapWriter, &T)) {
        match v {
            None => self.put_u8(0),
            Some(x) => {
                self.put_u8(1);
                f(self, x);
            }
        }
    }

    /// Generic sequence: length prefix, then `f` encodes each element.
    pub fn put_seq<T>(
        &mut self,
        items: impl ExactSizeIterator<Item = T>,
        mut f: impl FnMut(&mut SnapWriter, T),
    ) {
        self.put_usize(items.len());
        for item in items {
            f(self, item);
        }
    }
}

/// Cursor over an encoded byte stream. Every getter advances the cursor
/// and fails with a typed [`SnapError`] on underrun.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Creates a reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader { buf, pos: 0 }
    }

    /// Current cursor offset (for error reporting by callers).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes left unread.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the stream was fully consumed; trailing bytes indicate a
    /// writer/reader schema mismatch.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapError::TrailingBytes {
                trailing: self.buf.len() - self.pos,
            })
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::ShortRead {
                offset: self.pos,
                wanted: n,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_usize(&mut self) -> Result<usize, SnapError> {
        let offset = self.pos;
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| SnapError::BadLength {
            offset,
            len: v,
            what: "usize",
        })
    }

    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        let offset = self.pos;
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(SnapError::BadTag {
                offset,
                tag,
                what: "bool",
            }),
        }
    }

    /// Length-prefixed raw bytes. The length is validated against the
    /// remaining stream before any allocation.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let offset = self.pos;
        let len = self.get_usize()?;
        if len > self.remaining() {
            return Err(SnapError::BadLength {
                offset,
                len: len as u64,
                what: "bytes",
            });
        }
        self.take(len)
    }

    pub fn get_opt_u64(&mut self) -> Result<Option<u64>, SnapError> {
        let offset = self.pos;
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_u64()?)),
            tag => Err(SnapError::BadTag {
                offset,
                tag,
                what: "option",
            }),
        }
    }

    /// Generic option: reads the discriminant, then `f` decodes the
    /// payload when present.
    pub fn get_opt<T>(
        &mut self,
        f: impl FnOnce(&mut SnapReader<'a>) -> Result<T, SnapError>,
    ) -> Result<Option<T>, SnapError> {
        let offset = self.pos;
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            tag => Err(SnapError::BadTag {
                offset,
                tag,
                what: "option",
            }),
        }
    }

    /// Generic sequence: reads the length prefix, then decodes each
    /// element with `f`. The count is sanity-checked against the
    /// remaining bytes (every element costs at least one byte) so a
    /// corrupted length cannot trigger a huge allocation.
    pub fn get_seq<T>(
        &mut self,
        mut f: impl FnMut(&mut SnapReader<'a>) -> Result<T, SnapError>,
    ) -> Result<Vec<T>, SnapError> {
        let offset = self.pos;
        let len = self.get_usize()?;
        if len > self.remaining() {
            return Err(SnapError::BadLength {
                offset,
                len: len as u64,
                what: "sequence",
            });
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(f(self)?);
        }
        Ok(out)
    }
}

/// A value with one fixed snapshot encoding, so records built of such
/// values can save and load field by field (see
/// [`counters!`](crate::counters!)).
pub trait Snap: Sized {
    /// Appends the value's encoding.
    fn save(&self, w: &mut SnapWriter);
    /// Decodes a value written by [`Snap::save`].
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

impl Snap for u64 {
    #[inline]
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(*self);
    }
    #[inline]
    fn load(r: &mut SnapReader<'_>) -> Result<u64, SnapError> {
        r.get_u64()
    }
}

impl Snap for u32 {
    #[inline]
    fn save(&self, w: &mut SnapWriter) {
        w.put_u32(*self);
    }
    #[inline]
    fn load(r: &mut SnapReader<'_>) -> Result<u32, SnapError> {
        r.get_u32()
    }
}

/// A fixed-size row: its elements, no length prefix.
impl<const N: usize> Snap for [u64; N] {
    fn save(&self, w: &mut SnapWriter) {
        for v in self {
            w.put_u64(*v);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<[u64; N], SnapError> {
        let mut row = [0u64; N];
        for v in &mut row {
            *v = r.get_u64()?;
        }
        Ok(row)
    }
}

/// A sequence: a length prefix, then each element.
impl<T: Snap> Snap for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.put_seq(self.iter(), |w, v| v.save(w));
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Vec<T>, SnapError> {
        r.get_seq(T::load)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = SnapWriter::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 7);
        w.put_i64(-42);
        w.put_usize(12345);
        w.put_bool(true);
        w.put_bool(false);
        w.put_bytes(b"hello");
        w.put_opt_u64(Some(9));
        w.put_opt_u64(None);
        vec![1u64, 2, 3].save(&mut w);
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_usize().unwrap(), 12345);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_opt_u64().unwrap(), Some(9));
        assert_eq!(r.get_opt_u64().unwrap(), None);
        assert_eq!(Vec::<u64>::load(&mut r).unwrap(), vec![1, 2, 3]);
        assert!(r.finish().is_ok());
    }

    #[test]
    fn short_read_is_typed() {
        let mut r = SnapReader::new(&[1, 2]);
        let err = r.get_u64().unwrap_err();
        assert!(matches!(
            err,
            SnapError::ShortRead {
                offset: 0,
                wanted: 8
            }
        ));
    }

    #[test]
    fn bad_bool_tag_is_typed() {
        let mut r = SnapReader::new(&[7]);
        let err = r.get_bool().unwrap_err();
        assert!(matches!(err, SnapError::BadTag { tag: 7, .. }));
    }

    #[test]
    fn corrupt_length_rejected_before_allocation() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX); // absurd length prefix
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            r.get_bytes().unwrap_err(),
            SnapError::BadLength { .. } | SnapError::ShortRead { .. }
        ));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = SnapWriter::new();
        w.put_u64(1);
        w.put_u8(0);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        r.get_u64().unwrap();
        assert_eq!(
            r.finish().unwrap_err(),
            SnapError::TrailingBytes { trailing: 1 }
        );
    }

    #[test]
    fn generic_seq_and_opt_round_trip() {
        let mut w = SnapWriter::new();
        let pairs = [(1u64, true), (2, false)];
        w.put_seq(pairs.iter(), |w, (a, b)| {
            w.put_u64(*a);
            w.put_bool(*b);
        });
        w.put_opt(Some(&77u32), |w, v| w.put_u32(*v));
        w.put_opt(None::<&u32>, |w, v| w.put_u32(*v));
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        let back = r.get_seq(|r| Ok((r.get_u64()?, r.get_bool()?))).unwrap();
        assert_eq!(back, vec![(1, true), (2, false)]);
        assert_eq!(r.get_opt(|r| r.get_u32()).unwrap(), Some(77));
        assert_eq!(r.get_opt(|r| r.get_u32()).unwrap(), None);
        assert!(r.finish().is_ok());
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Single-bit flip changes the CRC.
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn crc32_slicing_agrees_with_the_bytewise_definition() {
        // The 8-byte fold must agree with the plain one-byte recurrence
        // at every length, including the unaligned tails.
        fn bytewise(bytes: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in bytes {
                let mut c = (crc ^ b as u32) & 0xFF;
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
                crc = c ^ (crc >> 8);
            }
            crc ^ 0xFFFF_FFFF
        }
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(193) >> 3) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "len {len}");
        }
    }
}
