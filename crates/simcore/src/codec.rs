//! The one byte codec: a bounds-checked read cursor and the matching
//! append helpers, shared by every binary format in the workspace (the
//! wire protocol, event-log frames, engine snapshots and scheduler
//! state blobs; DESIGN.md, "Byte codec").
//!
//! Two byte orders ride on one cursor: the wire protocol is big-endian
//! (`*_be`), everything written to disk little-endian (`*_le`). A read
//! never panics: running off the end, a count the remaining bytes
//! cannot hold, and a value the caller refuses all come back as a
//! [`CodecError`] that names the field and the offset it was read at.
//! Counts are read through [`Reader::count_le`] and its `u32` variants,
//! which refuse any count whose elements could not fit in the bytes
//! left — so no decoder sizes an allocation past its input.

/// What went wrong at a [`CodecError`]'s offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The input ended: `need` bytes were wanted, `have` were left.
    Truncated {
        /// Bytes the field needs.
        need: usize,
        /// Bytes left in the input.
        have: usize,
    },
    /// A count of `count` elements of at least `elem` bytes each, with
    /// only `have` bytes left.
    Count {
        /// The count read.
        count: u64,
        /// Minimum encoded size of one element.
        elem: usize,
        /// Bytes left in the input.
        have: usize,
    },
    /// The bytes decoded, but to a value the format does not allow.
    Invalid(String),
}

/// A decode failure: the field being read, its offset from the start
/// of the input, and the fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError {
    /// The field being read.
    pub field: &'static str,
    /// Offset of the field from the start of the input.
    pub offset: usize,
    /// What was wrong with it.
    pub fault: Fault,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (field, at) = (self.field, self.offset);
        match &self.fault {
            Fault::Truncated { need, have } => {
                write!(
                    f,
                    "{field} at offset {at}: truncated, need {need} bytes, have {have}"
                )
            }
            Fault::Count { count, elem, have } => write!(
                f,
                "{field} at offset {at}: truncated or miscounted, {count} elements of \
                 {elem} bytes exceed the {have} bytes left"
            ),
            Fault::Invalid(why) => write!(f, "{field} at offset {at}: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A bounds-checked cursor over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Current offset from the start of the input.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// An error for `field` at the current offset: the bytes read, but
    /// the value is not one the format allows.
    pub fn invalid(&self, field: &'static str, why: impl Into<String>) -> CodecError {
        self.fault(field, self.pos, Fault::Invalid(why.into()))
    }

    fn fault(&self, field: &'static str, offset: usize, fault: Fault) -> CodecError {
        CodecError {
            field,
            offset,
            fault,
        }
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, field: &'static str, n: usize) -> Result<&'a [u8], CodecError> {
        let have = self.remaining();
        if have < n {
            return Err(self.fault(field, self.pos, Fault::Truncated { need: n, have }));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self, field: &'static str) -> Result<[u8; N], CodecError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(field, N)?);
        Ok(a)
    }

    /// Reads one byte.
    pub fn u8(&mut self, field: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(field, 1)?[0])
    }

    /// Reads a byte that must be 0 or 1.
    pub fn bool(&mut self, field: &'static str) -> Result<bool, CodecError> {
        match self.u8(field)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.fault(
                field,
                self.pos - 1,
                Fault::Invalid(format!("flag byte {b}")),
            )),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32_le(&mut self, field: &'static str) -> Result<u32, CodecError> {
        self.array(field).map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64_le(&mut self, field: &'static str) -> Result<u64, CodecError> {
        self.array(field).map(u64::from_le_bytes)
    }

    /// Reads a big-endian `u32`.
    pub fn u32_be(&mut self, field: &'static str) -> Result<u32, CodecError> {
        self.array(field).map(u32::from_be_bytes)
    }

    /// Reads a big-endian `u64`.
    pub fn u64_be(&mut self, field: &'static str) -> Result<u64, CodecError> {
        self.array(field).map(u64::from_be_bytes)
    }

    /// Reads a byte slice prefixed by its little-endian `u64` length.
    pub fn bytes_le(&mut self, field: &'static str) -> Result<&'a [u8], CodecError> {
        let n = self.count_le(field, 1)?;
        self.take(field, n)
    }

    /// Reads a little-endian `u64` count of elements at least `elem`
    /// bytes long each, refusing one the remaining bytes cannot hold.
    pub fn count_le(&mut self, field: &'static str, elem: usize) -> Result<usize, CodecError> {
        let at = self.pos;
        let count = self.u64_le(field)?;
        self.check_count(field, at, count, elem)
    }

    /// [`Reader::count_le`] for a little-endian `u32` count.
    pub fn count_u32_le(&mut self, field: &'static str, elem: usize) -> Result<usize, CodecError> {
        let at = self.pos;
        let count = self.u32_le(field)?;
        self.check_count(field, at, u64::from(count), elem)
    }

    /// [`Reader::count_le`] for a big-endian `u32` count.
    pub fn count_u32_be(&mut self, field: &'static str, elem: usize) -> Result<usize, CodecError> {
        let at = self.pos;
        let count = self.u32_be(field)?;
        self.check_count(field, at, u64::from(count), elem)
    }

    fn check_count(
        &self,
        field: &'static str,
        at: usize,
        count: u64,
        elem: usize,
    ) -> Result<usize, CodecError> {
        let have = self.remaining();
        if count > (have / elem.max(1)) as u64 {
            return Err(self.fault(field, at, Fault::Count { count, elem, have }));
        }
        Ok(count as usize)
    }

    /// Refuses trailing bytes: the input must end here.
    pub fn finish(&self, field: &'static str) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(self.invalid(field, format!("{n} trailing bytes"))),
        }
    }
}

/// Append helpers, one per [`Reader`] read.
pub trait Put {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends raw bytes.
    fn put_slice(&mut self, v: &[u8]);

    /// Appends a `u32`, little-endian.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, big-endian.
    fn put_u32_be(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a `u64`, big-endian.
    fn put_u64_be(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends `v` prefixed by its little-endian `u64` length.
    fn put_bytes_le(&mut self, v: &[u8]) {
        self.put_u64_le(v.len() as u64);
        self.put_slice(v);
    }
}

impl Put for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_slice(&mut self, v: &[u8]) {
        self.extend_from_slice(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn both_byte_orders_round_trip_on_one_cursor() {
        let mut out = Vec::new();
        out.put_u8(7);
        out.put_u32_be(0x0102_0304);
        out.put_u32_le(0x0102_0304);
        out.put_u64_be(u64::MAX - 1);
        out.put_u64_le(42);
        out.put_bytes_le(b"saath");
        assert_eq!(&out[1..9], &[1, 2, 3, 4, 4, 3, 2, 1]);
        let mut r = Reader::new(&out);
        assert_eq!(r.u8("a"), Ok(7));
        assert_eq!(r.u32_be("b"), Ok(0x0102_0304));
        assert_eq!(r.u32_le("c"), Ok(0x0102_0304));
        assert_eq!(r.u64_be("d"), Ok(u64::MAX - 1));
        assert_eq!(r.u64_le("e"), Ok(42));
        assert_eq!(r.bytes_le("f"), Ok(&b"saath"[..]));
        assert_eq!(r.finish("end"), Ok(()));
    }

    /// Errors name the field and the offset it started at.
    #[test]
    fn errors_name_the_field_and_offset() {
        let mut r = Reader::new(&[1, 2, 3]);
        r.u8("tag").unwrap();
        let e = r.u32_le("node").unwrap_err();
        assert_eq!(
            e,
            CodecError {
                field: "node",
                offset: 1,
                fault: Fault::Truncated { need: 4, have: 2 }
            }
        );
        assert_eq!(
            e.to_string(),
            "node at offset 1: truncated, need 4 bytes, have 2"
        );
        assert_eq!(r.pos(), 1, "a failed read consumes nothing");
        assert!(Reader::new(&[2]).bool("flag").is_err());
        assert!(r
            .finish("end")
            .unwrap_err()
            .to_string()
            .contains("2 trailing bytes"));
    }

    /// A count of more elements than the bytes left could hold is
    /// refused before anything is sized by it, whatever its width.
    #[test]
    fn counts_past_the_input_are_refused() {
        let mut big = Vec::new();
        big.put_u64_le(u64::MAX);
        big.put_slice(&[0; 16]);
        let e = Reader::new(&big).count_le("entries", 8).unwrap_err();
        assert!(matches!(
            e.fault,
            Fault::Count {
                count: u64::MAX,
                elem: 8,
                have: 16
            }
        ));
        // Two 8-byte elements fit in 16 bytes; three do not.
        let mut two = Vec::new();
        two.put_u64_le(2);
        two.put_slice(&[0; 16]);
        assert_eq!(Reader::new(&two).count_le("entries", 8), Ok(2));
        two[0] = 3;
        assert!(Reader::new(&two).count_le("entries", 8).is_err());
        let mut be = Vec::new();
        be.put_u32_be(u32::MAX);
        assert!(Reader::new(&be).count_u32_be("rates", 12).is_err());
        // A length prefix is a count of 1-byte elements.
        let mut len = Vec::new();
        len.put_u64_le(1 << 40);
        assert!(Reader::new(&len).bytes_le("name").is_err());
    }

    proptest! {
        /// Any input, any sequence of reads: every read is `Ok` or
        /// `Err`, an `Ok` count fits the bytes left, and the cursor
        /// never passes the end.
        #[test]
        fn reads_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64), ops in proptest::collection::vec(0u8..10, 0..24)) {
            let mut r = Reader::new(&bytes);
            for op in ops {
                let left = r.remaining();
                match op {
                    0 => { let _ = r.u8("f"); }
                    1 => { let _ = r.bool("f"); }
                    2 => { let _ = r.u32_le("f"); }
                    3 => { let _ = r.u64_le("f"); }
                    4 => { let _ = r.u32_be("f"); }
                    5 => { let _ = r.u64_be("f"); }
                    6 => { let _ = r.bytes_le("f"); }
                    7 => if let Ok(n) = r.count_le("f", 3) { prop_assert!(n * 3 <= r.remaining()); }
                    8 => if let Ok(n) = r.count_u32_le("f", 7) { prop_assert!(n * 7 <= r.remaining()); }
                    _ => if let Ok(n) = r.count_u32_be("f", 0) { prop_assert!(n <= r.remaining()); }
                }
                prop_assert!(r.remaining() <= left);
                prop_assert!(r.pos() <= bytes.len());
            }
        }
    }
}
