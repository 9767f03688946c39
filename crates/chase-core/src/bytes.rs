//! The one byte grammar under the wire protocol, the write-ahead log and
//! the snapshots: every binary encoding in the workspace is built from
//! these pieces, defined only here.
//!
//! ```text
//! u8, bool          1 byte (a bool is 0 or 1)
//! u32, u64          little-endian
//! bytes, str        u32 length | that many bytes (str: UTF-8)
//! seal(content)     content | u32 CRC-32(content)
//! frame(body)       u32 length | body              (length ≤ a cap)
//! record(payload)   u32 length | seal(payload)     (length ≤ a cap)
//! ```
//!
//! A wire message is a `frame`; an instance snapshot and a session
//! snapshot file are each one `seal`; a WAL record is one `record`. A
//! [`Reader`] never panics, whatever the bytes: each read yields a value or
//! a [`DecodeError`], which each codec maps to its own error at its edge.
//! A [`Writer`] refuses a frame or record over its cap with
//! [`io::ErrorKind::InvalidInput`] before appending a byte of it.

#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]

use std::io;

/// Why a read off a [`Reader`] failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The bytes ran out while a field still needed some.
    Short,
    /// A boolean byte was neither 0 nor 1.
    Bool(u8),
    /// A string field was not valid UTF-8.
    Utf8,
    /// Everything decoded, but this many bytes were left over.
    Trailing(usize),
}

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), the checksum of a seal;
/// hand-rolled, as the workspace takes no external dependencies.
///
/// ```
/// assert_eq!(chase_core::crc32(b"123456789"), 0xCBF43926); // the check value
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            *e = (0..8).fold(i as u32, |c, _| {
                if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                }
            });
        }
        t
    });
    // The index is masked to 0..=255, so every lookup hits.
    !bytes.iter().fold(!0u32, |crc, &b| {
        let i = ((crc ^ u32::from(b)) & 0xFF) as usize;
        table.get(i).copied().unwrap_or_default() ^ (crc >> 8)
    })
}

/// A little-endian writer; the bytes written are the public field.
#[derive(Debug, Default)]
pub struct Writer(pub Vec<u8>);

impl Writer {
    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// Append a boolean as `0` or `1`.
    pub fn bool(&mut self, v: bool) {
        self.0.push(v as u8);
    }

    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Append `u32 length | bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u32(bytes.len() as u32);
        self.0.extend_from_slice(bytes);
    }

    /// Append `u32 length | UTF-8 bytes`.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Append `frame(body)`, or refuse a body over `cap` bytes.
    pub fn frame(&mut self, body: &[u8], cap: u32) -> io::Result<()> {
        if body.len() > cap as usize {
            let msg = format!("{} bytes exceed the cap of {cap}", body.len());
            return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        }
        self.bytes(body);
        Ok(())
    }

    /// Append `record(payload)`, or refuse a payload over `cap` bytes.
    pub fn record(&mut self, payload: &[u8], cap: u32) -> io::Result<()> {
        self.frame(payload, cap)?;
        self.u32(crc32(payload));
        Ok(())
    }

    /// Seal everything written and hand the bytes over.
    pub fn seal(mut self) -> Vec<u8> {
        self.u32(crc32(&self.0));
        self.0
    }
}

/// A bounds-checked little-endian cursor over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { rest: bytes }
    }

    /// How many bytes are left.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or(DecodeError::Short)?;
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, rest) = self.rest.split_first_chunk().ok_or(DecodeError::Short)?;
        self.rest = rest;
        Ok(*head)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        self.array().map(|[b]| b)
    }

    /// A boolean byte, `0` or `1`.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            got => Err(DecodeError::Bool(got)),
        }
    }

    /// A `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// `u32 length | bytes`.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// `u32 length | UTF-8 bytes`.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| DecodeError::Utf8)
    }

    /// The payload of a `record`, or `None` if the bytes end inside it, its
    /// length is over `cap` or its CRC does not match.
    pub fn record(&mut self, cap: u32) -> Option<&'a [u8]> {
        let len = self.u32().ok().filter(|&len| len <= cap)?;
        unseal(self.take(len as usize + 4).ok()?)
    }

    /// Succeed only if every byte was read.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.rest.len() {
            0 => Ok(()),
            extra => Err(DecodeError::Trailing(extra)),
        }
    }
}

/// Split a seal into its content and the CRC stored after it, unchecked.
pub fn split_seal(sealed: &[u8]) -> Result<(&[u8], u32), DecodeError> {
    let (content, crc) = sealed.split_last_chunk().ok_or(DecodeError::Short)?;
    Ok((content, u32::from_le_bytes(*crc)))
}

/// The content of a seal, or `None` if its CRC is missing or wrong.
pub fn unseal(sealed: &[u8]) -> Option<&[u8]> {
    let (content, stored) = split_seal(sealed).ok()?;
    (crc32(content) == stored).then_some(content)
}

#[cfg(test)]
#[allow(clippy::indexing_slicing, clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_and_reads_past_the_end_are_short() {
        let mut w = Writer::default();
        w.u8(7);
        w.bool(true);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.str("héllo");
        w.bytes(&[]);
        let bytes = w.0;
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.str(), Ok("héllo"));
        assert_eq!(r.bytes(), Ok(&[][..]));
        assert_eq!(r.clone().finish(), Ok(()));
        assert_eq!(r.u8(), Err(DecodeError::Short));
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let all = (|| {
                r.u8()?;
                r.bool()?;
                r.u32()?;
                r.u64()?;
                r.str()?;
                r.bytes()
            })();
            assert_eq!(all, Err(DecodeError::Short), "cut at {cut}");
        }
    }

    #[test]
    fn malformed_fields_are_classified() {
        assert_eq!(Reader::new(&[2]).bool(), Err(DecodeError::Bool(2)));
        assert_eq!(
            Reader::new(&[2, 0, 0, 0, 0xff, 0xfe]).str(),
            Err(DecodeError::Utf8)
        );
        assert_eq!(
            Reader::new(&[255, 255, 255, 255]).bytes(),
            Err(DecodeError::Short)
        );
        assert_eq!(Reader::new(&[1, 2]).finish(), Err(DecodeError::Trailing(2)));
    }

    #[test]
    fn seals_and_records_check_their_crc_and_cap() {
        let mut w = Writer::default();
        w.str("content");
        let sealed = w.seal();
        assert_eq!(unseal(&sealed), Some(&sealed[..sealed.len() - 4]));
        for at in 0..sealed.len() {
            let mut bent = sealed.clone();
            bent[at] ^= 0x10;
            assert_eq!(unseal(&bent), None, "flip at {at}");
        }
        assert_eq!(unseal(&sealed[..3]), None);

        let mut w = Writer::default();
        w.record(b"payload", 7).unwrap();
        let err = w.record(b"payload!", 7).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(w.0.len(), 4 + 7 + 4, "a refused record appends nothing");
        assert_eq!(Reader::new(&w.0).record(7), Some(&b"payload"[..]));
        assert_eq!(Reader::new(&w.0).record(6), None);
        assert_eq!(Reader::new(&w.0[..w.0.len() - 1]).record(7), None);
    }
}
