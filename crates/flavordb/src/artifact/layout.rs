#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! Shared plumbing for the zero-copy artifact formats (CFDB2/CRDB2).
//!
//! Both artifacts share one physical grammar: an 8-byte magic, a
//! little-endian `u32` version, a `u32` section count, a table of
//! 24-byte section descriptors (`kind`, zero pad, byte `offset`, byte
//! `len`), and then the section payloads, each starting on an 8-byte
//! boundary. The encoding is *canonical*: sections appear in strictly
//! increasing kind order, every kind the format defines is present
//! (possibly zero-length), each section starts exactly at the previous
//! section's padded end, and the buffer ends exactly at the padded end
//! of the last section — so a given logical content has exactly one
//! byte representation, and truncated or trailing-garbage buffers are
//! rejected structurally.
//!
//! Payload numbers are little-endian. Readers reinterpret aligned
//! section bytes as `&[u32]` id runs (and CFDB2's `&[u16]` overlap
//! cells) in place, which is why
//! [`open requirements`](Sections::parse) include a little-endian host
//! and an 8-byte-aligned base pointer ([`AlignedBytes`] provides one
//! for buffers loaded from disk).

use std::fmt;

use crate::ids::IngredientId;

/// Size of one section-table entry in bytes.
pub const SECTION_ENTRY_BYTES: usize = 24;

/// Size of the fixed header (magic + version + section count) in bytes.
pub const HEADER_BYTES: usize = 16;

/// Maximum number of section kinds any artifact defines (CFDB2 uses
/// 11); bounds the fixed-size section map so parsing stays
/// allocation-free.
pub const MAX_SECTION_KINDS: usize = 16;

/// Errors raised while writing or opening a zero-copy artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The buffer is shorter than a structurally required range.
    Truncated {
        /// Bytes needed to satisfy the read.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The leading magic bytes are not this artifact's magic.
    BadMagic,
    /// The version field is not the supported version.
    BadVersion {
        /// Version found in the header.
        found: u32,
        /// Version this reader supports.
        expect: u32,
    },
    /// The buffer's base pointer is not 8-byte aligned, so the
    /// sections would not sit on the 8-byte boundaries the grammar
    /// promises (and borrowed `&[u32]` views could be unsound).
    Misaligned,
    /// The host is big-endian; in-place reinterpretation of the
    /// little-endian payload would read scrambled numbers.
    BigEndianHost,
    /// A structural invariant failed; the message names it.
    Corrupt(String),
    /// A count or blob exceeds the format's `u32` field width.
    TooLarge(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Truncated { need, have } => {
                write!(f, "artifact truncated: need {need} bytes, have {have}")
            }
            ArtifactError::BadMagic => write!(f, "bad artifact magic"),
            ArtifactError::BadVersion { found, expect } => {
                write!(
                    f,
                    "unsupported artifact version {found} (expected {expect})"
                )
            }
            ArtifactError::Misaligned => {
                write!(f, "artifact buffer is not 8-byte aligned")
            }
            ArtifactError::BigEndianHost => {
                write!(f, "zero-copy artifacts require a little-endian host")
            }
            ArtifactError::Corrupt(msg) => write!(f, "corrupt artifact: {msg}"),
            ArtifactError::TooLarge(msg) => write!(f, "artifact too large: {msg}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// An owned byte buffer whose base address is guaranteed 8-byte
/// aligned, for holding artifacts loaded from disk.
///
/// `Vec<u8>` makes no alignment promise, so a file read into one can
/// land on any address and fail [`Sections::parse`]'s alignment check.
/// `AlignedBytes` backs the bytes with a `Vec<u64>` instead.
#[derive(Debug, Clone)]
pub struct AlignedBytes {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    /// Copy `bytes` into a fresh 8-byte-aligned buffer.
    pub fn from_slice(bytes: &[u8]) -> AlignedBytes {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        // SAFETY: `words` owns `words.len() * 8` initialized bytes and
        // u64 has no invalid byte patterns, so viewing its storage as
        // a byte slice for the copy is sound.
        let dst = unsafe {
            std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), words.len() * 8)
        };
        if let Some(prefix) = dst.get_mut(..bytes.len()) {
            prefix.copy_from_slice(bytes);
        }
        AlignedBytes {
            words,
            len: bytes.len(),
        }
    }

    /// Copy a `Vec<u8>` into a fresh 8-byte-aligned buffer.
    pub fn from_vec(bytes: Vec<u8>) -> AlignedBytes {
        AlignedBytes::from_slice(&bytes)
    }

    /// Read a whole file into an aligned buffer.
    pub fn read_file(path: impl AsRef<std::path::Path>) -> std::io::Result<AlignedBytes> {
        Ok(AlignedBytes::from_vec(std::fs::read(path)?))
    }

    /// The buffer contents (base pointer 8-byte aligned).
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: `words` owns at least `len` initialized bytes
        // (`len <= words.len() * 8` by construction).
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }
}

/// Round `n` up to the next multiple of 8.
pub fn align8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

/// Reinterpret section bytes as a `&[u32]` without copying.
///
/// Errors unless the slice is 4-byte aligned with a length that is a
/// multiple of 4 — both hold for any section of a buffer that passed
/// [`Sections::parse`], because section offsets are 8-aligned and the
/// caller sizes sections in whole `u32`s.
pub fn cast_u32s(bytes: &[u8]) -> Result<&[u32], ArtifactError> {
    if bytes.is_empty() {
        return Ok(&[]);
    }
    if !(bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<u32>()) {
        return Err(ArtifactError::Misaligned);
    }
    if !bytes.len().is_multiple_of(4) {
        return Err(ArtifactError::Corrupt(format!(
            "u32 section length {} is not a multiple of 4",
            bytes.len()
        )));
    }
    // SAFETY: the pointer is aligned for u32, the length covers
    // `len / 4` whole u32s inside one allocation, and u32 tolerates
    // any byte pattern. Endianness was checked at open.
    Ok(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u32>(), bytes.len() / 4) })
}

/// Reinterpret section bytes as a `&[u16]` without copying.
///
/// Same contract as [`cast_u32s`] with 2-byte granularity.
pub fn cast_u16s(bytes: &[u8]) -> Result<&[u16], ArtifactError> {
    if bytes.is_empty() {
        return Ok(&[]);
    }
    if !(bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<u16>()) {
        return Err(ArtifactError::Misaligned);
    }
    if !bytes.len().is_multiple_of(2) {
        return Err(ArtifactError::Corrupt(format!(
            "u16 section length {} is not a multiple of 2",
            bytes.len()
        )));
    }
    // SAFETY: aligned, whole u16s within one allocation, no invalid
    // patterns for u16.
    Ok(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u16>(), bytes.len() / 2) })
}

/// Reinterpret a validated `&[u32]` as ids (`repr(transparent)`).
#[inline]
pub fn as_ingredient_ids(ids: &[u32]) -> &[IngredientId] {
    // SAFETY: IngredientId is repr(transparent) over u32, so the
    // slices have identical layout.
    unsafe { std::slice::from_raw_parts(ids.as_ptr().cast::<IngredientId>(), ids.len()) }
}

/// `n` as a `u32` count field, or [`ArtifactError::TooLarge`] naming
/// `what`.
#[inline]
pub fn count_u32(n: usize, what: &str) -> Result<u32, ArtifactError> {
    u32::try_from(n).map_err(|_| ArtifactError::TooLarge(format!("{what} count {n} exceeds u32")))
}

/// Append `values` to a section payload as little-endian `u32`s.
#[inline]
pub fn push_u32s(out: &mut Vec<u8>, values: &[u32]) {
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Read a little-endian `u32` at `off`, or 0 when out of range.
///
/// Accessor-path helper: ranges are validated once at open, so the
/// fallback never fires on a validated buffer but keeps the accessors
/// structurally panic-free.
#[inline]
pub fn u32_at(bytes: &[u8], off: usize) -> u32 {
    bytes
        .get(off..off + 4)
        .and_then(|b| b.try_into().ok())
        .map_or(0, u32::from_le_bytes)
}

/// Read a little-endian `u64` at `off`, or 0 when out of range.
#[inline]
pub fn u64_at(bytes: &[u8], off: usize) -> u64 {
    bytes
        .get(off..off + 8)
        .and_then(|b| b.try_into().ok())
        .map_or(0, u64::from_le_bytes)
}

/// The parsed section table of an artifact buffer: byte spans per
/// section kind, all bounds-checked against the buffer.
#[derive(Debug, Clone, Copy)]
pub struct Sections<'a> {
    buf: &'a [u8],
    spans: [(usize, usize); MAX_SECTION_KINDS],
}

impl<'a> Sections<'a> {
    /// Parse and validate the header and section table.
    ///
    /// Checks, in order: little-endian host, 8-aligned base pointer,
    /// buffer long enough for the header, magic, version, section
    /// count equal to `n_kinds` with kinds exactly `1..=n_kinds` in
    /// order, zero pads, offsets forming the canonical packed chain
    /// (first at the end of the table, each at the padded end of its
    /// predecessor, buffer ending at the padded end of the last).
    pub fn parse(
        buf: &'a [u8],
        magic: &[u8; 8],
        version: u32,
        n_kinds: usize,
    ) -> Result<Sections<'a>, ArtifactError> {
        if cfg!(target_endian = "big") {
            return Err(ArtifactError::BigEndianHost);
        }
        if !(buf.as_ptr() as usize).is_multiple_of(8) {
            return Err(ArtifactError::Misaligned);
        }
        if buf.len() < HEADER_BYTES {
            return Err(ArtifactError::Truncated {
                need: HEADER_BYTES,
                have: buf.len(),
            });
        }
        if &buf[..8] != magic {
            return Err(ArtifactError::BadMagic);
        }
        let found_version = u32_at(buf, 8);
        if found_version != version {
            return Err(ArtifactError::BadVersion {
                found: found_version,
                expect: version,
            });
        }
        let n_sections = u32_at(buf, 12) as usize;
        if n_sections != n_kinds || n_kinds > MAX_SECTION_KINDS {
            return Err(ArtifactError::Corrupt(format!(
                "expected {n_kinds} sections, header declares {n_sections}"
            )));
        }
        let table_end = HEADER_BYTES + n_kinds * SECTION_ENTRY_BYTES;
        if buf.len() < table_end {
            return Err(ArtifactError::Truncated {
                need: table_end,
                have: buf.len(),
            });
        }

        let mut spans = [(0usize, 0usize); MAX_SECTION_KINDS];
        let mut cursor = table_end; // HEADER_BYTES and 24-byte entries are both 8-aligned.
        for i in 0..n_kinds {
            let entry = HEADER_BYTES + i * SECTION_ENTRY_BYTES;
            let kind = u32_at(buf, entry) as usize;
            let pad = u32_at(buf, entry + 4);
            let offset = u64_at(buf, entry + 8);
            let len = u64_at(buf, entry + 16);
            if kind != i + 1 {
                return Err(ArtifactError::Corrupt(format!(
                    "section {i} has kind {kind}, expected {}",
                    i + 1
                )));
            }
            if pad != 0 {
                return Err(ArtifactError::Corrupt(format!(
                    "section kind {kind} has nonzero pad field"
                )));
            }
            let offset = usize::try_from(offset).map_err(|_| ArtifactError::Truncated {
                need: usize::MAX,
                have: buf.len(),
            })?;
            let len = usize::try_from(len).map_err(|_| ArtifactError::Truncated {
                need: usize::MAX,
                have: buf.len(),
            })?;
            if offset != cursor {
                return Err(ArtifactError::Corrupt(format!(
                    "section kind {kind} starts at {offset}, canonical layout requires {cursor}"
                )));
            }
            let end = offset.checked_add(len).ok_or(ArtifactError::Truncated {
                need: usize::MAX,
                have: buf.len(),
            })?;
            if end > buf.len() {
                return Err(ArtifactError::Truncated {
                    need: end,
                    have: buf.len(),
                });
            }
            spans[kind - 1] = (offset, len);
            cursor = align8(end);
        }
        if buf.len() < cursor {
            return Err(ArtifactError::Truncated {
                need: cursor,
                have: buf.len(),
            });
        }
        if buf.len() > cursor {
            return Err(ArtifactError::Corrupt(format!(
                "buffer has {} bytes, canonical layout ends at {cursor}",
                buf.len()
            )));
        }
        Ok(Sections { buf, spans })
    }

    /// The bytes of section `kind` (1-based, as in the table).
    pub fn bytes(&self, kind: usize) -> &'a [u8] {
        let (off, len) = self
            .spans
            .get(kind.wrapping_sub(1))
            .copied()
            .unwrap_or((0, 0));
        self.buf.get(off..off + len).unwrap_or(&[])
    }

    /// The bytes of section `kind`, which must hold exactly `n` records
    /// of `per` bytes each, as the META counts declare; `what` names
    /// the section in the error.
    pub fn check_len(
        &self,
        kind: u32,
        per: usize,
        n: usize,
        what: &str,
    ) -> Result<&'a [u8], ArtifactError> {
        let bytes = self.bytes(kind as usize);
        let need = per
            .checked_mul(n)
            .ok_or_else(|| ArtifactError::TooLarge(format!("{what} section size overflows")))?;
        if bytes.len() != need {
            return Err(ArtifactError::Corrupt(format!(
                "{what} section is {} bytes, counts require {need}",
                bytes.len()
            )));
        }
        Ok(bytes)
    }
}

/// Serializer for the canonical section grammar: collect section
/// payloads in kind order, then [`finish`](ArtifactWriter::finish)
/// into one buffer with the header, table, and 8-byte padding.
#[derive(Debug)]
pub struct ArtifactWriter {
    magic: [u8; 8],
    version: u32,
    sections: Vec<(u32, Vec<u8>)>,
}

impl ArtifactWriter {
    /// Start an artifact with the given magic and version.
    pub fn new(magic: [u8; 8], version: u32) -> ArtifactWriter {
        ArtifactWriter {
            magic,
            version,
            sections: Vec::new(),
        }
    }

    /// Append the payload for the next section kind. Kinds must be
    /// added in increasing order starting at 1; [`finish`] checks.
    ///
    /// [`finish`]: ArtifactWriter::finish
    pub fn section(&mut self, kind: u32, payload: Vec<u8>) {
        self.sections.push((kind, payload));
    }

    /// Assemble the final buffer.
    pub fn finish(self) -> Result<Vec<u8>, ArtifactError> {
        let n = self.sections.len();
        if n > MAX_SECTION_KINDS {
            return Err(ArtifactError::TooLarge(format!(
                "{n} sections exceed the {MAX_SECTION_KINDS}-kind grammar"
            )));
        }
        for (i, (kind, _)) in self.sections.iter().enumerate() {
            if *kind as usize != i + 1 {
                return Err(ArtifactError::Corrupt(format!(
                    "section kinds must be 1..={n} in order; slot {i} holds kind {kind}"
                )));
            }
        }
        let table_end = HEADER_BYTES + n * SECTION_ENTRY_BYTES;
        let mut total = table_end;
        for (_, payload) in &self.sections {
            total = align8(total + payload.len());
        }

        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&self.magic);
        out.extend_from_slice(&self.version.to_le_bytes());
        let n32 = u32::try_from(n)
            .map_err(|_| ArtifactError::TooLarge("section count exceeds u32".to_string()))?;
        out.extend_from_slice(&n32.to_le_bytes());
        let mut cursor = table_end;
        for (kind, payload) in &self.sections {
            out.extend_from_slice(&kind.to_le_bytes());
            out.extend_from_slice(&0u32.to_le_bytes());
            out.extend_from_slice(&(cursor as u64).to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            cursor = align8(cursor + payload.len());
        }
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
            out.resize(align8(out.len()), 0);
        }
        Ok(out)
    }
}

/// Interns strings into one blob, deduplicating repeats; spans are
/// `(offset, length)` pairs in bytes.
///
/// Interning order is the caller's insertion order, so a builder that
/// interns in a deterministic order produces a byte-identical blob on
/// every run. The map is keyed by the interned strings themselves,
/// borrowed for `'a`, so each distinct string is copied once: into the
/// blob.
#[derive(Debug, Default)]
pub struct StringTable<'a> {
    blob: Vec<u8>,
    seen: std::collections::HashMap<&'a str, (u32, u32)>,
}

impl<'a> StringTable<'a> {
    /// A fresh, empty table.
    pub fn new() -> StringTable<'a> {
        StringTable::default()
    }

    /// Intern `s`, returning its `(offset, length)` span.
    pub fn intern(&mut self, s: &'a str) -> Result<(u32, u32), ArtifactError> {
        if let Some(&span) = self.seen.get(s) {
            return Ok(span);
        }
        let off = u32::try_from(self.blob.len())
            .map_err(|_| ArtifactError::TooLarge("string blob exceeds u32 offsets".to_string()))?;
        let len = u32::try_from(s.len())
            .map_err(|_| ArtifactError::TooLarge(format!("string of {} bytes", s.len())))?;
        self.blob.extend_from_slice(s.as_bytes());
        self.seen.insert(s, (off, len));
        Ok((off, len))
    }

    /// Consume the table, returning the blob.
    pub fn into_blob(self) -> Vec<u8> {
        self.blob
    }
}

/// Resolve a `(offset, length)` span inside a validated string blob,
/// checking bounds and char boundaries. Returns `None` on any
/// violation (open-time validation turns that into an error; accessor
/// paths treat it as absent).
#[inline]
pub fn str_span(blob: &str, off: u32, len: u32) -> Option<&str> {
    let start = off as usize;
    let end = start.checked_add(len as usize)?;
    blob.get(start..end)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Vec<u8> {
        let mut w = ArtifactWriter::new(*b"TEST\x00\x00\x00\x00", 1);
        w.section(1, vec![1, 2, 3]);
        w.section(2, (0u32..4).flat_map(u32::to_le_bytes).collect());
        w.finish().expect("assembles")
    }

    #[test]
    fn writer_reader_roundtrip() {
        let buf = AlignedBytes::from_vec(tiny());
        let s = Sections::parse(buf.as_slice(), b"TEST\x00\x00\x00\x00", 1, 2).expect("parses");
        assert_eq!(s.bytes(1), &[1, 2, 3]);
        let nums = cast_u32s(s.bytes(2)).expect("aligned");
        assert_eq!(nums, &[0, 1, 2, 3]);
    }

    #[test]
    fn every_truncation_prefix_errors() {
        let full = tiny();
        for cut in 0..full.len() {
            let prefix = AlignedBytes::from_slice(&full[..cut]);
            assert!(
                Sections::parse(prefix.as_slice(), b"TEST\x00\x00\x00\x00", 1, 2).is_err(),
                "prefix of {cut} bytes must not parse"
            );
        }
    }

    #[test]
    fn wrong_magic_version_and_trailing_bytes() {
        let full = tiny();
        let aligned = AlignedBytes::from_slice(&full);
        assert!(matches!(
            Sections::parse(aligned.as_slice(), b"OTHR\x00\x00\x00\x00", 1, 2),
            Err(ArtifactError::BadMagic)
        ));
        assert!(matches!(
            Sections::parse(aligned.as_slice(), b"TEST\x00\x00\x00\x00", 9, 2),
            Err(ArtifactError::BadVersion {
                found: 1,
                expect: 9
            })
        ));
        let mut trailing = full.clone();
        trailing.extend_from_slice(&[0u8; 8]);
        let trailing = AlignedBytes::from_vec(trailing);
        assert!(Sections::parse(trailing.as_slice(), b"TEST\x00\x00\x00\x00", 1, 2).is_err());
    }

    #[test]
    fn misaligned_base_pointer_is_rejected() {
        let full = tiny();
        let mut shifted = vec![0u8; full.len() + 1];
        shifted[1..].copy_from_slice(&full);
        // An odd offset into an aligned allocation is misaligned.
        let backing = AlignedBytes::from_vec(shifted);
        let view = &backing.as_slice()[1..];
        assert!(matches!(
            Sections::parse(view, b"TEST\x00\x00\x00\x00", 1, 2),
            Err(ArtifactError::Misaligned)
        ));
    }

    #[test]
    fn string_table_interns_deterministically() {
        let mut t = StringTable::new();
        let a = t.intern("basil").expect("fits");
        let b = t.intern("garlic").expect("fits");
        let a2 = t.intern("basil").expect("fits");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        let blob = t.into_blob();
        assert_eq!(&blob, b"basilgarlic");
    }

    #[test]
    fn casts_check_alignment_and_granularity() {
        let buf = AlignedBytes::from_slice(&[0u8; 16]);
        assert!(cast_u16s(buf.as_slice()).is_ok());
        assert!(cast_u16s(&buf.as_slice()[1..]).is_err());
        assert!(cast_u16s(&buf.as_slice()[..11]).is_err());
        assert_eq!(cast_u16s(&buf.as_slice()[2..8]).expect("aligned").len(), 3);
        assert!(cast_u32s(&buf.as_slice()[..12]).is_ok());
        assert_eq!(cast_u16s(&[]).expect("empty ok"), &[] as &[u16]);
    }
}
