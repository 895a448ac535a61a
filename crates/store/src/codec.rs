//! The hand-rolled byte codec: little-endian primitives over flat buffers.
//!
//! Section payloads are encoded with [`ByteWriter`] and decoded with
//! [`ByteReader`]. [`Codec`] is the trait entity crates implement next to
//! their types (`anns_hamming::store`, `anns_sketch::store`, …); this
//! module provides the primitive and container impls they compose.
//!
//! A writer keeps its bytes in memory, or drains them: the index pool
//! of a bundle is encoded through a draining writer that hands each
//! 64 KiB chunk to the file as it fills, so an encoder written against
//! `&mut ByteWriter` streams a multi-megabyte index without holding it.
//! Encoders cannot tell the two apart: `len` and `align` count from the
//! writer's first byte either way.
//!
//! Decoding never trusts a length prefix with an allocation: capacities
//! are capped by the bytes actually remaining, so a corrupted length
//! yields a typed error instead of an absurd reservation.
//!
//! A reader may carry a keep-alive owner of its bytes (a mapped bundle,
//! see [`crate::PayloadSource::reader`]). [`ByteReader::limbs`] then
//! borrows aligned limb slabs in place instead of copying them, and
//! checks their tail bits on first scan rather than at decode.

use std::io::{self, Write};

use crate::checksum;
use crate::error::StoreError;
use crate::limbs::{mask_tails, Limbs, Owner};

/// Upper bound, in bytes, on any single speculative pre-reservation made
/// while decoding (1 MiB).
///
/// A count prefix is validated against the bytes *remaining*, but that
/// bound is per-item-minimum: a forged count of a billion one-byte items
/// inside a gigabyte section passes the remaining-bytes check while
/// `Vec::with_capacity(count)` for a 24-byte element type would reserve
/// tens of gigabytes before a single item decodes. Decoders therefore
/// clamp the *reservation* (never the count itself) to this cap via
/// [`decode_capacity`]; a hostile count still decodes item by item until
/// the payload underruns into a typed [`StoreError::Malformed`], just
/// without the OOM-sized up-front allocation.
pub const MAX_DECODE_PREALLOC_BYTES: usize = 1 << 20;

/// The capacity to pre-reserve for `count` decoded items whose in-memory
/// size is `item_bytes`: `count`, clamped so the reservation never
/// exceeds [`MAX_DECODE_PREALLOC_BYTES`]. Growth past the clamp is
/// amortized doubling, paid only by inputs that actually deliver the
/// items.
pub fn decode_capacity(count: usize, item_bytes: usize) -> usize {
    count.min((MAX_DECODE_PREALLOC_BYTES / item_bytes.max(1)).max(1))
}

/// Bytes a draining [`ByteWriter`] buffers before it hands them on.
pub(crate) const DRAIN_CHUNK_BYTES: usize = 64 * 1024;

/// Zeros for alignment padding.
const ZEROS: [u8; 64] = [0; 64];

/// Little-endian byte sink.
///
/// A writer from [`ByteWriter::new`] keeps every byte for
/// [`ByteWriter::into_bytes`]. A *draining* writer (crate-private; the
/// pool writer streams index entries through one) buffers about 64 KiB
/// and hands each full chunk to its sink, folding the chunk into a
/// running CRC-32 as it goes. Either way [`ByteWriter::len`] and
/// [`ByteWriter::align`] count from the start of the writer, not of its
/// buffer, so an encoder writes the same bytes to both.
pub struct ByteWriter<'a> {
    buf: Vec<u8>,
    /// Most bytes `buf` holds before a drain: unbounded in memory.
    limit: usize,
    /// Bytes already handed to the drain.
    drained: usize,
    drain: Option<Drain<'a>>,
}

/// Where a draining writer's chunks go.
struct Drain<'a> {
    out: &'a mut dyn Write,
    /// Running (un-inverted) CRC-32 of every byte handed to `out`.
    crc: u32,
    /// The first write error. `Codec::encode` cannot return it, so it is
    /// kept here, and later chunks are dropped.
    error: Option<io::Error>,
}

impl Drain<'_> {
    fn write(&mut self, bytes: &[u8]) {
        if self.error.is_none() {
            self.crc = checksum::update(self.crc, bytes);
            if let Err(e) = self.out.write_all(bytes) {
                self.error = Some(e);
            }
        }
    }
}

impl Default for ByteWriter<'_> {
    fn default() -> Self {
        ByteWriter {
            buf: Vec::new(),
            limit: usize::MAX,
            drained: 0,
            drain: None,
        }
    }
}

impl<'a> ByteWriter<'a> {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// A writer that hands its bytes to `out` in chunks of about
    /// [`DRAIN_CHUNK_BYTES`], buffering them in `buf` (cleared first;
    /// pass the buffer back from [`ByteWriter::finish_drain`] to reuse
    /// it).
    pub(crate) fn draining(out: &'a mut dyn Write, mut buf: Vec<u8>) -> Self {
        buf.clear();
        buf.reserve(DRAIN_CHUNK_BYTES);
        ByteWriter {
            buf,
            limit: DRAIN_CHUNK_BYTES,
            drained: 0,
            drain: Some(Drain {
                out,
                crc: 0xFFFF_FFFF,
                error: None,
            }),
        }
    }

    /// Drains what is buffered. Returns the emptied buffer for reuse and
    /// the CRC-32 of every byte written, or the first write error.
    pub(crate) fn finish_drain(mut self) -> Result<(Vec<u8>, u32), io::Error> {
        self.spill();
        let drain = self.drain.take().expect("a draining writer");
        match drain.error {
            Some(e) => Err(e),
            None => Ok((self.buf, !drain.crc)),
        }
    }

    /// The encoded bytes of a writer from [`ByteWriter::new`].
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.drained + self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hands the buffer to the drain, if this writer has one.
    fn spill(&mut self) {
        if let Some(drain) = &mut self.drain {
            drain.write(&self.buf);
            self.drained += self.buf.len();
            self.buf.clear();
        }
    }

    /// Appends a fixed-size value's bytes.
    #[inline]
    fn put_array<const N: usize>(&mut self, bytes: [u8; N]) {
        if self.limit - self.buf.len() < N {
            self.spill();
        }
        self.buf.extend_from_slice(&bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.put_array([v]);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.put_array(v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.put_array(v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.put_array(v.to_le_bytes());
    }

    /// Appends little-endian `u64`s: the bytes of one
    /// [`ByteWriter::put_u64`] per value, copied a run at a time. A
    /// draining writer spills where those puts would, once its chunk has
    /// no room for another whole value.
    pub fn put_u64s(&mut self, values: &[u64]) {
        let mut rest = values;
        while !rest.is_empty() {
            let room = (self.limit - self.buf.len()) / 8;
            if room == 0 {
                self.spill();
                continue;
            }
            let (run, tail) = rest.split_at(room.min(rest.len()));
            let start = self.buf.len();
            self.buf.resize(start + 8 * run.len(), 0);
            let (dst, _) = self.buf[start..].as_chunks_mut::<8>();
            for (dst, v) in dst.iter_mut().zip(run) {
                *dst = v.to_le_bytes();
            }
            rest = tail;
        }
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        if self.limit - self.buf.len() < bytes.len() {
            self.spill();
            // More than a chunk: straight to the drain, uncopied.
            if let Some(drain) = self.drain.as_mut().filter(|_| bytes.len() > self.limit) {
                drain.write(bytes);
                self.drained += bytes.len();
                return;
            }
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u64` length prefix followed by the bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.put_raw(bytes);
    }

    /// Appends zero bytes up to the next multiple of `align` from the
    /// start of the writer.
    pub fn align(&mut self, align: usize) {
        let len = self.len();
        let mut pad = len.next_multiple_of(align) - len;
        while pad > 0 {
            let run = pad.min(ZEROS.len());
            self.put_raw(&ZEROS[..run]);
            pad -= run;
        }
    }
}

/// Cursor over an encoded payload.
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Keeps `bytes` alive past the reader, so [`ByteReader::limbs`] may
    /// borrow them.
    owner: Option<Owner>,
}

impl<'a> ByteReader<'a> {
    /// A reader over the whole slice. Limb slabs it reads are copies.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader {
            bytes,
            pos: 0,
            owner: None,
        }
    }

    /// A reader whose limb slabs may borrow from `owner`'s bytes, which
    /// `bytes` should lie inside (slabs outside them are copied).
    pub(crate) fn with_owner(bytes: &'a [u8], owner: Owner) -> Self {
        ByteReader {
            bytes,
            pos: 0,
            owner: Some(owner),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Malformed(format!(
                "payload underrun: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u64` length prefix and that many bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], StoreError> {
        let len = self.len_prefix()?;
        self.take(len)
    }

    /// Reads a `u64` length prefix, validated against the bytes remaining
    /// (the cap that makes corrupted prefixes an error, not an alloc).
    pub fn len_prefix(&mut self) -> Result<usize, StoreError> {
        let len = self.u64()?;
        let len: usize = len
            .try_into()
            .map_err(|_| StoreError::Malformed(format!("length prefix {len} overflows usize")))?;
        if len > self.remaining() {
            return Err(StoreError::Malformed(format!(
                "length prefix {len} exceeds the {} bytes remaining",
                self.remaining()
            )));
        }
        Ok(len)
    }

    /// Reads a count prefix for items of at least `min_item_bytes` each,
    /// validated against the bytes remaining.
    pub fn count_prefix(&mut self, min_item_bytes: usize) -> Result<usize, StoreError> {
        let count = self.u64()?;
        let count: usize = count
            .try_into()
            .map_err(|_| StoreError::Malformed(format!("count prefix {count} overflows usize")))?;
        if count.saturating_mul(min_item_bytes.max(1)) > self.remaining() {
            return Err(StoreError::Malformed(format!(
                "count prefix {count} impossible in {} bytes",
                self.remaining()
            )));
        }
        Ok(count)
    }

    /// Skips the zero bytes [`ByteWriter::align`] wrote: up to the next
    /// multiple of `align` from the start of the reader. A nonzero
    /// padding byte is `Malformed`.
    pub fn align(&mut self, align: usize) -> Result<(), StoreError> {
        let pad = self.pos.next_multiple_of(align) - self.pos;
        if self.take(pad)?.iter().any(|&b| b != 0) {
            return Err(StoreError::Malformed(format!(
                "nonzero alignment padding before offset {}",
                self.pos
            )));
        }
        Ok(())
    }

    /// Reads `rows` rows of `bits` bits, each row `⌈bits/64⌉`
    /// little-endian `u64` limbs whose bits past `bits` should be zero.
    ///
    /// The slab is borrowed in place when this reader has an owner and
    /// the bytes are 8-aligned in memory. Its tail bits are then checked
    /// on its first deref, which keeps the borrow when they are clean
    /// and swaps in a masked copy when they are not. Otherwise the slab
    /// is copied now, with the tail bits masked. Either way it reads
    /// with clean tails. The size is checked against the bytes remaining
    /// before anything is reserved.
    pub fn limbs(&mut self, rows: usize, bits: u32) -> Result<Limbs, StoreError> {
        if bits == 0 {
            return Err(StoreError::Malformed("limb rows of 0 bits".into()));
        }
        let width = bits.div_ceil(64) as usize;
        let len = rows
            .checked_mul(width)
            .filter(|&len| len <= self.remaining() / 8)
            .ok_or_else(|| {
                StoreError::Malformed(format!(
                    "{rows} rows of {bits} bits impossible in {} bytes",
                    self.remaining()
                ))
            })?;
        let raw = self.take(8 * len)?;
        let tail_mask = match bits % 64 {
            0 => u64::MAX,
            tail => (1u64 << tail) - 1,
        };
        if let Some(limbs) = self
            .owner
            .as_ref()
            .and_then(|o| Limbs::borrow(raw, o, width, tail_mask))
        {
            return Ok(limbs);
        }
        let mut out: Vec<u64> = raw
            .chunks_exact(8)
            .map(|chunk| u64::from_le_bytes(chunk.try_into().expect("len 8")))
            .collect();
        mask_tails(&mut out, width, tail_mask);
        Ok(Limbs::from(out))
    }

    /// Errors unless every byte was consumed (decoders call this last, so
    /// stray trailing bytes — a sign of skew — do not pass silently).
    pub fn finish(&self) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(StoreError::Malformed(format!(
                "{} trailing bytes after decode",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Binary encode/decode for one entity, composable by field.
pub trait Codec: Sized {
    /// Appends this value's encoding.
    fn encode(&self, w: &mut ByteWriter);

    /// Decodes one value from the cursor.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError>;

    /// Convenience: encodes to a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Convenience: decodes a full buffer, rejecting trailing bytes.
    fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        let mut r = ByteReader::new(bytes);
        let value = Self::decode(&mut r)?;
        r.finish()?;
        Ok(value)
    }
}

macro_rules! impl_codec_prim {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Codec for $ty {
            fn encode(&self, w: &mut ByteWriter) {
                w.$put(*self);
            }
            fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
                r.$get()
            }
        }
    };
}

impl_codec_prim!(u8, put_u8, u8);
impl_codec_prim!(u16, put_u16, u16);
impl_codec_prim!(u32, put_u32, u32);
impl_codec_prim!(u64, put_u64, u64);
impl_codec_prim!(f64, put_f64, f64);

impl Codec for bool {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(*self as u8);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StoreError::Malformed(format!("bool byte {other}"))),
        }
    }
}

impl Codec for usize {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(*self as u64);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let v = r.u64()?;
        v.try_into()
            .map_err(|_| StoreError::Malformed(format!("usize value {v} overflows")))
    }
}

impl Codec for String {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_bytes(self.as_bytes());
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let bytes = r.bytes()?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| StoreError::Malformed(format!("non-utf8 string: {e}")))
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(StoreError::Malformed(format!("option tag {other}"))),
        }
    }
}

/// Encodes a length-prefixed sequence from a borrowed slice — the
/// non-cloning sibling of `Vec::encode`, for encoders whose data lives
/// behind accessors (no need to `.to_vec()` just to serialize).
pub fn encode_slice<T: Codec>(items: &[T], w: &mut ByteWriter) {
    w.put_u64(items.len() as u64);
    for item in items {
        item.encode(w);
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, w: &mut ByteWriter) {
        encode_slice(self, w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let count = r.count_prefix(1)?;
        let mut out = Vec::with_capacity(decode_capacity(count, std::mem::size_of::<T>()));
        for _ in 0..count {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, w: &mut ByteWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrips() {
        let mut w = ByteWriter::new();
        0xABu8.encode(&mut w);
        0xBEEFu16.encode(&mut w);
        0xDEAD_BEEFu32.encode(&mut w);
        0x0123_4567_89AB_CDEFu64.encode(&mut w);
        (-1.5f64).encode(&mut w);
        true.encode(&mut w);
        42usize.encode(&mut w);
        "héllo".to_string().encode(&mut w);
        Some(7u32).encode(&mut w);
        Option::<u32>::None.encode(&mut w);
        vec![1u64, 2, 3].encode(&mut w);
        (9u8, 10u32).encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(u8::decode(&mut r).unwrap(), 0xAB);
        assert_eq!(u16::decode(&mut r).unwrap(), 0xBEEF);
        assert_eq!(u32::decode(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(u64::decode(&mut r).unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(f64::decode(&mut r).unwrap(), -1.5);
        assert!(bool::decode(&mut r).unwrap());
        assert_eq!(usize::decode(&mut r).unwrap(), 42);
        assert_eq!(String::decode(&mut r).unwrap(), "héllo");
        assert_eq!(Option::<u32>::decode(&mut r).unwrap(), Some(7));
        assert_eq!(Option::<u32>::decode(&mut r).unwrap(), None);
        assert_eq!(Vec::<u64>::decode(&mut r).unwrap(), vec![1, 2, 3]);
        assert_eq!(<(u8, u32)>::decode(&mut r).unwrap(), (9, 10));
        r.finish().unwrap();
    }

    #[test]
    fn nan_bit_pattern_survives() {
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        let back = f64::from_bytes(&nan.to_bytes()).unwrap();
        assert_eq!(back.to_bits(), nan.to_bits());
    }

    #[test]
    fn underrun_is_malformed() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(matches!(r.u32(), Err(StoreError::Malformed(_))));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = 5u32.to_bytes();
        bytes.push(0);
        assert!(matches!(
            u32::from_bytes(&bytes),
            Err(StoreError::Malformed(_))
        ));
    }

    #[test]
    fn hostile_length_prefix_does_not_allocate() {
        // A length prefix claiming u64::MAX bytes must error immediately.
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        w.put_raw(&[1, 2, 3]);
        let bytes = w.into_bytes();
        assert!(matches!(
            String::from_bytes(&bytes),
            Err(StoreError::Malformed(_))
        ));
        assert!(matches!(
            Vec::<u64>::from_bytes(&bytes),
            Err(StoreError::Malformed(_))
        ));
    }

    #[test]
    fn decode_capacity_clamps_to_the_cap() {
        // Under the cap: reserve exactly the count.
        assert_eq!(decode_capacity(100, 8), 100);
        assert_eq!(decode_capacity(0, 8), 0);
        // A forged count of 2^30 u64s would be an 8 GiB reservation;
        // the clamp holds it to the documented byte cap.
        let clamped = decode_capacity(1 << 30, 8);
        assert_eq!(clamped, MAX_DECODE_PREALLOC_BYTES / 8);
        // Huge item types still reserve at least one slot, never zero
        // for a nonzero count.
        assert_eq!(decode_capacity(5, MAX_DECODE_PREALLOC_BYTES * 2), 1);
        // Zero-sized items cannot divide by zero.
        assert_eq!(decode_capacity(3, 0), 3);
    }

    #[test]
    fn hostile_count_prefix_reservation_is_capped() {
        // A forged count larger than the bytes remaining is rejected
        // before any reservation at all.
        let mut w = ByteWriter::new();
        w.put_u64(512 * 1024 * 1024);
        w.put_raw(&[0u8; 16]);
        assert!(matches!(
            Vec::<u64>::from_bytes(&w.into_bytes()),
            Err(StoreError::Malformed(_))
        ));
        // A count that *passes* the remaining-bytes check (one byte per
        // item minimum) but would over-reserve for a wide element type
        // decodes under the clamp and fails typed at the underrun — the
        // reservation stays capped the whole way.
        let claimed = 2 * MAX_DECODE_PREALLOC_BYTES; // 2 MiB of 1-byte "items"
        let mut w = ByteWriter::new();
        w.put_u64(claimed as u64);
        w.put_raw(&vec![7u8; claimed]); // enough bytes for the count check…
        let bytes = w.into_bytes();
        // …but u64 items consume 8 bytes each, so decode underruns.
        assert!(matches!(
            Vec::<u64>::from_bytes(&bytes),
            Err(StoreError::Malformed(_))
        ));
    }

    #[test]
    fn alignment_padding_roundtrips_and_must_be_zero() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.align(8);
        w.put_u64(9);
        w.align(8); // already aligned: nothing written
        let mut bytes = w.into_bytes();
        assert_eq!(bytes.len(), 16);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        r.align(8).unwrap();
        assert_eq!(r.u64().unwrap(), 9);
        r.align(8).unwrap();
        r.finish().unwrap();
        bytes[3] = 1;
        let mut r = ByteReader::new(&bytes);
        r.u8().unwrap();
        assert!(matches!(r.align(8), Err(StoreError::Malformed(_))));
        // Padding cut short is an underrun.
        let mut r = ByteReader::new(&bytes[..5]);
        r.u8().unwrap();
        assert!(matches!(r.align(8), Err(StoreError::Malformed(_))));
    }

    /// One encoder run against a writer: fixed-width puts, pads, raw
    /// runs of every size around the drain chunk.
    fn encode_mixed(w: &mut ByteWriter, lens: &mut Vec<usize>) {
        for i in 0..3 * DRAIN_CHUNK_BYTES / 8 {
            w.put_u64((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            if i % 4099 == 0 {
                w.put_u8(i as u8);
                w.align(64);
            }
        }
        lens.push(w.len());
        for run in [
            1,
            DRAIN_CHUNK_BYTES - 3,
            DRAIN_CHUNK_BYTES,
            2 * DRAIN_CHUNK_BYTES + 5,
        ] {
            w.put_raw(&vec![run as u8; run]);
            w.put_u16(run as u16);
            lens.push(w.len());
        }
        w.align(4096);
        w.put_bytes(b"tail");
        lens.push(w.len());
    }

    #[test]
    fn a_draining_writer_writes_what_an_in_memory_one_keeps() {
        let (mut kept_lens, mut drained_lens) = (Vec::new(), Vec::new());
        let mut kept = ByteWriter::new();
        encode_mixed(&mut kept, &mut kept_lens);
        let kept = kept.into_bytes();

        let mut sink = Vec::new();
        let mut w = ByteWriter::draining(&mut sink, Vec::new());
        encode_mixed(&mut w, &mut drained_lens);
        assert!(
            w.buf.capacity() <= DRAIN_CHUNK_BYTES,
            "the buffer stays one chunk"
        );
        let (buf, crc) = w.finish_drain().expect("Vec write cannot fail");
        assert!(buf.is_empty());
        assert_eq!(
            drained_lens, kept_lens,
            "len counts from the writer's start"
        );
        assert_eq!(sink, kept);
        assert_eq!(crc, crate::crc32(&kept));
    }

    /// A sink that keeps every write it is handed, as one chunk each.
    #[derive(Debug, Default, PartialEq)]
    struct Chunks(Vec<Vec<u8>>);

    impl Write for Chunks {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0.push(bytes.to_vec());
            Ok(bytes.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn bulk_u64s_write_and_spill_as_single_puts() {
        // Runs led by an odd byte count, so values straddle the chunk
        // edge unless the spill falls where single puts put it, and
        // long enough to cross the drain boundary several times.
        let per_chunk = DRAIN_CHUNK_BYTES / 8;
        for lead in [0, 1, 3, 8, 13] {
            for count in [
                0,
                1,
                3,
                per_chunk - 1,
                per_chunk,
                per_chunk + 1,
                3 * per_chunk + 5,
            ] {
                let values: Vec<u64> = (0..count as u64)
                    .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .collect();
                let encode = |w: &mut ByteWriter, bulk: bool| {
                    w.put_raw(&vec![0xAB; lead]);
                    for run in [&values[..], &values[..count.min(3)]] {
                        if bulk {
                            w.put_u64s(run);
                        } else {
                            run.iter().for_each(|&v| w.put_u64(v));
                        }
                        w.put_u8(7);
                    }
                };
                let drained = |bulk: bool| {
                    let mut sink = Chunks::default();
                    let mut w = ByteWriter::draining(&mut sink, Vec::new());
                    encode(&mut w, bulk);
                    let len = w.len();
                    let (_, crc) = w.finish_drain().expect("Vec write cannot fail");
                    (sink, len, crc)
                };
                let kept = |bulk: bool| {
                    let mut w = ByteWriter::new();
                    encode(&mut w, bulk);
                    w.into_bytes()
                };
                let (bulk, single) = (drained(true), drained(false));
                assert_eq!(bulk, single, "lead {lead}, {count} values");
                assert_eq!(kept(true), kept(false), "lead {lead}, {count} values");
                assert_eq!(bulk.0 .0.concat(), kept(false));
            }
        }
    }

    #[test]
    fn a_drain_error_is_kept_for_the_finish() {
        struct Full(usize);
        impl Write for Full {
            fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
                if self.0 == 0 {
                    return Err(io::Error::other("disk full"));
                }
                let n = bytes.len().min(self.0);
                self.0 -= n;
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut out = Full(DRAIN_CHUNK_BYTES + 10);
        let mut w = ByteWriter::draining(&mut out, Vec::new());
        encode_mixed(&mut w, &mut Vec::new());
        let err = w.finish_drain().expect_err("the sink filled up");
        assert_eq!(err.to_string(), "disk full");
    }

    #[test]
    fn bad_tags_are_malformed() {
        assert!(matches!(
            bool::from_bytes(&[2]),
            Err(StoreError::Malformed(_))
        ));
        assert!(matches!(
            Option::<u8>::from_bytes(&[9, 0]),
            Err(StoreError::Malformed(_))
        ));
    }
}
