//! [`Limbs`]: a slab of `u64` limbs that is either owned or borrowed in
//! place from the bytes of a mapped bundle.
//!
//! This is the codec's only `unsafe` code. The crate's other `unsafe`
//! code is the CRC folding kernel in `checksum.rs` and, in `mapped.rs`,
//! the `sys` FFI (`mmap`/`munmap`, `Send`/`Sync` for its `Mapping`, the
//! `from_raw_parts` view of a mapping, and the Linux
//! `sync_file_range` writeback hint) and `unsafe impl KeepAlive for
//! Inner`; `docs/ROBUSTNESS.md` lists each with its safety argument.
//! A borrowed slab is a raw
//! pointer into memory a [`KeepAlive`] owner holds; every check that
//! makes the pointer sound runs once, at construction in
//! [`Limbs::borrow`]: the bytes lie inside the owner's bytes, start on
//! an 8-byte boundary, are a whole number of limbs, and the target reads
//! limbs little-endian. Anything else is copied by the caller. The one
//! promise no check can make — that the owner's bytes never move or
//! change — is the `unsafe` contract of [`KeepAlive`].
//!
//! The rows' tail bits are checked later, on the slab's first deref:
//! the check reads the last limb of every row, so running it at decode
//! would page in every slab of a mapped index, scanned or not. A clean
//! slab keeps its borrow; a dirty one becomes a masked owned copy. Clones
//! share the check, so it runs once per decoded slab.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Memory that stays put and unchanged for as long as it lives: what a
/// borrowed [`Limbs`] keeps alive. Implemented by the store's parsed
/// file (a read-only mapping or an owned buffer behind an `Arc`).
///
/// # Safety
///
/// Every call to [`KeepAlive::bytes`] must return the same slice, and
/// its bytes must stay valid and unchanged until the value is dropped.
pub(crate) unsafe trait KeepAlive: Send + Sync {
    /// The whole byte range a borrow may point into.
    fn bytes(&self) -> &[u8];
}

/// A shared handle to a [`KeepAlive`] owner.
pub(crate) type Owner = Arc<dyn KeepAlive>;

/// A `u64` slab of rows of `⌈bits/64⌉` limbs each: owned (built or
/// copied from a buffer) or borrowed from a mapped bundle. Derefs to
/// `&[u64]` either way, with every row's bits past `bits` zero;
/// equality, cloning and serialization look only at the limbs.
pub struct Limbs(Repr);

enum Repr {
    Owned(Vec<u64>),
    Borrowed(Arc<Borrowed>),
}

/// A slab borrowed in place, with its tail check latched.
struct Borrowed {
    ptr: *const u64,
    len: usize,
    /// Limbs per row.
    width: usize,
    /// The bits of a row's last limb that may be set.
    tail_mask: u64,
    /// The tail check's verdict: `None` when every tail is clean, or the
    /// masked copy that replaces the borrow.
    checked: OnceLock<Option<Vec<u64>>>,
    _owner: Owner,
}

// SAFETY: `Borrowed` only reads through `ptr`, into memory its
// `Send + Sync` owner keeps alive and unchanged, so sharing or sending
// the pointer races with no write. `len`, `width` and `tail_mask` are
// plain values, `checked` is a `Send + Sync` latch, and `_owner` is
// itself `Send + Sync`.
unsafe impl Send for Borrowed {}
unsafe impl Sync for Borrowed {}

impl Borrowed {
    #[inline]
    fn in_place(&self) -> &[u64] {
        // SAFETY: `Limbs::borrow` checked that `len` aligned limbs at
        // `ptr` lie inside the owner's bytes, which `_owner` keeps alive
        // and unchanged.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// The masked copy if some row's tail is dirty, running the check on
    /// first call.
    #[inline]
    fn copy(&self) -> Option<&[u64]> {
        match self.checked.get() {
            Some(verdict) => verdict.as_deref(),
            None => self.check(),
        }
    }

    /// The tail check itself: off the scan path, run once per slab.
    #[cold]
    fn check(&self) -> Option<&[u64]> {
        self.checked
            .get_or_init(|| {
                let limbs = self.in_place();
                let clean = limbs
                    .chunks_exact(self.width)
                    .all(|row| row[self.width - 1] & !self.tail_mask == 0);
                (!clean).then(|| {
                    let mut copy = limbs.to_vec();
                    mask_tails(&mut copy, self.width, self.tail_mask);
                    copy
                })
            })
            .as_deref()
    }
}

/// Clears the bits outside `tail_mask` in the last limb of every row of
/// `width` limbs.
pub(crate) fn mask_tails(limbs: &mut [u64], width: usize, tail_mask: u64) {
    for row in limbs.chunks_exact_mut(width) {
        row[width - 1] &= tail_mask;
    }
}

impl Limbs {
    /// Borrows `bytes` in place as rows of `width` limbs whose last limb
    /// may set only `tail_mask`, or `None` when the bytes are not inside
    /// `owner`'s bytes, not 8-aligned, not a whole number of limbs, or
    /// the target is not little-endian. The tails are checked on first
    /// deref, not here. `width` is nonzero and divides the limb count:
    /// the reader computed both from one row shape.
    pub(crate) fn borrow(
        bytes: &[u8],
        owner: &Owner,
        width: usize,
        tail_mask: u64,
    ) -> Option<Limbs> {
        if cfg!(target_endian = "big") {
            return None;
        }
        let range = owner.bytes().as_ptr_range();
        let inside = range.start <= bytes.as_ptr() && bytes.as_ptr_range().end <= range.end;
        // SAFETY: every bit pattern is a valid `u64`; `align_to` only
        // splits the slice at the first and last aligned positions.
        let (head, body, tail) = unsafe { bytes.align_to::<u64>() };
        (inside && head.is_empty() && tail.is_empty()).then(|| {
            Limbs(Repr::Borrowed(Arc::new(Borrowed {
                ptr: body.as_ptr(),
                len: body.len(),
                width,
                tail_mask,
                checked: OnceLock::new(),
                _owner: Arc::clone(owner),
            })))
        })
    }

    /// Number of limbs. Unlike a deref, this never runs the tail check.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Owned(limbs) => limbs.len(),
            Repr::Borrowed(b) => b.len,
        }
    }

    /// Whether the slab holds no limbs (never runs the tail check).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of limbs held on the heap: all of an owned slab, the masked
    /// copy of a borrowed slab whose tail check found a dirty row, else
    /// none. Never runs the tail check, so it reads no slab.
    pub fn owned_len(&self) -> usize {
        match &self.0 {
            Repr::Owned(limbs) => limbs.len(),
            Repr::Borrowed(b) => b.checked.get().and_then(Option::as_ref).map_or(0, Vec::len),
        }
    }

    /// Whether the limbs are borrowed from a mapped bundle. Runs the
    /// tail check first, so a slab with a dirty tail reads as copied.
    pub fn is_borrowed(&self) -> bool {
        matches!(&self.0, Repr::Borrowed(b) if b.copy().is_none())
    }
}

impl Deref for Limbs {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        match &self.0 {
            Repr::Owned(limbs) => limbs,
            Repr::Borrowed(b) => b.copy().unwrap_or_else(|| b.in_place()),
        }
    }
}

impl From<Vec<u64>> for Limbs {
    fn from(limbs: Vec<u64>) -> Self {
        Limbs(Repr::Owned(limbs))
    }
}

impl Clone for Limbs {
    fn clone(&self) -> Self {
        Limbs(match &self.0 {
            Repr::Owned(limbs) => Repr::Owned(limbs.clone()),
            Repr::Borrowed(b) => Repr::Borrowed(Arc::clone(b)),
        })
    }
}

impl PartialEq for Limbs {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Limbs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ByteReader;

    // SAFETY: an `Arc`-held `Vec<u8>` is never mutated or reallocated.
    unsafe impl KeepAlive for Vec<u8> {
        fn bytes(&self) -> &[u8] {
            self
        }
    }

    /// Six 128-bit rows of limbs.
    fn sample() -> Vec<u64> {
        (1..=12u64).map(|i| i * 0x1111_1111_1111_1111).collect()
    }

    /// An owner holding the sample twice: 8-aligned at the returned
    /// offset, and again 4 bytes past the next 8-aligned offset.
    fn owner_with_sample() -> (Owner, usize, usize) {
        let limbs = sample();
        let mut buf = vec![0u8; 2 * 8 * limbs.len() + 24];
        let aligned = buf.as_ptr().align_offset(8);
        let shifted = aligned + 8 * limbs.len() + 12;
        for (i, limb) in limbs.iter().enumerate() {
            for at in [aligned, shifted] {
                buf[at + 8 * i..at + 8 * (i + 1)].copy_from_slice(&limb.to_le_bytes());
            }
        }
        (Arc::new(buf), aligned, shifted)
    }

    #[test]
    fn limbs_borrow_in_place_only_through_an_owner_over_aligned_bytes() {
        let want = sample();
        let (owner, aligned, shifted) = owner_with_sample();
        let bytes = owner.bytes();
        let window = |at: usize| &bytes[at..at + 8 * want.len()];

        let mut r = ByteReader::with_owner(window(aligned), Arc::clone(&owner));
        let borrowed = r.limbs(6, 128).unwrap();
        r.finish().unwrap();
        assert!(borrowed.is_borrowed());
        assert_eq!(borrowed.as_ptr().cast::<u8>(), window(aligned).as_ptr());
        assert_eq!(*borrowed, want[..]);

        // Misaligned by 4, or with no owner: an equal owned copy.
        let mut r = ByteReader::with_owner(window(shifted), Arc::clone(&owner));
        let misaligned = r.limbs(6, 128).unwrap();
        let unowned = ByteReader::new(window(aligned)).limbs(6, 128).unwrap();
        for copy in [&misaligned, &unowned] {
            assert!(!copy.is_borrowed());
            assert_eq!(**copy, want[..]);
            assert_eq!(*copy, borrowed);
        }

        // Bytes outside the owner are copied too, even when aligned.
        let elsewhere = want
            .iter()
            .flat_map(|l| l.to_le_bytes())
            .collect::<Vec<_>>();
        let outside = ByteReader::with_owner(&elsewhere, Arc::clone(&owner))
            .limbs(6, 128)
            .unwrap();
        assert!(!outside.is_borrowed());
        assert_eq!(outside, borrowed);

        // Clones share the borrow.
        let clone = borrowed.clone();
        assert_eq!(clone.as_ptr(), borrowed.as_ptr());
    }

    #[test]
    fn dirty_tails_are_copied_and_masked() {
        let (owner, aligned, _) = owner_with_sample();
        let window = &owner.bytes()[aligned..aligned + 96];
        // Read as twelve 60-bit rows: every sample limb sets bits in 60..64.
        let mut r = ByteReader::with_owner(window, Arc::clone(&owner));
        let masked = r.limbs(12, 60).unwrap();
        assert!(!masked.is_borrowed());
        let want: Vec<u64> = sample().iter().map(|l| l & ((1 << 60) - 1)).collect();
        assert_eq!(*masked, want[..]);
        // Rows whose tails are clean borrow.
        let clean = ByteReader::with_owner(window, Arc::clone(&owner))
            .limbs(12, 64)
            .unwrap();
        assert!(clean.is_borrowed());
        assert_eq!((clean.owned_len(), masked.owned_len()), (0, 12));
    }

    #[test]
    fn tail_checks_wait_for_the_first_deref_and_clones_share_them() {
        let (owner, aligned, _) = owner_with_sample();
        let window = &owner.bytes()[aligned..aligned + 96];
        let checked = |l: &Limbs| matches!(&l.0, Repr::Borrowed(b) if b.checked.get().is_some());
        let dirty = ByteReader::with_owner(window, Arc::clone(&owner))
            .limbs(12, 60)
            .unwrap();
        let clone = dirty.clone();
        // Shape queries leave the check to the first scan.
        assert_eq!((dirty.len(), dirty.is_empty()), (12, false));
        assert_eq!(dirty.owned_len(), 0);
        assert!(!checked(&dirty) && !checked(&clone));
        // Scanning one clone masks a copy that both then read.
        assert_eq!(clone[0], sample()[0] & ((1 << 60) - 1));
        assert!(checked(&dirty));
        assert_eq!(dirty.owned_len(), 12);
        assert_eq!(dirty.as_ptr(), clone.as_ptr());
        assert_ne!(dirty.as_ptr().cast::<u8>(), window.as_ptr());
        assert!(!dirty.is_borrowed());
    }

    #[test]
    fn hostile_limb_counts_are_typed() {
        let (owner, aligned, _) = owner_with_sample();
        let window = &owner.bytes()[aligned..aligned + 96];
        for (rows, bits) in [
            (7, 128),
            (1, 1 << 20),
            (usize::MAX, 64),
            (4, u32::MAX),
            (1, 0),
        ] {
            let mut r = ByteReader::with_owner(window, Arc::clone(&owner));
            assert!(
                matches!(r.limbs(rows, bits), Err(crate::StoreError::Malformed(_))),
                "{rows} rows of {bits} bits"
            );
        }
    }
}
