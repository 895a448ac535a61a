//! [`Limbs`]: a slab of `u64` limbs that is either owned or borrowed in
//! place from the bytes of a mapped bundle.
//!
//! This is the codec's only `unsafe` code (the crate's other is the
//! CRC folding kernel in `checksum.rs`; `docs/ROBUSTNESS.md` lists
//! both with their safety arguments). A borrowed slab is a raw
//! pointer into memory a [`KeepAlive`] owner holds; every check that
//! makes the pointer sound runs once, at construction in
//! [`Limbs::borrow`]: the bytes lie inside the owner's bytes, start on
//! an 8-byte boundary, are a whole number of limbs, and the target reads
//! limbs little-endian. Anything else is copied by the caller. The one
//! promise no check can make — that the owner's bytes never move or
//! change — is the `unsafe` contract of [`KeepAlive`].

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

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

/// A `u64` slab: owned (built or copied from a buffer) or borrowed from
/// a mapped bundle. Derefs to `&[u64]` either way; equality, cloning and
/// serialization look only at the limbs.
pub struct Limbs(Repr);

enum Repr {
    Owned(Vec<u64>),
    Borrowed {
        ptr: *const u64,
        len: usize,
        _owner: Owner,
    },
}

// SAFETY: `Owned` is a `Vec<u64>`. `Borrowed` only reads through `ptr`,
// into memory its `Send + Sync` owner keeps alive and unchanged, so
// sharing or sending the pointer races with no write; `len` is a plain
// count and `_owner` is itself `Send + Sync`.
unsafe impl Send for Limbs {}
unsafe impl Sync for Limbs {}

impl Limbs {
    /// Borrows `bytes` as limbs in place, or `None` when they are not
    /// inside `owner`'s bytes, not 8-aligned, not a whole number of
    /// limbs, or the target is not little-endian.
    pub(crate) fn borrow(bytes: &[u8], owner: &Owner) -> Option<Limbs> {
        if cfg!(target_endian = "big") {
            return None;
        }
        let range = owner.bytes().as_ptr_range();
        let inside = range.start <= bytes.as_ptr() && bytes.as_ptr_range().end <= range.end;
        // SAFETY: every bit pattern is a valid `u64`; `align_to` only
        // splits the slice at the first and last aligned positions.
        let (head, body, tail) = unsafe { bytes.align_to::<u64>() };
        (inside && head.is_empty() && tail.is_empty()).then(|| {
            Limbs(Repr::Borrowed {
                ptr: body.as_ptr(),
                len: body.len(),
                _owner: Arc::clone(owner),
            })
        })
    }

    /// Whether the limbs are borrowed from a mapped bundle.
    pub fn is_borrowed(&self) -> bool {
        matches!(self.0, Repr::Borrowed { .. })
    }
}

impl Deref for Limbs {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        match &self.0 {
            Repr::Owned(limbs) => limbs,
            // SAFETY: `borrow` checked that `len` aligned limbs at `ptr`
            // lie inside the owner's bytes, which `_owner` keeps alive
            // and unchanged.
            Repr::Borrowed { ptr, len, .. } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
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
            Repr::Borrowed { ptr, len, _owner } => Repr::Borrowed {
                ptr: *ptr,
                len: *len,
                _owner: Arc::clone(_owner),
            },
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

impl serde::Serialize for Limbs {
    fn to_value(&self) -> serde::Value {
        (**self).to_value()
    }
}

impl serde::Deserialize for Limbs {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Vec::from_value(v).map(Limbs::from)
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

        // Clones share the borrow; serialization sees only the limbs.
        let clone = borrowed.clone();
        assert_eq!(clone.as_ptr(), borrowed.as_ptr());
        assert_eq!(
            serde::Serialize::to_value(&borrowed),
            serde::Serialize::to_value(&unowned)
        );
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
