//! CRC-32 (IEEE 802.3), hand-rolled, no dependencies.
//!
//! Two kernels compute the same digest, and every entry point
//! ([`crc32`], [`crc32_pair`]) dispatches between them per call:
//!
//! - **Carry-less-multiply folding** (x86-64 with PCLMULQDQ and SSE4.1,
//!   detected at run time; inputs of at least [`FOLD_MIN_BYTES`]). Four
//!   128-bit lanes each fold 16 bytes per step, so 64 bytes enter per
//!   iteration; the lanes are folded into one, reduced to 64 bits, and a
//!   Barrett reduction yields the 32-bit remainder (Gopal et al., "Fast
//!   CRC Computation for Generic Polynomials Using PCLMULQDQ
//!   Instruction", Intel, 2009). The input's last `len % 16` bytes go
//!   through the portable kernel.
//! - **Slicing-by-8**, the portable kernel: eight table lookups fold
//!   eight bytes per step. It runs on every other host, on short inputs,
//!   and on the folding kernel's tail.
//!
//! Both take any incoming CRC state, so streaming updates (the
//! crate-private `update`, which a draining [`crate::ByteWriter`] runs
//! over each chunk it writes) and [`crc32_concat`] compose with either. The folding kernel is this
//! crate's only `unsafe` code besides the borrowed limb slabs in
//! `limbs.rs`; its safety argument is at [`fold::update`] and in
//! `docs/ROBUSTNESS.md`.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables, computed at compile time. `TABLES[0]` is the
/// classic bytewise table; `TABLES[k][b]` is the CRC contribution of byte
/// `b` followed by `k` zero bytes, so eight bytes fold in one step.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Bytewise update: one table lookup per byte. The reference both
/// kernels are tested against, and the tail of every sliced update.
fn update_bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Slicing-by-8 update: eight table lookups fold eight bytes at a time,
/// with no dependency between the lookups of one step.
fn update_sliced(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    update_bytewise(crc, words.remainder())
}

/// Shortest input the folding kernel takes: its four lanes start
/// loaded with the first 64 bytes.
const FOLD_MIN_BYTES: usize = 64;

/// Updates the running (un-inverted) CRC with `bytes`, through the
/// folding kernel when the CPU has it and the input is long enough.
///
/// A digest built chunk by chunk starts from `0xFFFF_FFFF` and inverts
/// at the end, exactly as [`crc32`] does: a draining
/// [`crate::ByteWriter`] folds each chunk in as it hands it on.
pub(crate) fn update(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if bytes.len() >= FOLD_MIN_BYTES && fold::available() {
            // SAFETY: pclmulqdq and sse4.1 verified at run time.
            return unsafe { fold::update(crc, bytes) };
        }
    }
    update_sliced(crc, bytes)
}

/// The PCLMULQDQ folding kernel for the reflected IEEE polynomial.
#[cfg(target_arch = "x86_64")]
mod fold {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    use super::update_sliced;

    // Folding constants: `x^e mod P(x)`, bit-reflected and shifted left
    // one, as the reflected carry-less products need them. The test
    // `fold_constants_derive_from_the_polynomial` recomputes each.
    /// Folds a lane 4 × 128 bits forward (low half): `e = 4·128 + 32`.
    pub(super) const K1: i64 = 0x1_5444_2bd4;
    /// Folds a lane 4 × 128 bits forward (high half): `e = 4·128 − 32`.
    pub(super) const K2: i64 = 0x1_c6e4_1596;
    /// Folds 128 bits forward (low half): `e = 128 + 32`.
    pub(super) const K3: i64 = 0x1_7519_97d0;
    /// Folds 128 bits forward (high half): `e = 128 − 32`.
    pub(super) const K4: i64 = 0x0_ccaa_009e;
    /// Folds the 96-bit remainder to 64 bits: `e = 64`.
    pub(super) const K5: i64 = 0x1_63cd_6124;
    /// `P(x)` itself, all 33 bits, reflected.
    pub(super) const P: i64 = 0x1_db71_0641;
    /// Barrett's `μ = ⌊x^64 / P(x)⌋`, 33 bits, reflected.
    pub(super) const MU: i64 = 0x1_f701_1641;

    /// Whether this CPU runs [`update`].
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Loads one 16-byte block.
    #[inline(always)]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: the reference covers exactly the 16 bytes read, and
        // `loadu` has no alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `a` carried 128 (or 512) bits forward, xored into `b`: the two
    /// 64-bit halves of `a` are multiplied by the halves of `keys`.
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn fold(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, keys, 0x00);
        let hi = _mm_clmulepi64_si128(a, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// The running (un-inverted) CRC `crc` updated with `bytes`; equal to
    /// [`update_sliced`] for every input of at least
    /// [`super::FOLD_MIN_BYTES`] bytes. Panics on a shorter one.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `sse4.1` ([`available`]).
    /// Every load is an unaligned 16-byte read of a block the slice
    /// itself hands out (`as_chunks`), so no read leaves `bytes`.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    pub(super) unsafe fn update(crc: u32, bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let (groups, singles) = blocks.as_chunks::<4>();
        let (first, groups) = groups.split_first().expect("at least 64 bytes");
        let mut lanes = first.map(|block| load(&block));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        for group in groups {
            for (lane, block) in lanes.iter_mut().zip(group) {
                *lane = fold(*lane, load(block), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(lanes[0], lanes[1], k3k4);
        x = fold(x, lanes[2], k3k4);
        x = fold(x, lanes[3], k3k4);
        for block in singles {
            x = fold(x, load(block), k3k4);
        }

        // 128 → 96 bits: the low half times x^(128−32), xored into the
        // high half; then 96 → 64 bits: the low 32 bits times x^64.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction, reflected: T1 = (R mod x^32)·μ,
        // T2 = (T1 mod x^32)·P, and the CRC is the upper half of R ⊕ T2.
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        update_sliced(crc, tail)
    }
}

/// CRC-32 of `bytes` (IEEE: init `0xFFFF_FFFF`, final xor, reflected).
pub fn crc32(bytes: &[u8]) -> u32 {
    !update(0xFFFF_FFFF, bytes)
}

/// CRC-32 of the concatenation `a ++ b` without materializing it.
/// Sections checksum `tag ++ payload` this way, so a flipped tag byte is
/// caught by the same mechanism as payload damage.
pub fn crc32_pair(a: &[u8], b: &[u8]) -> u32 {
    !update(update(0xFFFF_FFFF, a), b)
}

/// Multiplies the GF(2) matrix `mat` by the bit-vector `vec`.
fn gf2_matrix_times(mat: &[u32; 32], mut vec: u32) -> u32 {
    let mut sum = 0u32;
    let mut i = 0;
    while vec != 0 {
        if vec & 1 != 0 {
            sum ^= mat[i];
        }
        vec >>= 1;
        i += 1;
    }
    sum
}

/// Squares a GF(2) matrix: `square = mat * mat`.
fn gf2_matrix_square(square: &mut [u32; 32], mat: &[u32; 32]) {
    for n in 0..32 {
        square[n] = gf2_matrix_times(mat, mat[n]);
    }
}

/// Combines two *finished* digests: given `crc_a = crc32(a)` and
/// `crc_b = crc32(b)` with `len_b = b.len()`, returns `crc32(a ++ b)` —
/// without touching a single byte of either buffer.
///
/// This is the streaming combine (zlib's `crc32_combine`): appending
/// `len_b` zero bytes to `a` is a linear operator over GF(2), applied to
/// `crc_a` by matrix exponentiation in `O(log len_b)` squarings, after
/// which the independent digests xor together. It lets digests computed
/// separately — per pool entry, per section, per shard — be stitched
/// into the digest of the concatenation with no re-hash and no
/// intermediate copy of the inputs.
pub fn crc32_concat(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    if len_b == 0 {
        return crc_a;
    }
    let mut even = [0u32; 32]; // even-power-of-two zero-byte operators
    let mut odd = [0u32; 32]; // odd-power operators
                              // The operator for one zero *bit*: shift down, conditionally xor POLY.
    odd[0] = POLY;
    let mut row = 1u32;
    for entry in odd.iter_mut().skip(1) {
        *entry = row;
        row <<= 1;
    }
    // Square to the one-zero-byte (8-bit) operator and beyond.
    gf2_matrix_square(&mut even, &odd); // 2 bits
    gf2_matrix_square(&mut odd, &even); // 4 bits
    let mut crc = crc_a;
    let mut len = len_b;
    loop {
        gf2_matrix_square(&mut even, &odd);
        if len & 1 != 0 {
            crc = gf2_matrix_times(&even, crc);
        }
        len >>= 1;
        if len == 0 {
            break;
        }
        gf2_matrix_square(&mut odd, &even);
        if len & 1 != 0 {
            crc = gf2_matrix_times(&odd, crc);
        }
        len >>= 1;
        if len == 0 {
            break;
        }
    }
    crc ^ crc_b
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The sliced update equals the bytewise reference for every
        /// length (whole words plus a 0–7 byte tail), every start offset
        /// into the buffer (unaligned word reads), and any running CRC.
        #[test]
        fn sliced_update_matches_bytewise(
            data in prop::collection::vec(any::<u8>(), 0..300),
            start in 0usize..16,
            crc in any::<u32>(),
        ) {
            let bytes = &data[start.min(data.len())..];
            prop_assert_eq!(update_sliced(crc, bytes), update_bytewise(crc, bytes));
        }
    }

    /// Deterministic bytes: a 64-bit LCG's high bytes.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 56) as u8
            })
            .collect()
    }

    /// Every kernel this host can run on `bytes` from state `crc`, each
    /// checked against the bytewise reference. The folding kernel is
    /// called directly where the CPU has it, so a silent fallback in the
    /// dispatch cannot hide a wrong fold.
    fn assert_kernels_agree(crc: u32, bytes: &[u8]) {
        let reference = update_bytewise(crc, bytes);
        let len = bytes.len();
        assert_eq!(update_sliced(crc, bytes), reference, "sliced, len {len}");
        assert_eq!(update(crc, bytes), reference, "dispatched, len {len}");
        #[cfg(target_arch = "x86_64")]
        if len >= FOLD_MIN_BYTES && fold::available() {
            // SAFETY: the features were just detected.
            let folded = unsafe { fold::update(crc, bytes) };
            assert_eq!(folded, reference, "folded, len {len}");
        }
    }

    #[test]
    fn kernels_agree_at_every_length_and_offset() {
        let data = noise(1024 + 16, 7);
        for start in 0..16 {
            for len in 0..=1024 {
                let bytes = &data[start..start + len];
                assert_kernels_agree(0xFFFF_FFFF, bytes);
            }
        }
        // Non-initial incoming states, at the fold boundary and past it.
        for (len, crc) in [(63, 0), (64, 1), (65, 0xDEAD_BEEF), (1000, 0x8000_0001)] {
            assert_kernels_agree(crc, &data[3..3 + len]);
        }
    }

    #[test]
    fn kernels_agree_on_a_mebibyte() {
        let data = noise((1 << 20) + 13, 11);
        assert_kernels_agree(0xFFFF_FFFF, &data);
        assert_kernels_agree(0x1234_5678, &data[5..]);
    }

    #[test]
    fn pair_folds_from_a_running_state() {
        // The second buffer enters the folding kernel with the first's
        // running state, not the initial one.
        let data = noise(4096 + 100, 3);
        for split in [1, 9, 64, 100, 777] {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32_pair(a, b), !update_bytewise(0xFFFF_FFFF, &data));
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_derive_from_the_polynomial() {
        // `x^e mod P(x)` in the normal (MSB-first) form, then reflected
        // and shifted left one.
        let xe_mod_p = |e: u32| -> i64 {
            let mut r = 1u32;
            for _ in 0..e {
                r = (r << 1)
                    ^ if r & 0x8000_0000 != 0 {
                        POLY.reverse_bits()
                    } else {
                        0
                    };
            }
            (r.reverse_bits() as i64) << 1
        };
        assert_eq!(fold::K1, xe_mod_p(4 * 128 + 32));
        assert_eq!(fold::K2, xe_mod_p(4 * 128 - 32));
        assert_eq!(fold::K3, xe_mod_p(128 + 32));
        assert_eq!(fold::K4, xe_mod_p(128 - 32));
        assert_eq!(fold::K5, xe_mod_p(64));
        // P(x) with its x^32 term, reflected over 33 bits.
        let p = (1u64 << 32) | POLY.reverse_bits() as u64;
        assert_eq!(fold::P as u64, p.reverse_bits() >> 31);
        // μ = ⌊x^64 / P(x)⌋ by long division, reflected over 33 bits.
        let (mut rem, mut mu) = (1u128 << 64, 0u64);
        for bit in (0..=32).rev() {
            if rem & (1u128 << (bit + 32)) != 0 {
                rem ^= (p as u128) << bit;
                mu |= 1 << bit;
            }
        }
        assert_eq!(fold::MU as u64, mu.reverse_bits() >> 31);
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32/IEEE check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn pair_matches_concatenation() {
        let (a, b) = (b"META".as_slice(), b"payload bytes".as_slice());
        let mut concat = a.to_vec();
        concat.extend_from_slice(b);
        assert_eq!(crc32_pair(a, b), crc32(&concat));
        assert_eq!(crc32_pair(b"", b""), crc32(b""));
    }

    #[test]
    fn concat_combine_matches_naive_concatenation() {
        // Regression pin: the streaming combine must equal hashing the
        // materialized concatenation, for every split point of a buffer
        // that spans several zero-byte-operator doublings.
        let data: Vec<u8> = (0..1021u32).map(|i| (i * 31 + 7) as u8).collect();
        let whole = crc32(&data);
        for split in [0, 1, 2, 7, 8, 63, 64, 255, 511, 1020, 1021] {
            let (a, b) = data.split_at(split);
            let combined = crc32_concat(crc32(a), crc32(b), b.len() as u64);
            assert_eq!(combined, whole, "split at {split}");
            // And it agrees with the two-buffer streaming digest.
            assert_eq!(combined, crc32_pair(a, b), "pair at {split}");
        }
        // Appending nothing is the identity.
        assert_eq!(crc32_concat(whole, crc32(b""), 0), whole);
        // Known vector, stitched: "123456789" = "1234" ++ "56789".
        assert_eq!(
            crc32_concat(crc32(b"1234"), crc32(b"56789"), 5),
            0xCBF4_3926
        );
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let base = b"anns store section payload".to_vec();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut corrupt = base.clone();
                corrupt[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), reference, "flip at {byte}:{bit}");
            }
        }
    }
}
