//! Binary store codecs for the sketching machinery.
//!
//! A persisted index must reproduce its sampled randomness *bit for bit*:
//! the sketch family is the public coins of the instance, and re-sampling
//! from the seed would tie old artifacts to the private stream of
//! whatever `rand` ships with a future build. So the matrices, thresholds
//! and database sketches are all stored literally; the seed rides along
//! inside [`SketchParams`] as provenance, not as the decode path.

use anns_hamming::point::LIMB_BITS;
use anns_store::{decode_capacity, encode_slice, ByteReader, ByteWriter, Codec, Limbs, StoreError};

use crate::delta::ThresholdMode;
use crate::family::{DbSketches, SketchFamily, SketchParams, SketchSlabs};
use crate::matrix::SketchMatrix;

impl Codec for ThresholdMode {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(match self {
            ThresholdMode::Midpoint => 0,
            ThresholdMode::LiteralDelta => 1,
        });
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        match r.u8()? {
            0 => Ok(ThresholdMode::Midpoint),
            1 => Ok(ThresholdMode::LiteralDelta),
            other => Err(StoreError::Malformed(format!("threshold mode {other}"))),
        }
    }
}

impl Codec for SketchParams {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_f64(self.gamma);
        w.put_f64(self.c1);
        w.put_f64(self.c2);
        w.put_f64(self.s);
        self.threshold_mode.encode(w);
        w.put_u64(self.seed);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(SketchParams {
            gamma: r.f64()?,
            c1: r.f64()?,
            c2: r.f64()?,
            s: r.f64()?,
            threshold_mode: ThresholdMode::decode(r)?,
            seed: r.u64()?,
        })
    }
}

impl Codec for SketchMatrix {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.dim());
        w.put_f64(self.density());
        encode_slice(self.row_points(), w);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let dim = r.u32()?;
        let density = r.f64()?;
        let rows = Vec::decode(r)?;
        SketchMatrix::from_parts(dim, density, rows).map_err(StoreError::Malformed)
    }
}

impl Codec for SketchFamily {
    fn encode(&self, w: &mut ByteWriter) {
        self.params().encode(w);
        w.put_u32(self.dim());
        w.put_u64(self.n() as u64);
        encode_slice(self.m_matrices(), w);
        encode_slice(self.n_matrices(), w);
        encode_slice(self.m_thresholds(), w);
        encode_slice(self.n_thresholds(), w);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let params = SketchParams::decode(r)?;
        let dim = r.u32()?;
        let n = usize::decode(r)?;
        let m_mats = Vec::decode(r)?;
        let n_mats = Vec::decode(r)?;
        let m_thresholds = Vec::decode(r)?;
        let n_thresholds = Vec::decode(r)?;
        SketchFamily::from_parts(params, dim, n, m_mats, n_mats, m_thresholds, n_thresholds)
            .map_err(StoreError::Malformed)
    }
}

/// Encodes one kind of database sketches in the stored layout
/// (`docs/STORE_FORMAT.md` §3): the kind's `u32` row count, `u64` scale
/// count and `u64` point count, zero padding to the next multiple of 8,
/// then each scale's slab as raw little-endian limbs. A kind not
/// sketched has no slab: its header alone, with a scale count of 0.
fn encode_slabs(rows: u32, scales: &[Limbs], points: usize, w: &mut ByteWriter) {
    w.put_u32(rows);
    w.put_u64(scales.len() as u64);
    w.put_u64(points as u64);
    w.align(8);
    for slab in scales {
        w.put_u64s(slab);
    }
}

/// Decodes one kind written by [`encode_slabs`], returning the slabs and
/// their point count.
///
/// The size of every slab together, `scales × points × ⌈rows/64⌉ × 8`
/// bytes, is checked against the bytes remaining before anything is
/// reserved, so hostile counts and widths are a typed error. Each slab
/// is borrowed in place when the reader allows it
/// ([`ByteReader::limbs`]), with its tail bits checked on its first
/// scan, and otherwise copied with its tail bits masked, as
/// `Point::from_limbs` does.
fn decode_slabs(r: &mut ByteReader<'_>) -> Result<(SketchSlabs, usize), StoreError> {
    let rows = r.u32()?;
    let scale_count = usize::decode(r)?;
    let points = usize::decode(r)?;
    r.align(8)?;
    if rows == 0 || points == 0 {
        return Err(StoreError::Malformed(format!(
            "db sketches of {rows} bits over {points} points"
        )));
    }
    let width = rows.div_ceil(LIMB_BITS) as usize;
    let fits = scale_count
        .checked_mul(points)
        .and_then(|limbs| limbs.checked_mul(width))
        .is_some_and(|limbs| limbs <= r.remaining() / 8);
    if !fits {
        return Err(StoreError::Malformed(format!(
            "{scale_count} scales of {points} sketches of {rows} bits impossible in {} bytes",
            r.remaining()
        )));
    }
    let mut scales = Vec::with_capacity(decode_capacity(scale_count, std::mem::size_of::<Limbs>()));
    for _ in 0..scale_count {
        scales.push(r.limbs(points, rows)?);
    }
    Ok((SketchSlabs { rows, scales }, points))
}

impl Codec for DbSketches {
    /// Writes the halves held: an `N` half not yet sketched is written
    /// as its kind header alone, which decodes to the same unsketched
    /// half.
    fn encode(&self, w: &mut ByteWriter) {
        for (rows, scales) in self.kinds() {
            encode_slabs(rows, scales, self.len(), w);
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let (m, points) = decode_slabs(r)?;
        let (n, n_points) = decode_slabs(r)?;
        if n_points != points {
            return Err(StoreError::Malformed(format!(
                "M sketches cover {points} points, N sketches {n_points}"
            )));
        }
        DbSketches::from_slabs(points, m, n).map_err(StoreError::Malformed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anns_hamming::{gen, Point};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn params_roundtrip_preserves_every_field() {
        let p = SketchParams {
            gamma: 3.5,
            c1: 11.25,
            c2: 7.0,
            s: 2.5,
            threshold_mode: ThresholdMode::LiteralDelta,
            seed: 0xFEED_FACE,
        };
        let back = SketchParams::from_bytes(&p.to_bytes()).unwrap();
        assert_eq!(back.gamma, p.gamma);
        assert_eq!(back.c1, p.c1);
        assert_eq!(back.c2, p.c2);
        assert_eq!(back.s, p.s);
        assert_eq!(back.seed, p.seed);
        assert!(matches!(back.threshold_mode, ThresholdMode::LiteralDelta));
    }

    #[test]
    fn family_roundtrip_sketches_identically() {
        let params = SketchParams::practical(2.0, 99);
        let family = SketchFamily::generate(128, 64, &params);
        let back = SketchFamily::from_bytes(&family.to_bytes()).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let x = Point::random(128, &mut rng);
        assert_eq!(back.top(), family.top());
        for i in 0..=family.top() {
            assert_eq!(back.sketch_m(i, &x), family.sketch_m(i, &x), "M_{i}");
            assert_eq!(back.sketch_n(i, &x), family.sketch_n(i, &x), "N_{i}");
            assert_eq!(back.m_threshold(i), family.m_threshold(i));
            assert_eq!(back.n_threshold(i), family.n_threshold(i));
        }
    }

    #[test]
    fn db_sketches_roundtrip_exactly() {
        let mut rng = StdRng::seed_from_u64(7);
        let ds = gen::uniform(24, 96, &mut rng);
        let params = SketchParams::practical(2.0, 3);
        let family = SketchFamily::generate(96, 24, &params);
        let db = DbSketches::build(&family, &ds, 1);
        let back = DbSketches::from_bytes(&db.to_bytes()).unwrap();
        for i in 0..=family.top() {
            for z in 0..ds.len() {
                assert_eq!(back.m_limbs(i, z), db.m_limbs(i, z));
                assert_eq!(back.n_limbs(i, z), db.n_limbs(i, z));
            }
        }
        assert_eq!(back.to_bytes(), db.to_bytes());
    }

    /// `ds`'s sketches under `family`, hand-encoded in the stored layout
    /// from each point's row-path sketch, one `put_u64` per limb: per
    /// kind a u32 row count, u64 scale and point counts, four zero bytes
    /// of padding, then every sketch's raw limbs.
    fn hand_encoded(family: &SketchFamily, ds: &anns_hamming::Dataset, w: &mut ByteWriter) {
        for mats in [family.m_matrices(), family.n_matrices()] {
            w.put_u32(mats[0].rows());
            w.put_u64(mats.len() as u64);
            w.put_u64(ds.len() as u64);
            w.put_u32(0);
            for mat in mats {
                for x in ds.points() {
                    for &limb in mat.sketch(x).limbs() {
                        w.put_u64(limb);
                    }
                }
            }
        }
    }

    #[test]
    fn db_sketches_encode_the_slab_layout() {
        // Pins the bytes against the hand-encoded reference, in memory
        // and through the pool writer, which drains in 64 KiB chunks. At
        // the second shape, 139-bit `M` rows (3 limbs) over 3001 points,
        // every `M` slab (72,024 bytes) crosses a chunk boundary at an
        // odd limb count, behind the pool table at an offset the 64-byte
        // entry alignment leaves.
        for (points, c, m_rows) in [(5, 24.0, 56), (3001, 12.0, 139)] {
            let mut rng = StdRng::seed_from_u64(8);
            let ds = gen::uniform(points, 64, &mut rng);
            let params = SketchParams {
                c1: c,
                c2: c,
                ..SketchParams::practical(2.0, 4)
            };
            let family = SketchFamily::generate(64, points, &params);
            assert_eq!(family.m_rows(), m_rows);
            let db = DbSketches::build(&family, &ds, 2);
            let mut w = ByteWriter::new();
            hand_encoded(&family, &ds, &mut w);
            assert_eq!(db.to_bytes(), w.into_bytes(), "{points} points in memory");
            let pooled = |encode: &dyn Fn(&mut ByteWriter)| {
                let mut out = std::io::Cursor::new(Vec::new());
                let mut writer = anns_store::SectionWriter::new(&mut out, 0, 1).unwrap();
                writer.pool_section(&[()], |_, w| encode(w)).unwrap();
                writer.finish().unwrap();
                out.into_inner()
            };
            assert_eq!(
                pooled(&|w| db.encode(w)),
                pooled(&|w| hand_encoded(&family, &ds, w)),
                "{points} points drained"
            );
        }
    }

    #[test]
    fn a_deferred_n_half_is_stored_as_its_header_alone() {
        let mut rng = StdRng::seed_from_u64(11);
        let ds = gen::uniform(40, 96, &mut rng);
        let family = SketchFamily::generate(96, 40, &SketchParams::practical(2.0, 12));
        let m_only = DbSketches::build_m(&family, &ds, 2);
        let held = m_only.slab_bytes();
        let whole = DbSketches::build(&family, &ds, 1).to_bytes();
        let bytes = m_only.to_bytes();
        assert_eq!(m_only.slab_bytes(), held, "encoding sketches nothing");
        // The `M` kind as a build writes it, then the `N` kind's 24-byte
        // header with no scale: every `N` slab byte left out.
        let n_slabs = (family.top() as usize + 1) * 40 * 8 * family.n_rows().div_ceil(64) as usize;
        let m_kind = whole.len() - 24 - n_slabs;
        let mut w = ByteWriter::new();
        w.put_raw(&whole[..m_kind]);
        w.put_u32(family.n_rows());
        w.put_u64(0);
        w.put_u64(40);
        w.put_u32(0);
        assert_eq!(bytes, w.into_bytes());
        // Decoded, the `N` half is unsketched until its first need, which
        // sketches the bits a build does.
        let back = DbSketches::from_bytes(&bytes).unwrap();
        assert!(back.check_family(&family).is_ok());
        assert_eq!(back.slab_bytes(), held);
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.ensure_n(&family, &ds, 2).to_bytes(), whole);
        // Held, the `N` half is written as it is.
        assert_eq!(m_only.ensure_n(&family, &ds, 2).to_bytes(), whole);
    }

    #[test]
    fn structural_violations_are_malformed() {
        // A family whose scale lists disagree with its dimension.
        let params = SketchParams::practical(2.0, 1);
        let family = SketchFamily::generate(64, 16, &params);
        let mut w = ByteWriter::new();
        family.params().encode(&mut w);
        w.put_u32(2048); // dimension implying far more scales than stored
        w.put_u64(16);
        encode_slice(family.m_matrices(), &mut w);
        encode_slice(family.n_matrices(), &mut w);
        encode_slice(family.m_thresholds(), &mut w);
        encode_slice(family.n_thresholds(), &mut w);
        assert!(matches!(
            SketchFamily::from_bytes(&w.into_bytes()),
            Err(StoreError::Malformed(_))
        ));
        // Db-sketch scale lists that disagree (one M scale, two N
        // scales), or an M kind with none. An N kind with none is the
        // legal form of an unsketched half.
        for counts in [[1u64, 2], [0, 0], [0, 1]] {
            let mut w = ByteWriter::new();
            for scales in counts {
                w.put_u32(8);
                w.put_u64(scales);
                w.put_u64(1);
                w.align(8);
                w.put_raw(&vec![0; 8 * scales as usize]);
            }
            assert!(
                matches!(
                    DbSketches::from_bytes(&w.into_bytes()),
                    Err(StoreError::Malformed(_))
                ),
                "{counts:?}"
            );
        }
    }
}
