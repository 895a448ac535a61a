//! Binary store codecs for the sketching machinery.
//!
//! A persisted index must reproduce its sampled randomness *bit for bit*:
//! the sketch family is the public coins of the instance, and re-sampling
//! from the seed would tie old artifacts to the private stream of
//! whatever `rand` ships with a future build. So the matrices, thresholds
//! and database sketches are all stored literally; the seed rides along
//! inside [`SketchParams`] as provenance, not as the decode path.

use anns_hamming::point::LIMB_BITS;
use anns_store::{decode_capacity, encode_slice, ByteReader, ByteWriter, Codec, StoreError};

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
/// (`docs/STORE_FORMAT.md` §3): a `u64` scale count, then per scale a
/// `u64` sketch count and per sketch a `u32` dim and its limbs.
fn encode_slabs(slabs: &SketchSlabs, points: usize, w: &mut ByteWriter) {
    w.put_u64(slabs.scales.len() as u64);
    for i in 0..slabs.scales.len() as u32 {
        w.put_u64(points as u64);
        for z in 0..points {
            w.put_u32(slabs.rows);
            for &limb in slabs.row(i, z) {
                w.put_u64(limb);
            }
        }
    }
}

/// Decodes one kind written by [`encode_slabs`] into one reservation per
/// scale, returning the slabs and the point count every scale shares.
///
/// Every sketch of the kind must carry the same dim and every scale the
/// same count (the uniform-width rule); a scale's reservation is sized
/// only after `count × (4 + 8·w)` has been checked against the bytes
/// remaining, so hostile counts and dims are a typed error before any
/// allocation. Tail bits past the dim are masked, as `Point::from_limbs`
/// does.
fn decode_slabs(r: &mut ByteReader<'_>) -> Result<(SketchSlabs, usize), StoreError> {
    let scale_count = r.count_prefix(8)?;
    let mut scales = Vec::with_capacity(decode_capacity(
        scale_count,
        std::mem::size_of::<Vec<u64>>(),
    ));
    let mut points = None;
    let mut rows = None;
    for _ in 0..scale_count {
        let count = usize::decode(r)?;
        match points {
            Some(first) if first != count => {
                return Err(StoreError::Malformed(format!(
                    "scale sketches {count} points, an earlier scale of its kind {first}"
                )));
            }
            _ => points = Some(count),
        }
        if count == 0 {
            scales.push(Vec::new());
            continue;
        }
        let dim = r.u32()?;
        if dim == 0 {
            return Err(StoreError::Malformed("sketch dimension 0".into()));
        }
        match rows {
            Some(first) if first != dim => {
                return Err(StoreError::Malformed(format!(
                    "sketch width {dim} differs from {first} earlier in its kind"
                )));
            }
            _ => rows = Some(dim),
        }
        let w = dim.div_ceil(LIMB_BITS) as usize;
        // The first dim is already consumed.
        let need = count.checked_mul(4 + 8 * w).map(|b| b - 4);
        if need.is_none_or(|need| need > r.remaining()) {
            return Err(StoreError::Malformed(format!(
                "{count} sketches of {dim} bits impossible in {} bytes",
                r.remaining()
            )));
        }
        let tail_mask = match dim % LIMB_BITS {
            0 => u64::MAX,
            bits => (1u64 << bits) - 1,
        };
        let mut slab = Vec::with_capacity(count * w);
        for k in 0..count {
            if k > 0 {
                let d = r.u32()?;
                if d != dim {
                    return Err(StoreError::Malformed(format!(
                        "sketch width {d} differs from {dim} earlier in its scale"
                    )));
                }
            }
            for chunk in r.take(8 * w)?.chunks_exact(8) {
                slab.push(u64::from_le_bytes(chunk.try_into().expect("len 8")));
            }
            *slab.last_mut().expect("w ≥ 1") &= tail_mask;
        }
        scales.push(slab);
    }
    let slabs = SketchSlabs {
        rows: rows.unwrap_or(0),
        scales,
    };
    Ok((slabs, points.unwrap_or(0)))
}

impl Codec for DbSketches {
    fn encode(&self, w: &mut ByteWriter) {
        encode_slabs(self.m_slabs(), self.len(), w);
        encode_slabs(self.n_slabs(), self.len(), w);
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

    #[test]
    fn db_sketches_encode_the_per_sketch_layout() {
        // Pins the bytes against a hand-encoded reference in the stored
        // layout: per kind a u64 scale count, per scale a u64 point count,
        // per sketch a u32 dim and its limbs.
        let mut rng = StdRng::seed_from_u64(8);
        let ds = gen::uniform(5, 64, &mut rng);
        let family = SketchFamily::generate(64, 5, &SketchParams::practical(2.0, 4));
        let db = DbSketches::build(&family, &ds, 1);
        let mut w = ByteWriter::new();
        for mats in [family.m_matrices(), family.n_matrices()] {
            w.put_u64(mats.len() as u64);
            for mat in mats {
                w.put_u64(ds.len() as u64);
                for x in ds.points() {
                    mat.sketch(x).as_point().encode(&mut w);
                }
            }
        }
        assert_eq!(db.to_bytes(), w.into_bytes());
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
        // Mismatched db-sketch scale lists: one empty M scale, no N scales.
        let mut w = ByteWriter::new();
        w.put_u64(1);
        w.put_u64(0);
        w.put_u64(0);
        assert!(matches!(
            DbSketches::from_bytes(&w.into_bytes()),
            Err(StoreError::Malformed(_))
        ));
    }
}
