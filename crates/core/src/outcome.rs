//! Query answers and the cell-content codecs.
//!
//! Table cells carry scheme-defined payloads inside [`Word`]s. Both table
//! backends (concrete lazy oracles, synthetic profile oracles) *encode* with
//! the functions here, and the algorithms *decode* with the matching
//! functions, so the two sides can never drift apart.
//!
//! Encodings (first byte is a tag):
//!
//! * `T_i` cells (also the degenerate-case cells): `[0]` = `EMPTY`;
//!   `[1 | idx:u64 | dim:u32 | limbs…]` = a database point (index + bits,
//!   `O(d)` bits total — the paper's word size); `[2 | idx:u64]` = a point
//!   index without bits (synthetic backend, where points are notional).
//! * Auxiliary cells (Algorithm 2): `[0]` = "no `r` in this group"
//!   (the paper's `s+1` sentinel); `[1 | r:u32]` = smallest in-group `r`
//!   with `|D_{i,ρ(r)}| > n^{-1/s}·|C_i|`.

use anns_cellprobe::Word;
use anns_hamming::Point;

/// What a query returned.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryOutcome {
    /// The classified result.
    pub kind: OutcomeKind,
}

/// Result classification for the ANNS schemes.
#[derive(Clone, Debug, PartialEq)]
pub enum OutcomeKind {
    /// Degenerate case 1: the query itself is a database point (`B_0 ≠ ∅`).
    Exact {
        /// Index of the matching database point.
        index: u64,
    },
    /// Degenerate case 2: a database point within distance 1 (`B_1 ≠ ∅`).
    NearOne {
        /// Index of the near database point.
        index: u64,
        /// The point's bits (present in concrete mode).
        point: Option<Point>,
    },
    /// Main case: a point from the first non-empty `C_{i*}` was returned.
    AtScale {
        /// The scale `i*` the answer was found at.
        scale: u32,
        /// Index of the returned database point.
        index: u64,
        /// The point's bits (present in concrete mode).
        point: Option<Point>,
    },
    /// The search failed (possible only when the Lemma 8 assumptions were
    /// violated by the sampled sketches, or under injected errors).
    NotFound,
}

impl QueryOutcome {
    /// The returned database point index, if the query succeeded.
    pub fn index(&self) -> Option<u64> {
        match &self.kind {
            OutcomeKind::Exact { index } => Some(*index),
            OutcomeKind::NearOne { index, .. } => Some(*index),
            OutcomeKind::AtScale { index, .. } => Some(*index),
            OutcomeKind::NotFound => None,
        }
    }

    /// The returned point bits, if carried.
    pub fn point(&self) -> Option<&Point> {
        match &self.kind {
            OutcomeKind::NearOne { point, .. } => point.as_ref(),
            OutcomeKind::AtScale { point, .. } => point.as_ref(),
            _ => None,
        }
    }

    /// The scale the answer was found at (main case only).
    pub fn scale(&self) -> Option<u32> {
        match &self.kind {
            OutcomeKind::AtScale { scale, .. } => Some(*scale),
            _ => None,
        }
    }
}

/// Encodes a `T_i`-style cell: `EMPTY` or a stored point.
pub fn encode_t_cell(content: Option<(u64, &Point)>) -> Word {
    match content {
        None => Word::from_bytes(vec![0]),
        Some((idx, point)) => {
            let mut bytes = Vec::with_capacity(13 + point.limbs().len() * 8);
            bytes.push(1);
            bytes.extend_from_slice(&idx.to_le_bytes());
            bytes.extend_from_slice(&point.dim().to_le_bytes());
            for limb in point.limbs() {
                bytes.extend_from_slice(&limb.to_le_bytes());
            }
            Word::from_bytes(bytes)
        }
    }
}

/// Encodes a `T_i`-style cell that stores an index without point bits
/// (synthetic backend).
pub fn encode_t_cell_indexed(content: Option<u64>) -> Word {
    match content {
        None => Word::from_bytes(vec![0]),
        Some(idx) => {
            let mut bytes = Vec::with_capacity(9);
            bytes.push(2);
            bytes.extend_from_slice(&idx.to_le_bytes());
            Word::from_bytes(bytes)
        }
    }
}

/// Decodes a `T_i`-style cell: `None` = `EMPTY`, otherwise the stored index
/// and (if carried) the point bits.
///
/// # Panics
/// Panics on malformed payloads — cells are produced by this module's
/// encoders, so corruption is a bug, not an input condition.
pub fn decode_t_cell(word: &Word) -> Option<(u64, Option<Point>)> {
    let bytes = word.bytes();
    match bytes.first() {
        Some(0) => None,
        Some(1) => {
            let idx = u64::from_le_bytes(bytes[1..9].try_into().expect("t-cell index"));
            let dim = u32::from_le_bytes(bytes[9..13].try_into().expect("t-cell dim"));
            let n_limbs = dim.div_ceil(64) as usize;
            let mut limbs = Vec::with_capacity(n_limbs);
            for chunk in bytes[13..13 + n_limbs * 8].chunks_exact(8) {
                limbs.push(u64::from_le_bytes(chunk.try_into().expect("t-cell limb")));
            }
            Some((idx, Some(Point::from_limbs(dim, limbs))))
        }
        Some(2) => {
            let idx = u64::from_le_bytes(bytes[1..9].try_into().expect("t-cell index"));
            Some((idx, None))
        }
        other => panic!("malformed T-cell tag {other:?}"),
    }
}

/// Encodes an auxiliary cell (Algorithm 2): the smallest in-group `r`
/// (1-based) whose `D`-set is large, or `None` for the `s+1` sentinel.
pub fn encode_aux_cell(r: Option<u32>) -> Word {
    match r {
        None => Word::from_bytes(vec![0]),
        Some(r) => {
            let mut bytes = Vec::with_capacity(5);
            bytes.push(1);
            bytes.extend_from_slice(&r.to_le_bytes());
            Word::from_bytes(bytes)
        }
    }
}

/// Decodes an auxiliary cell.
///
/// # Panics
/// Panics on malformed payloads (same contract as [`decode_t_cell`]).
pub fn decode_aux_cell(word: &Word) -> Option<u32> {
    let bytes = word.bytes();
    match bytes.first() {
        Some(0) => None,
        Some(1) => Some(u32::from_le_bytes(
            bytes[1..5].try_into().expect("aux-cell r"),
        )),
        other => panic!("malformed aux-cell tag {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn t_cell_roundtrip_with_point() {
        let mut rng = StdRng::seed_from_u64(1);
        for dim in [1u32, 63, 64, 65, 130, 500] {
            let p = Point::random(dim, &mut rng);
            let word = encode_t_cell(Some((42, &p)));
            let (idx, point) = decode_t_cell(&word).expect("non-empty");
            assert_eq!(idx, 42);
            assert_eq!(point.as_ref(), Some(&p), "dim {dim}");
        }
    }

    #[test]
    fn t_cell_empty_roundtrip() {
        assert_eq!(decode_t_cell(&encode_t_cell(None)), None);
    }

    #[test]
    fn t_cell_indexed_roundtrip() {
        let word = encode_t_cell_indexed(Some(7));
        assert_eq!(decode_t_cell(&word), Some((7, None)));
        assert_eq!(decode_t_cell(&encode_t_cell_indexed(None)), None);
    }

    #[test]
    fn t_cell_word_size_is_o_of_d() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = Point::random(1024, &mut rng);
        let word = encode_t_cell(Some((1, &p)));
        // 1 tag + 8 idx + 4 dim + 128 limbs bytes = 141 bytes ≈ d/8 + O(1).
        assert!(word.bits() <= 1024 + 256, "word {} bits", word.bits());
    }

    #[test]
    fn aux_cell_roundtrip() {
        for r in [None, Some(1), Some(5), Some(u32::MAX)] {
            assert_eq!(decode_aux_cell(&encode_aux_cell(r)), r);
        }
    }

    #[test]
    fn outcome_accessors() {
        let exact = QueryOutcome {
            kind: OutcomeKind::Exact { index: 3 },
        };
        assert_eq!(exact.index(), Some(3));
        assert_eq!(exact.scale(), None);
        let not_found = QueryOutcome {
            kind: OutcomeKind::NotFound,
        };
        assert_eq!(not_found.index(), None);
        let at_scale = QueryOutcome {
            kind: OutcomeKind::AtScale {
                scale: 9,
                index: 4,
                point: None,
            },
        };
        assert_eq!(at_scale.scale(), Some(9));
        assert_eq!(at_scale.index(), Some(4));
        assert!(at_scale.point().is_none());
    }

    #[test]
    #[should_panic]
    fn malformed_t_cell_panics() {
        let _ = decode_t_cell(&Word::from_bytes(vec![9, 9]));
    }
}
