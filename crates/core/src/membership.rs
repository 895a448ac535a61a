//! The degenerate-case membership oracle behind the `DEGEN_EXACT` and
//! `DEGEN_N1` cells (paper §3.1): database row numbers in an
//! open-addressing table keyed by a hash of the point's limbs.
//!
//! The table holds no point. It has `next_pow2(2n)` slots of one `u32`
//! row number and one `u32` hash tag each (8 bytes), so it is at most
//! half full and every probe chain ends at a vacant slot. Every candidate
//! a probe meets is checked against the dataset row's limbs, so a hash
//! collision costs time and never changes an answer. Rows are inserted in
//! order and a row equal to an earlier one is skipped: a duplicated
//! point resolves to its first row.
//!
//! The hash of a point is the XOR of a per-limb mixer `H_l(limb)`.
//! Flipping bit `i` changes only limb `i/64`, so the hash of each of a
//! point's `d` neighbours follows from the point's own hash with one limb
//! rehash, and the `N1(B)` oracle visits them reading the key's limbs in
//! place, building no point and allocating nothing. Each `H_l` is a
//! bijection of `u64`, so two points that differ in one limb never share
//! a hash.
//!
//! The mixer is fixed, not seeded: a database crafted against it can
//! lengthen probe chains. That costs time only (`docs/ROBUSTNESS.md`).

use anns_hamming::point::LIMB_BITS;
use anns_hamming::Dataset;

/// The `row` of a slot that holds no row.
const VACANT: u32 = u32::MAX;

/// One table slot: a row number and the high half of its point's hash.
#[derive(Clone, Copy)]
struct Slot {
    row: u32,
    tag: u32,
}

/// `H_l`: the splitmix64 finaliser of the limb offset by a key for its
/// position `l`; a bijection of `u64` for every `l`.
#[inline]
fn limb_hash(l: usize, limb: u64) -> u64 {
    let mut z = limb ^ (l as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The hash of a point: the XOR of `H_l` over its limbs.
fn point_hash(limbs: impl Iterator<Item = u64>) -> u64 {
    limbs
        .enumerate()
        .fold(0, |hash, (l, limb)| hash ^ limb_hash(l, limb))
}

/// A point of dimension `dim` read in place from the little-endian limb
/// bytes of an address key, its tail bits masked as `Point::from_limbs`
/// masks them.
struct KeyLimbs<'a> {
    bytes: &'a [u8],
    dim: u32,
}

impl KeyLimbs<'_> {
    fn len(&self) -> usize {
        self.dim.div_ceil(LIMB_BITS) as usize
    }

    /// Bits of limb `l` that lie inside the point.
    fn bits(&self, l: usize) -> u32 {
        (self.dim - l as u32 * LIMB_BITS).min(LIMB_BITS)
    }

    #[inline]
    fn get(&self, l: usize) -> u64 {
        let limb = u64::from_le_bytes(self.bytes[8 * l..8 * l + 8].try_into().expect("key limb"));
        match self.bits(l) {
            LIMB_BITS => limb,
            bits => limb & ((1 << bits) - 1),
        }
    }

    fn hash(&self) -> u64 {
        point_hash((0..self.len()).map(|l| self.get(l)))
    }

    /// Whether `row` equals this point with limb `l` replaced by `limb`.
    #[inline]
    fn equals_with(&self, row: &[u64], l: usize, limb: u64) -> bool {
        row[l] == limb && (0..row.len()).all(|k| k == l || row[k] == self.get(k))
    }
}

/// Row numbers of a dataset's distinct points, found by point.
pub(crate) struct RowIndex {
    /// `next_pow2(2n)` slots.
    slots: Box<[Slot]>,
}

impl RowIndex {
    /// Indexes every row of `dataset`; a row equal to an earlier one is
    /// skipped, so each point maps to its first row.
    ///
    /// # Panics
    /// Panics if the dataset has `u32::MAX` rows or more.
    pub(crate) fn build(dataset: &Dataset) -> Self {
        let n = dataset.len();
        assert!(n < VACANT as usize, "{n} rows do not fit u32 row numbers");
        let vacant = Slot {
            row: VACANT,
            tag: 0,
        };
        let mut index = RowIndex {
            slots: vec![vacant; (2 * n).next_power_of_two()].into_boxed_slice(),
        };
        for (row, point) in dataset.points().iter().enumerate() {
            let hash = point_hash(point.limbs().iter().copied());
            let probe = index.probe(dataset, hash, |other| other == point.limbs());
            if let Err(slot) = probe {
                index.slots[slot] = Slot {
                    row: row as u32,
                    tag: (hash >> 32) as u32,
                };
            }
        }
        index
    }

    /// Walks `hash`'s probe chain: `Ok` with the first row whose tag
    /// matches and whose limbs satisfy `is_key`, or `Err` with the vacant
    /// slot that ends the chain.
    #[inline]
    fn probe(
        &self,
        dataset: &Dataset,
        hash: u64,
        is_key: impl Fn(&[u64]) -> bool,
    ) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let tag = (hash >> 32) as u32;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.row == VACANT {
                return Err(i);
            }
            let row = slot.row as usize;
            if slot.tag == tag && is_key(dataset.point(row).limbs()) {
                return Ok(row);
            }
            i = (i + 1) & mask;
        }
    }

    /// The first row equal to the point whose `dataset.dim()` bits `key`
    /// holds as little-endian limbs (tail bits ignored), if any.
    pub(crate) fn find(&self, dataset: &Dataset, key: &[u8]) -> Option<usize> {
        let key = KeyLimbs {
            bytes: key,
            dim: dataset.dim(),
        };
        self.find_exact(dataset, &key, key.hash())
    }

    /// The `N1(B)` oracle: the first row equal to the key point, else the
    /// first row at distance 1 from it, for the lowest flipped coordinate.
    pub(crate) fn find_near_one(&self, dataset: &Dataset, key: &[u8]) -> Option<usize> {
        let key = KeyLimbs {
            bytes: key,
            dim: dataset.dim(),
        };
        let hash = key.hash();
        if let Some(row) = self.find_exact(dataset, &key, hash) {
            return Some(row);
        }
        for l in 0..key.len() {
            let limb = key.get(l);
            let rest = hash ^ limb_hash(l, limb);
            for bit in 0..key.bits(l) {
                let flipped = limb ^ (1 << bit);
                let probe = self.probe(dataset, rest ^ limb_hash(l, flipped), |row| {
                    key.equals_with(row, l, flipped)
                });
                if let Ok(row) = probe {
                    return Some(row);
                }
            }
        }
        None
    }

    fn find_exact(&self, dataset: &Dataset, key: &KeyLimbs, hash: u64) -> Option<usize> {
        self.probe(dataset, hash, |row| {
            (0..row.len()).all(|l| row[l] == key.get(l))
        })
        .ok()
    }

    /// Heap bytes of the slots.
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limb_hash_is_a_bijection_on_one_bit_flips() {
        // Distinct limbs never share an `H_l`, so single-limb neighbours
        // never share a point hash.
        for l in [0usize, 1, 7] {
            for limb in [0u64, 1, u64::MAX, 0xDEAD_BEEF] {
                for bit in 0..64 {
                    assert_ne!(limb_hash(l, limb), limb_hash(l, limb ^ (1 << bit)));
                }
            }
        }
    }

    #[test]
    fn every_database_of_the_one_dimensional_cube_reads_like_a_first_row_map() {
        use anns_hamming::Point;
        use std::collections::HashMap;
        let bit = |b: u64| Point::from_limbs(1, vec![b]);
        // Every database of 1 to 3 rows over {0, 1}, and both queries.
        for n in 1..=3u32 {
            for rows in 0..1u64 << n {
                let points: Vec<Point> = (0..n).map(|r| bit(rows >> r & 1)).collect();
                let mut first = HashMap::new();
                for (row, p) in points.iter().enumerate() {
                    first.entry(p.clone()).or_insert(row);
                }
                let dataset = Dataset::new(points);
                let index = RowIndex::build(&dataset);
                for q in [0u64, 1] {
                    let exact = first.get(&bit(q)).copied();
                    let near = exact.or_else(|| first.get(&bit(q ^ 1)).copied());
                    let key = q.to_le_bytes();
                    assert_eq!(index.find(&dataset, &key), exact, "rows {rows:b} q {q}");
                    assert_eq!(
                        index.find_near_one(&dataset, &key),
                        near,
                        "rows {rows:b} q {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn slots_are_a_power_of_two_at_least_twice_the_rows() {
        use anns_hamming::Point;
        for n in [1usize, 2, 3, 5, 64, 100] {
            let points = (0..n as u64)
                .map(|i| Point::from_limbs(70, vec![i, i >> 3]))
                .collect();
            let index = RowIndex::build(&Dataset::new(points));
            assert!(index.slots.len().is_power_of_two());
            assert!(index.slots.len() >= 2 * n && index.slots.len() < 4 * n.max(1));
            assert_eq!(index.heap_bytes(), index.slots.len() * 8);
        }
    }
}
