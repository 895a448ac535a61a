//! Bit-packed points of the Hamming cube `{0,1}^d`.
//!
//! A [`Point`] stores its `d` bits in `⌈d/64⌉` little-endian `u64` limbs.
//! The unused high bits of the last limb are kept at zero as an invariant,
//! so equality, hashing and popcount work limb-wise without masking.

use std::fmt;

use rand::Rng;

/// Number of bits per storage limb.
pub const LIMB_BITS: u32 = 64;

/// A point of the Hamming cube `{0,1}^d`, bit-packed into `u64` limbs.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Point {
    dim: u32,
    limbs: Box<[u64]>,
}

impl Point {
    /// The all-zeros point of dimension `dim`.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn zeros(dim: u32) -> Self {
        assert!(dim > 0, "Point dimension must be positive");
        let n_limbs = dim.div_ceil(LIMB_BITS) as usize;
        Point {
            dim,
            limbs: vec![0u64; n_limbs].into_boxed_slice(),
        }
    }

    /// The all-ones point of dimension `dim`.
    pub fn ones(dim: u32) -> Self {
        let mut p = Self::zeros(dim);
        for limb in p.limbs.iter_mut() {
            *limb = u64::MAX;
        }
        p.mask_tail();
        p
    }

    /// Builds a point from a boolean slice (`bits[i]` is coordinate `i`).
    pub fn from_bits(bits: &[bool]) -> Self {
        assert!(!bits.is_empty(), "Point dimension must be positive");
        let mut p = Self::zeros(bits.len() as u32);
        for (i, &b) in bits.iter().enumerate() {
            if b {
                p.set(i as u32, true);
            }
        }
        p
    }

    /// Builds a point by evaluating `f` on every coordinate.
    pub fn from_fn(dim: u32, mut f: impl FnMut(u32) -> bool) -> Self {
        let mut p = Self::zeros(dim);
        for i in 0..dim {
            if f(i) {
                p.set(i, true);
            }
        }
        p
    }

    /// Builds a point directly from limbs; tail bits beyond `dim` are masked.
    pub fn from_limbs(dim: u32, limbs: Vec<u64>) -> Self {
        assert!(dim > 0, "Point dimension must be positive");
        assert_eq!(
            limbs.len(),
            dim.div_ceil(LIMB_BITS) as usize,
            "limb count must match dimension"
        );
        let mut p = Point {
            dim,
            limbs: limbs.into_boxed_slice(),
        };
        p.mask_tail();
        p
    }

    /// A uniformly random point of dimension `dim`.
    pub fn random<R: Rng + ?Sized>(dim: u32, rng: &mut R) -> Self {
        let n_limbs = dim.div_ceil(LIMB_BITS) as usize;
        let mut limbs = Vec::with_capacity(n_limbs);
        for _ in 0..n_limbs {
            limbs.push(rng.gen::<u64>());
        }
        Self::from_limbs(dim, limbs)
    }

    /// Dimension `d` of the ambient cube.
    #[inline]
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Raw limbs (little-endian bit order; tail bits are zero).
    #[inline]
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Reads coordinate `i`.
    #[inline]
    pub fn get(&self, i: u32) -> bool {
        debug_assert!(i < self.dim, "coordinate {i} out of range {}", self.dim);
        let limb = self.limbs[(i / LIMB_BITS) as usize];
        (limb >> (i % LIMB_BITS)) & 1 == 1
    }

    /// Writes coordinate `i`.
    #[inline]
    pub fn set(&mut self, i: u32, value: bool) {
        debug_assert!(i < self.dim, "coordinate {i} out of range {}", self.dim);
        let mask = 1u64 << (i % LIMB_BITS);
        let limb = &mut self.limbs[(i / LIMB_BITS) as usize];
        if value {
            *limb |= mask;
        } else {
            *limb &= !mask;
        }
    }

    /// Flips coordinate `i` in place.
    #[inline]
    pub fn flip(&mut self, i: u32) {
        debug_assert!(i < self.dim, "coordinate {i} out of range {}", self.dim);
        self.limbs[(i / LIMB_BITS) as usize] ^= 1u64 << (i % LIMB_BITS);
    }

    /// Returns a copy with coordinate `i` flipped.
    pub fn flipped(&self, i: u32) -> Self {
        let mut p = self.clone();
        p.flip(i);
        p
    }

    /// Hamming weight (number of ones).
    #[inline]
    pub fn weight(&self) -> u32 {
        self.limbs.iter().map(|l| l.count_ones()).sum()
    }

    /// Hamming distance to `other`.
    ///
    /// This is the hot loop of the whole workspace: XOR + popcount over the
    /// shared limbs, no allocation, no branches.
    ///
    /// # Panics
    /// Panics if dimensions differ.
    #[inline]
    pub fn distance(&self, other: &Point) -> u32 {
        assert_eq!(self.dim, other.dim, "distance between mismatched dims");
        let mut acc = 0u32;
        for (a, b) in self.limbs.iter().zip(other.limbs.iter()) {
            acc += (a ^ b).count_ones();
        }
        acc
    }

    /// XORs `other` into `self` (coordinate-wise addition over GF(2)).
    pub fn xor_assign(&mut self, other: &Point) {
        assert_eq!(self.dim, other.dim, "xor between mismatched dims");
        for (a, b) in self.limbs.iter_mut().zip(other.limbs.iter()) {
            *a ^= *b;
        }
    }

    /// Parity of the AND with `other` — the GF(2) inner product `⟨self, other⟩`.
    ///
    /// This is how one row of a sketch matrix maps a point to one sketch bit.
    #[inline]
    pub fn inner_product_parity(&self, other: &Point) -> bool {
        assert_eq!(self.dim, other.dim, "inner product between mismatched dims");
        // Parity is linear: fold the ANDed limbs, then one popcount.
        let folded = self
            .limbs
            .iter()
            .zip(other.limbs.iter())
            .fold(0u64, |acc, (a, b)| acc ^ (a & b));
        folded.count_ones() & 1 == 1
    }

    /// Iterator over the indices of set coordinates, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = u32> + '_ {
        self.limbs.iter().enumerate().flat_map(|(li, &limb)| {
            let base = li as u32 * LIMB_BITS;
            IterOnesLimb { limb, base }
        })
    }

    /// The point's coordinates as a boolean vector.
    pub fn to_bits(&self) -> Vec<bool> {
        (0..self.dim).map(|i| self.get(i)).collect()
    }

    /// Zeroes the storage bits beyond `dim` (invariant restoration).
    fn mask_tail(&mut self) {
        let rem = self.dim % LIMB_BITS;
        if rem != 0 {
            if let Some(last) = self.limbs.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

struct IterOnesLimb {
    limb: u64,
    base: u32,
}

impl Iterator for IterOnesLimb {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.limb == 0 {
            return None;
        }
        let tz = self.limb.trailing_zeros();
        self.limb &= self.limb - 1;
        Some(self.base + tz)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.limb.count_ones() as usize;
        (n, Some(n))
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point(d={}, ", self.dim)?;
        if self.dim <= 128 {
            for i in 0..self.dim {
                write!(f, "{}", self.get(i) as u8)?;
            }
        } else {
            write!(f, "weight={}", self.weight())?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_ones_weights() {
        for d in [1u32, 7, 63, 64, 65, 100, 128, 1000] {
            assert_eq!(Point::zeros(d).weight(), 0);
            assert_eq!(Point::ones(d).weight(), d, "ones weight at d={d}");
        }
    }

    #[test]
    fn tail_mask_invariant_after_ones() {
        let p = Point::ones(65);
        assert_eq!(p.limbs()[1], 1, "tail bits must be masked");
    }

    #[test]
    fn set_get_flip_roundtrip() {
        let mut p = Point::zeros(130);
        p.set(0, true);
        p.set(64, true);
        p.set(129, true);
        assert!(p.get(0) && p.get(64) && p.get(129));
        assert_eq!(p.weight(), 3);
        p.flip(64);
        assert!(!p.get(64));
        assert_eq!(p.weight(), 2);
        p.flip(64);
        assert_eq!(p.weight(), 3);
    }

    #[test]
    fn distance_is_metric_on_samples() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let d = rng.gen_range(1..300);
            let a = Point::random(d, &mut rng);
            let b = Point::random(d, &mut rng);
            let c = Point::random(d, &mut rng);
            assert_eq!(a.distance(&a), 0);
            assert_eq!(a.distance(&b), b.distance(&a));
            assert!(a.distance(&c) <= a.distance(&b) + b.distance(&c));
        }
    }

    #[test]
    fn distance_counts_flips_exactly() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = Point::random(257, &mut rng);
        let mut b = a.clone();
        let mut flipped = std::collections::HashSet::new();
        while flipped.len() < 40 {
            let i = rng.gen_range(0..257);
            if flipped.insert(i) {
                b.flip(i);
            }
        }
        assert_eq!(a.distance(&b), 40);
    }

    #[test]
    fn xor_assign_matches_distance() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Point::random(200, &mut rng);
        let b = Point::random(200, &mut rng);
        let mut x = a.clone();
        x.xor_assign(&b);
        assert_eq!(x.weight(), a.distance(&b));
    }

    #[test]
    fn inner_product_parity_matches_naive() {
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..30 {
            let d = rng.gen_range(1..200);
            let a = Point::random(d, &mut rng);
            let b = Point::random(d, &mut rng);
            let naive = (0..d).filter(|&i| a.get(i) && b.get(i)).count() % 2 == 1;
            assert_eq!(a.inner_product_parity(&b), naive);
        }
    }

    #[test]
    fn iter_ones_matches_get() {
        let mut rng = StdRng::seed_from_u64(11);
        let p = Point::random(300, &mut rng);
        let ones: Vec<u32> = p.iter_ones().collect();
        let expect: Vec<u32> = (0..300).filter(|&i| p.get(i)).collect();
        assert_eq!(ones, expect);
    }

    #[test]
    fn from_bits_roundtrip() {
        let mut rng = StdRng::seed_from_u64(12);
        let p = Point::random(99, &mut rng);
        assert_eq!(Point::from_bits(&p.to_bits()), p);
    }

    #[test]
    fn from_fn_matches_from_bits() {
        let bits: Vec<bool> = (0..77).map(|i| i % 3 == 0).collect();
        assert_eq!(Point::from_fn(77, |i| i % 3 == 0), Point::from_bits(&bits));
    }

    #[test]
    #[should_panic]
    fn mismatched_distance_panics() {
        let a = Point::zeros(10);
        let b = Point::zeros(11);
        let _ = a.distance(&b);
    }
}
