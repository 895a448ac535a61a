//! Order statistics behind every reported number.

pub use anns_engine::percentile;

/// A slice of the sliced p99 holds at least this many completions.
pub const SLICE_MIN: usize = 1000;
/// The sliced p99 never uses more than this many slices.
pub const SLICE_MAX: usize = 5;

/// How many slices a phase with `n` completions is cut into: as many
/// slices of at least [`SLICE_MIN`] as fit, capped at [`SLICE_MAX`], and
/// one slice when even that one is short.
pub fn slice_count(n: usize) -> usize {
    (n / SLICE_MIN).clamp(1, SLICE_MAX)
}

/// The p99 reported for a phase. `samples` are in due order; they are
/// cut into [`slice_count`] contiguous, most-equal slices, each slice's
/// nearest-rank p99 is taken, and the median of those is returned. One
/// scheduler hiccup then lands in one slice instead of moving the whole
/// phase's tail.
pub fn sliced_p99(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let k = slice_count(samples.len());
    let n = samples.len();
    let p99s: Vec<f64> = (0..k)
        .map(|i| {
            let mut slice = samples[i * n / k..(i + 1) * n / k].to_vec();
            slice.sort_unstable();
            percentile(&slice, 0.99) as f64
        })
        .collect();
    median(&p99s)
}

/// Median; the mean of the two middle values for an even count, 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile, exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method)
/// computes them, so `compare` agrees with an outside check. With fewer
/// than two values every quartile is the single value (or 0).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let (n, m) = (4i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        // Signed: clamping `j` can push it past `i·m/n`.
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        *slot = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    out
}

/// Nearest-rank percentile of unsorted nanosecond samples.
pub fn pct_ns(samples: &[u64], p: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let xs: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(pct_ns(&xs, 0.50), 500);
        assert_eq!(pct_ns(&xs, 0.99), 990);
        assert_eq!(pct_ns(&xs, 1.0), 1000);
        assert_eq!(pct_ns(&[], 0.99), 0);
        // Nearest rank never interpolates: 0.99 of 10 samples is the 10th.
        let ten: Vec<u64> = (1..=10).collect();
        assert_eq!(pct_ns(&ten, 0.99), 10);
    }

    #[test]
    fn slices_hold_at_least_a_thousand_and_at_most_five() {
        assert_eq!(slice_count(0), 1);
        assert_eq!(slice_count(999), 1);
        assert_eq!(slice_count(1999), 1);
        assert_eq!(slice_count(2000), 2);
        assert_eq!(slice_count(4999), 4);
        assert_eq!(slice_count(5000), 5);
        assert_eq!(slice_count(1_000_000), 5);
    }

    #[test]
    fn sliced_p99_damps_a_hiccup_confined_to_one_slice() {
        // 5000 samples, five slices of 1000. A 60-sample spike (1.2%)
        // owns the whole-phase p99, but only the first slice's.
        let mut xs = vec![1_000u64; 5000];
        for x in xs.iter_mut().take(60) {
            *x = 50_000;
        }
        assert_eq!(pct_ns(&xs, 0.99), 50_000);
        assert_eq!(sliced_p99(&xs), 1_000.0);
        // The same spike spread evenly through every slice is real tail.
        let spread: Vec<u64> = (0..5000)
            .map(|i| if i % 50 == 0 { 50_000 } else { 1_000 })
            .collect();
        assert_eq!(sliced_p99(&spread), 50_000.0);
        // Fewer than 2000 samples: one slice, the plain nearest-rank p99.
        let small: Vec<u64> = (1..=1500).collect();
        assert_eq!(sliced_p99(&small), pct_ns(&small, 0.99) as f64);
    }

    #[test]
    fn even_slice_counts_take_the_middle_mean() {
        // 2000 samples → two slices with p99s 990 and 1990.
        let xs: Vec<u64> = (1..=2000).collect();
        assert_eq!(slice_count(xs.len()), 2);
        assert_eq!(sliced_p99(&xs), (990.0 + 1990.0) / 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
