//! The load generator: fixed-rate open-loop schedules and the seeded
//! query streams they send.

use std::time::{Duration, Instant};

use anns_hamming::{gen, Dataset, Point};
use rand::rngs::StdRng;
use rand::Rng;

/// Time as the load generator sees it: nanoseconds since the run began,
/// and a way to wait for a due time. Tests substitute a fake clock.
pub trait Pacer {
    /// Nanoseconds since the run's epoch.
    fn now_ns(&self) -> u64;
    /// Blocks until `t_ns`; returns at once if it has passed.
    fn sleep_until(&self, t_ns: u64);
}

/// The wall clock, counted from the instant the run started.
pub struct RealPacer {
    epoch: Instant,
}

impl RealPacer {
    /// A pacer whose zero is `epoch`.
    pub fn new(epoch: Instant) -> Self {
        RealPacer { epoch }
    }

    /// Converts an instant to run nanoseconds.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

impl Pacer for RealPacer {
    fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    fn sleep_until(&self, t_ns: u64) {
        let now = self.now_ns();
        if t_ns > now {
            std::thread::sleep(Duration::from_nanos(t_ns - now));
        }
    }
}

/// Walks the merged fixed-rate schedule of every lane over
/// `[start_ns, start_ns + duration_ns)`: lane `k`'s `i`-th request is due
/// at `start_ns + i / rates[k]`. Each request is handed to
/// `send(lane, due_ns)` once its due time arrives. When the sender stalls
/// past later due times, those requests are sent at once, never skipped,
/// so a stall is charged to every request it delayed (latency is timed
/// from the due time, not the send time). Returns requests sent.
pub fn open_loop(
    pacer: &dyn Pacer,
    rates: &[f64],
    start_ns: u64,
    duration_ns: u64,
    mut send: impl FnMut(usize, u64),
) -> u64 {
    let end_ns = start_ns + duration_ns;
    let due = |lane: usize, i: u64| start_ns + (i as f64 * 1e9 / rates[lane]) as u64;
    let mut next = vec![0u64; rates.len()];
    let mut sent = 0;
    loop {
        let pick = (0..rates.len())
            .filter(|&k| rates[k] > 0.0)
            .map(|k| (due(k, next[k]), k))
            .filter(|&(t, _)| t < end_ns)
            .min();
        let Some((due_ns, lane)) = pick else {
            return sent;
        };
        pacer.sleep_until(due_ns);
        send(lane, due_ns);
        next[lane] += 1;
        sent += 1;
    }
}

/// Zipf(`s`) over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n ≥ 1` ranks.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "zipf needs at least one rank");
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The `i`-th query of the half-near, half-uniform mix: even `i` is a
/// point at distance `flips` from a random point of `data[(i / 2) %
/// data.len()]` (a query with a near neighbor), odd `i` a uniform point
/// (one without).
pub fn mixed_query(data: &[&Dataset], i: u64, flips: u32, rng: &mut StdRng) -> Point {
    let d = data[0].dim();
    if i % 2 == 1 {
        return Point::random(d, rng);
    }
    let set = data[(i / 2) as usize % data.len()];
    let base = rng.gen_range(0..set.len());
    gen::point_at_distance(set.point(base), flips.min(d), rng)
}

/// `count` distinct queries of the [`mixed_query`] mix.
pub fn query_set(data: &[&Dataset], count: usize, flips: u32, rng: &mut StdRng) -> Vec<Point> {
    (0..count as u64)
        .map(|i| mixed_query(data, i, flips, rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    use rand::SeedableRng;

    /// Virtual time: sleeping jumps the clock to the due time, and the
    /// sender can burn time to model a stall.
    struct FakePacer(Cell<u64>);

    impl Pacer for FakePacer {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn sleep_until(&self, t_ns: u64) {
            if t_ns > self.0.get() {
                self.0.set(t_ns);
            }
        }
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn a_stall_is_charged_to_the_requests_it_delays() {
        // 1000 q/s for 50 ms; request 10 stalls the sender for 20 ms.
        let pacer = FakePacer(Cell::new(0));
        let mut late = Vec::new();
        let sent = open_loop(&pacer, &[1000.0], 0, 50 * MS, |_, due| {
            late.push(pacer.now_ns() - due);
            if late.len() == 11 {
                pacer.0.set(pacer.0.get() + 20 * MS);
            }
        });
        assert_eq!(sent, 50, "nothing skipped: the schedule is the schedule");
        assert!(late[..=10].iter().all(|&l| l == 0));
        // Request 11 was due 1 ms after the stall began: 19 ms late; each
        // later one a millisecond less, until the backlog is gone.
        assert_eq!(late[11], 19 * MS);
        assert_eq!(late[12], 18 * MS);
        assert_eq!(late[29], MS);
        assert!(late[30..].iter().all(|&l| l == 0));
    }

    #[test]
    fn lanes_merge_in_due_order() {
        let pacer = FakePacer(Cell::new(0));
        let mut seen = Vec::new();
        open_loop(&pacer, &[100.0, 250.0], 0, 20 * MS, |lane, due| {
            seen.push((due, lane));
        });
        assert_eq!(seen.iter().filter(|s| s.1 == 0).count(), 2);
        assert_eq!(seen.iter().filter(|s| s.1 == 1).count(), 5);
        assert!(seen.windows(2).all(|w| w[0].0 <= w[1].0));
        // A lane at rate 0 sends nothing.
        let n = open_loop(&pacer, &[0.0, 100.0], 0, 20 * MS, |lane, _| {
            assert_eq!(lane, 1)
        });
        assert_eq!(n, 2);
    }

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let z = Zipf::new(256, 1.0);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..4096).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let xs = draw(3);
        assert!(xs.iter().all(|&r| r < 256));
        let top = xs.iter().filter(|&&r| r == 0).count();
        let tail = xs.iter().filter(|&&r| r == 255).count();
        // P(rank 0) = 1/H_256 ≈ 0.16; P(rank 255) ≈ 0.0006.
        assert!(top > 500 && tail < 20, "top {top}, tail {tail}");
    }

    #[test]
    fn query_sets_are_deterministic_and_half_near() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = gen::uniform(64, 128, &mut rng);
        let make = |seed| query_set(&[&data], 32, 6, &mut StdRng::seed_from_u64(seed));
        assert_eq!(make(9), make(9));
        assert_ne!(make(9), make(10));
        let near = make(9)
            .iter()
            .filter(|q| data.points().iter().any(|p| p.distance(q) == 6))
            .count();
        assert_eq!(near, 16, "even positions sit at distance 6 from the data");
    }
}
