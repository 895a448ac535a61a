//! Served metrics: cumulative engine counters and per-run reports.
//!
//! Probe and round budgets are *served metrics* here, not bench-side
//! accounting: every query's ledger is merged into the engine totals (the
//! aggregate cost actually paid) and checked against its shard scheme's
//! declared budgets, and every coalesced dispatch reports how many
//! submitted probes were saved by deduplication.

use anns_cellprobe::ProbeLedger;

use crate::engine::{EngineOptions, GenerationTrace, Served};

/// A power-of-two bucket histogram over `u64` samples.
///
/// Bucket 0 counts the value 0; bucket `i ≥ 1` counts values in
/// `[2^(i-1), 2^i)`. Coarse on purpose: the online admission path records
/// one sample per enqueue and per served query, so the histogram must be
/// O(1) to update and small to serialize, and queue-depth / wait-time
/// distributions are read at order-of-magnitude resolution anyway.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize)]
pub struct Histogram {
    /// Bucket counts; trailing empty buckets are not materialized.
    pub buckets: Vec<u64>,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (for the exact mean). Saturates at `u64::MAX`
    /// instead of overflowing; [`Histogram::saturated`] records that it
    /// happened.
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
    /// Whether `sum` hit `u64::MAX` and clamped: the mean is a lower
    /// bound from then on, and the report says so instead of silently
    /// serving a wrapped/stuck number as exact.
    pub saturated: bool,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
        self.count += 1;
        let (sum, overflowed) = self.sum.overflowing_add(value);
        self.sum = if overflowed { u64::MAX } else { sum };
        self.saturated |= overflowed;
        self.max = self.max.max(value);
    }

    /// Exact arithmetic mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper edge of the bucket holding the `p`-quantile sample — an
    /// upper bound on the true percentile, exact for `p = 1.0` (which
    /// returns [`Histogram::max`]).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if p >= 1.0 {
            return self.max;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Upper edge of bucket i: 0 for bucket 0, else 2^i − 1 —
                // saturating at bucket 64 (samples ≥ 2^63), where the
                // edge is the whole u64 range.
                let edge = match i {
                    0 => 0,
                    1..=63 => (1u64 << i) - 1,
                    _ => u64::MAX,
                };
                return edge.min(self.max);
            }
        }
        self.max
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        let (sum, overflowed) = self.sum.overflowing_add(other.sum);
        self.sum = if overflowed { u64::MAX } else { sum };
        self.saturated |= overflowed || other.saturated;
        self.max = self.max.max(other.max);
    }
}

/// Usage accounting for one tenant of the serving tier.
///
/// The admission side (`enqueued`, `throttled`, `shed`) is written by
/// [`crate::AdmissionQueue::enqueue_as`] and the network tier's
/// token-bucket gate; the resolution side (`served`, `failed`,
/// `probes`, `wait_hist`) by whoever waits out the tenant's tickets.
/// Every admission-side increment is mirrored by exactly one
/// `tenant_decision` trace event, so a complete trace reconciles with
/// these counters exactly.
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct TenantUsage {
    /// Tenant name (the wire-frame `tenant` field).
    pub tenant: String,
    /// Requests admitted into the shared window.
    pub enqueued: u64,
    /// Requests rejected by the tenant's token bucket (never reached
    /// the shared queue).
    pub throttled: u64,
    /// Requests past the bucket but shed by the shared queue's
    /// capacity bound (`ServeError::Overloaded`).
    pub shed: u64,
    /// Admitted requests that resolved with an answer.
    pub served: u64,
    /// Admitted requests that resolved with a typed error
    /// (`UnknownShard` in the window's epoch, or `Closed`).
    pub failed: u64,
    /// Total probes executed on behalf of this tenant's served queries.
    pub probes: u64,
    /// Per-query admission wait (enqueue → window seal) in clock
    /// nanoseconds.
    pub wait_hist: Histogram,
}

/// Cumulative metrics of the online admission path (all zero when the
/// engine is only driven through `submit_batch`/`submit_named`). Updated
/// by [`crate::AdmissionQueue`]; read through [`crate::Engine::stats`].
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct OnlineStats {
    /// Requests accepted into the admission window.
    pub enqueued: u64,
    /// Requests shed with `ServeError::Overloaded` (the backpressure
    /// path; never silently dropped).
    pub shed: u64,
    /// Windows sealed into generations.
    pub windows: u64,
    /// Windows sealed because they reached `max_generation` queries.
    pub sealed_by_fill: u64,
    /// Windows sealed because the oldest waiter hit `max_wait`.
    pub sealed_by_deadline: u64,
    /// Partial windows flushed by queue shutdown.
    pub sealed_by_drain: u64,
    /// Queue depth observed after each successful enqueue.
    pub depth_hist: Histogram,
    /// Window fill (queries per sealed window).
    pub fill_hist: Histogram,
    /// Per-query admission wait in nanoseconds (enqueue → seal), on the
    /// queue's [`crate::Clock`] — virtual time in tests.
    pub wait_hist: Histogram,
    /// Per-tenant usage accounting (empty unless the tenant-aware
    /// serving tier is in front — `enqueue_as` with a tenant, or the
    /// `anns-server` network front). Sorted by first sight, not name.
    pub tenants: Vec<TenantUsage>,
}

impl OnlineStats {
    /// The usage row for `tenant`, created zeroed on first sight.
    pub fn tenant_mut(&mut self, tenant: &str) -> &mut TenantUsage {
        if let Some(idx) = self.tenants.iter().position(|u| u.tenant == tenant) {
            return &mut self.tenants[idx];
        }
        self.tenants.push(TenantUsage {
            tenant: tenant.to_string(),
            ..TenantUsage::default()
        });
        self.tenants.last_mut().expect("just pushed")
    }
}

/// Cumulative counters since the engine was built.
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct EngineStats {
    /// Queries served.
    pub queries: u64,
    /// Generations executed.
    pub generations: u64,
    /// Coalesced dispatches (generation-rounds) executed.
    pub dispatches: u64,
    /// Probe addresses submitted by queries.
    pub probes_submitted: u64,
    /// Unique probes executed after per-shard coalescing.
    pub probes_executed: u64,
    /// Sum of per-query round counts.
    pub rounds_total: u64,
    /// Worst per-query round count seen.
    pub rounds_max: u64,
    /// Worst per-query probe total seen.
    pub probes_max: u64,
    /// Queries that exceeded their shard scheme's declared budgets.
    pub budget_violations: u64,
    /// Mount-table epochs the engine has progressed through (1 when no
    /// hot swap happened; each swap observed by a generation adds one).
    /// Counted at the monotonic high-water mark: a straggler generation
    /// finishing on an *older* epoch after a newer one was absorbed is
    /// part of an already-counted epoch and does not change the count —
    /// so under interleaved absorption this is "epochs advanced to",
    /// not a census of every epoch any generation ever pinned.
    pub epochs_served: u64,
    /// Newest epoch any generation has pinned.
    pub last_epoch: u64,
    /// Aggregate ledger over all served queries (element-wise per-round
    /// sums — the engine's total bill, not the paper's worst case).
    pub merged_ledger: ProbeLedger,
    /// Online admission metrics (queue depth, window fill, admission
    /// wait); all zero for batch-submitted serving.
    pub online: OnlineStats,
}

impl EngineStats {
    /// Folds one generation's results into the totals.
    pub(crate) fn absorb(&mut self, served: &[Served], trace: &GenerationTrace) {
        if self.generations == 0 || trace.epoch > self.last_epoch {
            self.epochs_served += 1;
            self.last_epoch = trace.epoch;
        }
        self.queries += served.len() as u64;
        self.generations += 1;
        self.dispatches += trace.dispatches.len() as u64;
        for dispatch in &trace.dispatches {
            self.probes_submitted += dispatch.submitted as u64;
            self.probes_executed += dispatch.executed as u64;
        }
        for s in served {
            self.rounds_total += s.ledger.rounds() as u64;
            self.rounds_max = self.rounds_max.max(s.ledger.rounds() as u64);
            self.probes_max = self.probes_max.max(s.ledger.total_probes() as u64);
            if !s.within_budget {
                self.budget_violations += 1;
            }
            self.merged_ledger.merge(&s.ledger);
        }
    }

    /// Fraction of submitted probes actually executed (1.0 = nothing
    /// coalesced away, 0.25 = four-fold sharing).
    pub fn coalescing_ratio(&self) -> f64 {
        if self.probes_submitted == 0 {
            1.0
        } else {
            self.probes_executed as f64 / self.probes_submitted as f64
        }
    }
}

/// Latency summary in microseconds.
#[derive(Clone, Copy, Debug, serde::Serialize, serde::Deserialize)]
pub struct LatencySummary {
    /// Median.
    pub p50_us: f64,
    /// 90th percentile.
    pub p90_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Maximum.
    pub max_us: f64,
    /// Arithmetic mean.
    pub mean_us: f64,
}

impl LatencySummary {
    /// Summarizes a set of per-query latencies (nanoseconds).
    pub fn from_ns(samples: &[u64]) -> Self {
        let mut sorted: Vec<u64> = samples.to_vec();
        sorted.sort_unstable();
        let us = |ns: u64| ns as f64 / 1e3;
        let mean = if sorted.is_empty() {
            0.0
        } else {
            sorted.iter().map(|&ns| us(ns)).sum::<f64>() / sorted.len() as f64
        };
        LatencySummary {
            p50_us: us(percentile(&sorted, 0.50)),
            p90_us: us(percentile(&sorted, 0.90)),
            p99_us: us(percentile(&sorted, 0.99)),
            max_us: us(sorted.last().copied().unwrap_or(0)),
            mean_us: mean,
        }
    }
}

/// Nearest-rank percentile over an ascending-sorted slice; 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// One serving run, summarized for JSON emission (`annsctl serve` /
/// `annsctl bench-serve` / CI perf artifacts). Deserializable so a
/// written report can be read back.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct ServeReport {
    /// What was served (shard name or comparison label).
    pub label: String,
    /// Queries in the run.
    pub queries: u64,
    /// Generation width the engine ran with (0 for non-engine baselines).
    pub generation: u64,
    /// Worker threads per coalesced shard batch, *as clamped by
    /// `Engine::new` to the machine's available parallelism* — the
    /// effective value, not the requested one (0 for non-engine
    /// baselines).
    pub batch_threads: u64,
    /// Cache-block tile size of the engine's batched table reads
    /// (`ExecOptions::probe_tile`; 0 for untiled or non-engine baselines).
    pub probe_tile: u64,
    /// Wall-clock for the whole run, milliseconds.
    pub wall_ms: f64,
    /// Queries per second over the run.
    pub qps: f64,
    /// Per-query latency summary.
    pub latency: LatencySummary,
    /// Mean probes per query.
    pub probes_per_query: f64,
    /// Worst per-query probe total.
    pub probes_max: u64,
    /// Mean rounds per query.
    pub rounds_per_query: f64,
    /// Worst per-query round count.
    pub rounds_max: u64,
    /// Probe addresses submitted by queries.
    pub probes_submitted: u64,
    /// Unique probes executed after coalescing (equals `probes_submitted`
    /// for solo/per-query execution).
    pub probes_executed: u64,
    /// `probes_executed / probes_submitted`.
    pub coalescing_ratio: f64,
    /// Queries that blew their declared budgets.
    pub budget_violations: u64,
    /// Queries whose answer carried a database point.
    pub answered: u64,
    /// Admission-wait summary (enqueue → window seal) for online runs;
    /// all-zero for batch runs, where requests never wait in a queue.
    pub wait: LatencySummary,
    /// Trace events the run's recorder accepted (0 with tracing off).
    pub trace_events: u64,
    /// Trace events the bounded ring evicted (drop-oldest; 0 means the
    /// trace artifact is complete).
    pub trace_dropped: u64,
    /// Store backend the served bundle was mounted through (`"heap"` or
    /// `"mmap"`; `None` for runs without a bundle mount, and for
    /// artifacts written before backends existed).
    pub store_backend: Option<String>,
    /// Wall-clock of the bundle mount, milliseconds.
    pub mount_ms: Option<f64>,
    /// Bytes read eagerly at mount (see `MountManifest::eager_bytes`).
    pub mount_eager_bytes: Option<u64>,
    /// Total section payload bytes of the mounted bundle on disk.
    pub mount_file_bytes: Option<u64>,
    /// Process resident-set size when the report was built — the
    /// working-set number the mmap backend keeps proportional to the
    /// queried shards (`None` where procfs is unavailable).
    pub rss_bytes: Option<u64>,
}

impl ServeReport {
    /// Builds a report from one engine run.
    pub fn from_run(
        label: impl Into<String>,
        served: &[Served],
        traces: &[GenerationTrace],
        wall: std::time::Duration,
    ) -> Self {
        let latencies: Vec<u64> = served.iter().map(|s| s.latency_ns).collect();
        let queries = served.len() as u64;
        let probes_total: u64 = served.iter().map(|s| s.ledger.total_probes() as u64).sum();
        let rounds_total: u64 = served.iter().map(|s| s.ledger.rounds() as u64).sum();
        let (mut submitted, mut executed) = (0u64, 0u64);
        for trace in traces {
            for d in &trace.dispatches {
                submitted += d.submitted as u64;
                executed += d.executed as u64;
            }
        }
        let wall_s = wall.as_secs_f64();
        ServeReport {
            label: label.into(),
            queries,
            generation: 0,
            batch_threads: 0,
            probe_tile: 0,
            wall_ms: wall_s * 1e3,
            qps: if wall_s > 0.0 {
                queries as f64 / wall_s
            } else {
                0.0
            },
            latency: LatencySummary::from_ns(&latencies),
            probes_per_query: if queries == 0 {
                0.0
            } else {
                probes_total as f64 / queries as f64
            },
            probes_max: served
                .iter()
                .map(|s| s.ledger.total_probes() as u64)
                .max()
                .unwrap_or(0),
            rounds_per_query: if queries == 0 {
                0.0
            } else {
                rounds_total as f64 / queries as f64
            },
            rounds_max: served
                .iter()
                .map(|s| s.ledger.rounds() as u64)
                .max()
                .unwrap_or(0),
            probes_submitted: submitted,
            probes_executed: executed,
            coalescing_ratio: if submitted == 0 {
                1.0
            } else {
                executed as f64 / submitted as f64
            },
            budget_violations: served.iter().filter(|s| !s.within_budget).count() as u64,
            answered: served.iter().filter(|s| s.answer.index().is_some()).count() as u64,
            wait: LatencySummary::from_ns(&[]),
            trace_events: 0,
            trace_dropped: 0,
            store_backend: None,
            mount_ms: None,
            mount_eager_bytes: None,
            mount_file_bytes: None,
            rss_bytes: None,
        }
    }

    /// Stamps the effective engine options into the report (after the
    /// `Engine::new` parallelism clamp — what actually ran).
    pub fn with_options(mut self, opts: &EngineOptions) -> Self {
        self.generation = opts.generation as u64;
        self.batch_threads = opts.batch_threads as u64;
        self.probe_tile = opts.exec.probe_tile as u64;
        self
    }

    /// Stamps the admission-wait summary from per-query waits (ns).
    pub fn with_wait(mut self, wait_ns: &[u64]) -> Self {
        self.wait = LatencySummary::from_ns(wait_ns);
        self
    }

    /// Stamps the run's trace-recorder totals (events accepted, events
    /// the bounded ring dropped).
    pub fn with_trace(mut self, counters: anns_obs::TraceCounters) -> Self {
        self.trace_events = counters.events;
        self.trace_dropped = counters.dropped;
        self
    }

    /// Stamps the bundle's mount provenance (backend, mount time, eager
    /// vs file bytes) and the process RSS at report time.
    pub fn with_backend(mut self, manifest: &crate::mount::MountManifest) -> Self {
        self.store_backend = Some(manifest.backend.to_string());
        self.mount_ms = Some(manifest.mount_ms);
        self.mount_eager_bytes = Some(manifest.eager_bytes);
        self.mount_file_bytes = Some(manifest.file_bytes);
        self.rss_bytes = match crate::mount::current_rss_bytes() {
            0 => None,
            rss => Some(rss),
        };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 0.50), 50);
        assert_eq!(percentile(&xs, 0.99), 99);
        assert_eq!(percentile(&xs, 1.0), 100);
        assert_eq!(percentile(&xs, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.5), 7);
    }

    #[test]
    fn latency_summary_orders_percentiles() {
        let ns: Vec<u64> = (0..1000).map(|i| (i * 1000) as u64).collect();
        let s = LatencySummary::from_ns(&ns);
        assert!(s.p50_us <= s.p90_us && s.p90_us <= s.p99_us && s.p99_us <= s.max_us);
        assert!(s.mean_us > 0.0);
    }

    #[test]
    fn empty_stats_have_unit_coalescing_ratio() {
        let stats = EngineStats::default();
        assert_eq!(stats.coalescing_ratio(), 1.0);
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1010);
        assert_eq!(h.max, 1000);
        // 0 → bucket 0, 1 → bucket 1, 2..4 → bucket 2, 4..8 → bucket 3,
        // 1000 → bucket 10.
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.buckets[10], 1);
        assert_eq!(h.mean(), 1010.0 / 6.0);
    }

    #[test]
    fn histogram_percentiles_bound_the_samples() {
        let mut h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        // p50 of 1..=100 lives in bucket 6 ([32, 64)); the reported upper
        // edge bounds the true percentile from above.
        assert!(h.percentile(0.5) >= 50);
        assert!(h.percentile(0.5) <= 63);
        assert_eq!(h.percentile(1.0), 100);
        assert_eq!(Histogram::default().percentile(0.9), 0);
        // Top bucket (samples ≥ 2^63): the edge saturates, no overflow.
        let mut top = Histogram::default();
        top.record(u64::MAX);
        top.record(u64::MAX);
        assert_eq!(top.percentile(0.5), u64::MAX);
        // All-zero samples stay in bucket 0.
        let mut zeros = Histogram::default();
        zeros.record(0);
        zeros.record(0);
        assert_eq!(zeros.percentile(0.99), 0);
    }

    #[test]
    fn histogram_sum_saturates_and_reports_it() {
        let mut h = Histogram::default();
        h.record(u64::MAX);
        assert!(!h.saturated, "one huge sample fits exactly");
        assert_eq!(h.sum, u64::MAX);
        h.record(1);
        assert!(h.saturated, "the next sample clamps and flags");
        assert_eq!(h.sum, u64::MAX, "clamped, not wrapped");
        assert_eq!(h.count, 2, "counts keep advancing past saturation");

        // merge saturates the same way...
        let mut a = Histogram::default();
        a.record(u64::MAX);
        let mut b = Histogram::default();
        b.record(2);
        a.merge(&b);
        assert!(a.saturated);
        assert_eq!(a.sum, u64::MAX);
        // ...and carries an already-set flag even without overflowing.
        let mut c = Histogram::default();
        c.merge(&h);
        assert!(c.saturated, "merge propagates the flag");
    }

    #[test]
    fn histogram_merge_is_elementwise() {
        let mut a = Histogram::default();
        a.record(1);
        a.record(100);
        let mut b = Histogram::default();
        b.record(3);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count, 3);
        assert_eq!(merged.sum, 104);
        assert_eq!(merged.max, 100);
        assert_eq!(merged.buckets[2], 1, "b's sample landed");
    }

    #[test]
    fn epochs_served_counts_distinct_epochs_not_transitions() {
        let trace = |epoch| GenerationTrace {
            epoch,
            dispatches: Vec::new(),
        };
        let mut stats = EngineStats::default();
        // Generations on old and new epochs interleave around a swap:
        // a straggler on epoch 1 after epoch 2 was seen must not count.
        for epoch in [1, 1, 2, 1, 2] {
            stats.absorb(&[], &trace(epoch));
        }
        assert_eq!(stats.epochs_served, 2);
        assert_eq!(stats.last_epoch, 2);
    }
}
