//! One workload run: repeated set-up, the phases, the answer check, and
//! every metric derived from them.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use anns_engine::{current_rss_bytes, EngineStats, MountTable, Registry};
use serde::Value;

use crate::drive::{self, closed_wire, open_wire, Batch, Generator, Requests, Sample, Status};
use crate::layers::{timed_registry, write_spans, ReadLog, Span};
use crate::loadgen::{Pacer, RealPacer};
use crate::replay::{replay, Reference, Replayed};
use crate::report::{metrics_object, Class, Json, Metric};
use crate::stats::{median, pct_ns, sliced_p99};
use crate::workload::{
    nproc, setup, Front, Kind, Prepared, Stack, Swapper, Traffic, BATCH_WIDTH, SAT_OUTSTANDING,
    SWAP_NS,
};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Rounds per run. Each round runs every measured phase once, so each
/// metric samples the whole run rather than one stretch of it: the
/// host's speed drifts over seconds to minutes.
const ROUNDS: usize = 5;
/// Leading share of each `sat` round discarded while the closed loop fills.
const SAT_DISCARD: f64 = 1.0 / 6.0;
/// Completions closer together than this belong to one generation's burst.
const BURST_NS: u64 = 1_000_000;
/// Window after a swap in which request latency counts as swap stall.
const STALL_WINDOW_NS: u64 = 250_000_000;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// Seed of every input: data sets, queries, shard choice.
    pub seed: u64,
    /// Seconds of measured traffic, split over the phases.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny sizes and rates, for the smoke test.
    pub smoke: bool,
    /// Directory for result files, traces and temporary bundles.
    pub out: PathBuf,
}

/// Phase lengths in seconds: `warm` once, the others once per round. An
/// untraced run splits `--seconds` as warm 2 : low 10 : high 10 : sat 6;
/// a traced run adds traced-high 10 to each round.
#[derive(Clone, Copy, Debug)]
struct Plan {
    /// Discarded warm-up at the low rate.
    warm: f64,
    /// Open loop at the low rate, per round.
    low: f64,
    /// Open loop at the high rate, per round.
    high: f64,
    /// Closed loop, per round.
    sat: f64,
    /// Open loop at the high rate through the timing wrappers, per round.
    traced: f64,
}

impl Plan {
    /// The split of `seconds` for an untraced or traced run.
    fn new(seconds: f64, trace: bool) -> Plan {
        let traced = if trace { 10.0 } else { 0.0 };
        let u = seconds / (28.0 + traced);
        let per_round = u / ROUNDS as f64;
        Plan {
            warm: 2.0 * u,
            low: 10.0 * per_round,
            high: 10.0 * per_round,
            sat: 6.0 * per_round,
            traced: traced * per_round,
        }
    }
}

/// One phase round's requests and the engine counters around it.
struct Phase {
    name: &'static str,
    secs: f64,
    start_ns: u64,
    requests: Requests,
    before: EngineStats,
    after: EngineStats,
}

impl Phase {
    fn served(&self) -> impl Iterator<Item = &Sample> {
        self.requests
            .samples
            .iter()
            .filter(|s| s.status == Status::Served)
    }

    fn count(&self, status: Status) -> usize {
        self.requests
            .samples
            .iter()
            .filter(|s| s.status == status)
            .count()
    }

    /// Closed-loop completions after the ramp-up, and the nanoseconds they
    /// span. Generations resolve their tickets in bursts, so the span runs
    /// from the first to the last completion in the window and the first
    /// burst is left out of the count: whole generations only.
    fn closed_completions(&self) -> (usize, u64) {
        let from = self.start_ns + (self.secs * SAT_DISCARD * 1e9) as u64;
        let to = self.start_ns + (self.secs * 1e9) as u64;
        let mut done: Vec<u64> = self
            .served()
            .map(|s| s.done_ns)
            .filter(|t| (from..=to).contains(t))
            .collect();
        done.sort_unstable();
        let (Some(&a), Some(&b)) = (done.first(), done.last()) else {
            return (0, 0);
        };
        (done.iter().filter(|&&t| t > a + BURST_NS).count(), b - a)
    }
}

/// Every round of one phase name.
struct Rounds<'a>(Vec<&'a Phase>);

impl<'a> Rounds<'a> {
    fn of(phases: &'a [Phase], name: &str) -> Rounds<'a> {
        Rounds(phases.iter().filter(|p| p.name == name).collect())
    }

    fn served(&self) -> impl Iterator<Item = &'a Sample> + '_ {
        self.0.iter().flat_map(|p| p.served())
    }

    fn served_ns(&self, f: impl Fn(&Sample) -> u64) -> Vec<u64> {
        self.served().map(f).collect()
    }

    fn samples(&self) -> impl Iterator<Item = &'a Sample> + '_ {
        self.0.iter().flat_map(|p| p.requests.samples.iter())
    }

    fn secs(&self) -> f64 {
        self.0.iter().map(|p| p.secs).sum()
    }

    fn count(&self, status: Status) -> usize {
        self.0.iter().map(|p| p.count(status)).sum()
    }

    /// Median latency over every round's completions.
    fn p50_ms(&self) -> f64 {
        pct_ns(&self.served_ns(Sample::latency_ns), 0.5) as f64 / 1e6
    }

    /// The sliced p99 over every round's completions, in due order.
    fn p99_ms(&self) -> f64 {
        sliced_p99(&self.served_ns(Sample::latency_ns)) / 1e6
    }

    /// Closed-loop completions per second over every round.
    fn closed_rate(&self) -> f64 {
        let (n, span) = self
            .0
            .iter()
            .map(|p| p.closed_completions())
            .fold((0, 0), |(n, t), (dn, dt)| (n + dn, t + dt));
        ratio(n as f64, span as f64 / 1e9)
    }

    fn late_ns(&self) -> Vec<u64> {
        self.samples().map(Sample::late_ns).collect()
    }
}

/// Counter differences summed over rounds.
#[derive(Default)]
struct Delta {
    queries: f64,
    submitted: f64,
    executed: f64,
    rounds: f64,
    windows: f64,
    by_deadline: f64,
    fill_sum: f64,
}

impl Delta {
    fn of(rounds: &Rounds) -> Delta {
        let mut total = Delta::default();
        for phase in &rounds.0 {
            let (a, b) = (&phase.before, &phase.after);
            let d = |x: u64, y: u64| y.saturating_sub(x) as f64;
            total.queries += d(a.queries, b.queries);
            total.submitted += d(a.probes_submitted, b.probes_submitted);
            total.executed += d(a.probes_executed, b.probes_executed);
            total.rounds += d(a.rounds_total, b.rounds_total);
            total.windows += d(a.online.windows, b.online.windows);
            total.by_deadline += d(a.online.sealed_by_deadline, b.online.sealed_by_deadline);
            total.fill_sum += d(a.online.fill_hist.sum, b.online.fill_hist.sum);
        }
        total
    }
}

/// The host-wide CPU time counters of `/proc/stat` (user, nice, system,
/// idle, iowait, irq, softirq, steal), in ticks; empty where unavailable.
fn cpu_ticks() -> Vec<u64> {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let first = stat.lines().next().unwrap_or_default();
    first
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect()
}

/// Share of CPU time the hypervisor gave to other guests between two
/// [`cpu_ticks`] readings: the run's own measure of host contention.
fn steal_frac(before: &[u64], after: &[u64]) -> f64 {
    let delta: Vec<u64> = before
        .iter()
        .zip(after)
        .map(|(a, b)| b.saturating_sub(*a))
        .collect();
    ratio(
        delta.get(7).copied().unwrap_or(0) as f64,
        delta.iter().sum::<u64>() as f64,
    )
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

enum Load {
    Open([f64; 2]),
    Closed,
}

fn drive_phase(
    pacer: &RealPacer,
    stack: &Stack,
    traffic: &mut Traffic,
    swapper: Option<&mut Swapper>,
    name: &'static str,
    load: Load,
    secs: f64,
) -> Result<Phase, String> {
    let before = stack.engine.stats();
    let start_ns = pacer.now_ns();
    let requests = match (&stack.front, load) {
        (Front::Queue { queue, .. }, load) => {
            let mut generator = Generator {
                pacer,
                traffic,
                swapper,
            };
            match load {
                Load::Open(rates) => generator.open_queue(queue, rates[0], secs),
                Load::Closed => generator.closed_queue(queue, SAT_OUTSTANDING, secs),
            }
        }
        (Front::Wire { conns, .. }, Load::Open(rates)) => {
            open_wire(pacer, conns, traffic, rates, secs)?
        }
        (Front::Wire { conns, .. }, Load::Closed) => closed_wire(pacer, conns, traffic, secs)?,
    };
    Ok(Phase {
        name,
        secs,
        start_ns,
        requests,
        before,
        after: stack.engine.stats(),
    })
}

/// Removes the run's temporary directory on every exit path.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything a run produced.
pub struct RunResult {
    /// No answer mismatch, budget violation or failed swap.
    pub correct: bool,
    /// Requests attempted over every phase, plus batch queries.
    pub attempted: u64,
    /// Typed errors, sheds, compliant-tenant refusals, budget
    /// violations, failed swaps and answer mismatches.
    pub failed: u64,
    /// Every metric measured.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: set-up, phases, replay.
    pub summary: Vec<String>,
}

/// Runs one workload.
pub fn run(opts: &Options) -> Result<RunResult, String> {
    let epoch = Instant::now();
    let pacer = RealPacer::new(epoch);
    let cfg = opts.kind.config(opts.smoke);
    let plan = Plan::new(opts.seconds, opts.trace);
    let tmp = TempDir(opts.out.join(format!("tmp-{}", std::process::id())));
    std::fs::create_dir_all(&tmp.0)
        .map_err(|e| format!("cannot create {}: {e}", tmp.0.display()))?;

    // Set-up, repeated; each repetition is torn down before the next.
    let mut setups = Vec::new();
    let mut prepared: Option<Prepared> = None;
    for rep in 0..SETUP_REPS {
        drop(prepared.take());
        let started = Instant::now();
        let p = setup(opts.kind, &cfg, opts.seed, &tmp.0, rep)?;
        setups.push([
            started.elapsed().as_secs_f64(),
            p.build_s,
            p.mount_ms,
            p.ready_ms,
        ]);
        prepared = Some(p);
    }
    let mut p = prepared.expect("set-up ran");
    let setup_median = |col: usize| median(&setups.iter().map(|s| s[col]).collect::<Vec<_>>());

    // A traced run re-runs `high` with every shard behind a timing
    // wrapper, on a second stack; swap-mixed keeps its one stack, since
    // swapped-in bundles are mounted straight from file with nothing to
    // wrap.
    let log = Arc::new(ReadLog::new(epoch, true));
    let traced_stack = match opts.kind {
        _ if !opts.trace => None,
        Kind::SwapMixed => None,
        kind => {
            let wrapped = timed_registry(&p.stack.mounts.current(), &log);
            let mounts = Arc::new(MountTable::with_registry(wrapped));
            Some(if kind == Kind::TenantWire {
                Stack::wire(mounts, cfg.hot)?
            } else {
                Stack::in_process(mounts)
            })
        }
    };

    let mut phases = Vec::new();
    let mut batches: Vec<Batch> = Vec::new();
    let mut run_phase = |p: &mut Prepared, stack: Option<&Stack>, name, load, secs: f64| {
        let stack = stack.unwrap_or(&p.stack);
        drive_phase(
            &pacer,
            stack,
            &mut p.traffic,
            p.swapper.as_mut(),
            name,
            load,
            secs,
        )
        .map(|phase| phases.push(phase))
    };
    run_phase(&mut p, None, "warm", Load::Open(cfg.low), plan.warm)?;
    let mut rss = Vec::new();
    let ticks_before = cpu_ticks();
    for _ in 0..ROUNDS {
        run_phase(&mut p, None, "low", Load::Open(cfg.low), plan.low)?;
        run_phase(&mut p, None, "high", Load::Open(cfg.high), plan.high)?;
        run_phase(&mut p, None, "sat", Load::Closed, plan.sat)?;
        batches.push(drive::batch(&p.stack, &mut p.traffic, cfg.batch)?);
        rss.push(current_rss_bytes() as f64 / (1024.0 * 1024.0));
        if opts.trace {
            let traced = traced_stack.as_ref();
            run_phase(&mut p, traced, "traced", Load::Open(cfg.high), plan.traced)?;
        }
    }
    let steal = steal_frac(&ticks_before, &cpu_ticks());
    drop(traced_stack);

    let reference = reference(&p)?;
    let checks: Vec<_> = phases
        .iter()
        .flat_map(|ph| ph.requests.checks.iter())
        .chain(batches.iter().flat_map(|b| b.checks.iter()))
        .cloned()
        .collect();
    let replayed = replay(&checks, &reference, epoch, nproc());

    let swap_failures = p.swapper.as_ref().map_or(0, |s| s.failures);
    let over_budget = phases
        .iter()
        .flat_map(|ph| ph.requests.samples.iter())
        .filter(|s| s.over_budget)
        .count() as u64
        + batches.iter().map(|b| b.over_budget).sum::<u64>();
    let correct = replayed.mismatches == 0 && over_budget == 0 && swap_failures == 0;
    let attempted = phases
        .iter()
        .map(|ph| ph.requests.samples.len() as u64)
        .sum::<u64>()
        + batches.iter().map(|b| b.queries as u64).sum::<u64>();
    let failed = phases
        .iter()
        .map(|ph| ph.count(Status::Failed) as u64)
        .sum::<u64>()
        + over_budget
        + swap_failures
        + replayed.mismatches;

    let mut m = Metrics::default();
    let rounds = |name| Rounds::of(&phases, name);
    let e2e = Class::EndToEnd;
    m.push("setup_s", "s", setup_median(0), e2e);
    m.push("rss_mb", "MiB", median(&rss), e2e);
    let gamma_ok = ratio(replayed.gamma_ok as f64, replayed.checks as f64);
    m.push("gamma_ok_frac", "fraction", gamma_ok, e2e);

    // Latency and throughput are gated nowhere: on the reference host
    // they do not repeat within any allowed bound (see README.md), so
    // they are listed with the per-layer metrics and reported by both
    // kinds of run.
    let serving = Class::PerLayer;
    for name in ["low", "high"] {
        m.push(
            &format!("p50_ms.{name}"),
            "ms",
            rounds(name).p50_ms(),
            serving,
        );
    }
    for name in ["low", "high"] {
        m.push(
            &format!("p99_ms.{name}"),
            "ms",
            rounds(name).p99_ms(),
            serving,
        );
    }
    m.push("sat_qps", "req/s", rounds("sat").closed_rate(), serving);
    let (queries, wall_s, generations) = batches.iter().fold((0, 0.0, 0), |(q, w, g), b| {
        (q + b.queries, w + b.wall_s, g + b.generations)
    });
    m.push("batch_qps", "req/s", ratio(queries as f64, wall_s), serving);
    m.push(
        "engine.gen_ms_mean",
        "ms",
        ratio(wall_s * 1e3, generations as f64),
        Class::Extra,
    );
    m.push("store.build_s", "s", setup_median(1), Class::PerLayer);
    if opts.trace {
        let (high, traced) = (rounds("high"), rounds("traced"));
        per_layer(&mut m, opts.kind, &high, &traced, &log, &replayed);
        m.push(
            "obs.traced_p50_ratio",
            "ratio",
            ratio(traced.p50_ms(), high.p50_ms()),
            Class::PerLayer,
        );
        stage_shares(&mut m, &traced);
        let path = opts.out.join(format!("trace-{}.jsonl", opts.kind.name()));
        write_spans(&path, &spans(&traced, &log, p.swapper.as_ref()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    extras(&mut m, opts.kind, &phases, &p, &setups);
    m.push("host.steal_frac", "fraction", steal, Class::Extra);
    m.push(
        "failed_frac",
        "fraction",
        ratio(failed as f64, attempted as f64),
        Class::Extra,
    );

    let summary = summarize(&phases, &batches, &setups, &replayed, over_budget);
    Ok(RunResult {
        correct,
        attempted,
        failed,
        metrics: m.0,
        summary,
    })
}

fn summarize(
    phases: &[Phase],
    batches: &[Batch],
    setups: &[[f64; 4]],
    replayed: &Replayed,
    over_budget: u64,
) -> Vec<String> {
    let times: Vec<String> = setups.iter().map(|s| format!("{:.3}", s[0])).collect();
    let mut out = vec![
        format!("set-up ×{SETUP_REPS}: {} s", times.join(", ")),
        format!(
            "{:<7} {:>6} {:>7} {:>7} {:>5} {:>5} {:>9} {:>9} {:>9} {:>9}",
            "phase",
            "secs",
            "sent",
            "served",
            "thr",
            "fail",
            "p50_ms",
            "p99_ms",
            "late_p99",
            "served/s"
        ),
    ];
    let mut names: Vec<&str> = Vec::new();
    for phase in phases {
        if !names.contains(&phase.name) {
            names.push(phase.name);
        }
    }
    for name in names {
        let r = Rounds::of(phases, name);
        out.push(format!(
            "{:<7} {:>6.2} {:>7} {:>7} {:>5} {:>5} {:>9.3} {:>9.3} {:>9.3} {:>9.1}",
            name,
            r.secs(),
            r.samples().count(),
            r.count(Status::Served),
            r.count(Status::Throttled),
            r.count(Status::Failed),
            r.p50_ms(),
            r.p99_ms(),
            pct_ns(&r.late_ns(), 0.99) as f64 / 1e6,
            r.count(Status::Served) as f64 / r.secs(),
        ));
    }
    let queries: usize = batches.iter().map(|b| b.queries).sum();
    let wall: f64 = batches.iter().map(|b| b.wall_s).sum();
    out.push(format!(
        "batch   {} calls, {queries} queries at width {BATCH_WIDTH} in {wall:.3} s",
        batches.len()
    ));
    out.push(format!(
        "answer check: {} replayed, {} mismatched; {over_budget} over budget",
        replayed.checks, replayed.mismatches
    ));
    out
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn push(&mut self, name: &str, unit: &'static str, value: f64, class: Class) {
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            value,
            class,
        });
    }
}

/// The per-layer split. Engine, admission and load-generator numbers come
/// from the untraced `high` rounds; table reads from the traced rounds
/// (from the solo replay on swap-mixed, which serves no wrapped shard);
/// scheme compute from the replay.
fn per_layer(
    m: &mut Metrics,
    kind: Kind,
    high: &Rounds,
    traced: &Rounds,
    log: &ReadLog,
    replayed: &Replayed,
) {
    let (reads, read_ns, per, busy_over) = if kind == Kind::SwapMixed {
        (
            replayed.reads,
            replayed.read_ns,
            replayed.checks,
            replayed.wall_ns as f64,
        )
    } else {
        let (reads, read_ns) = log.totals();
        let core_ns = traced.secs() * 1e9 * nproc() as f64;
        (reads, read_ns, traced.count(Status::Served) as u64, core_ns)
    };
    let c = Class::PerLayer;
    m.push(
        "cellprobe.reads_per_query",
        "count",
        ratio(reads as f64, per as f64),
        c,
    );
    m.push(
        "cellprobe.read_us_mean",
        "us",
        ratio(read_ns as f64 / 1e3, reads as f64),
        c,
    );
    m.push(
        "cellprobe.read_busy_frac",
        "fraction",
        ratio(read_ns as f64, busy_over),
        c,
    );
    m.push(
        "core.solo_us_p50",
        "us",
        pct_ns(&replayed.solo_ns, 0.5) as f64 / 1e3,
        c,
    );
    m.push(
        "core.compute_us_p50",
        "us",
        pct_ns(&replayed.compute_ns, 0.5) as f64 / 1e3,
        c,
    );

    let d = Delta::of(high);
    let us = |ns: u64| ns as f64 / 1e3;
    m.push(
        "engine.coalescing",
        "ratio",
        ratio(d.executed, d.submitted),
        c,
    );
    m.push(
        "engine.probes_per_query",
        "count",
        ratio(d.submitted, d.queries),
        c,
    );
    m.push(
        "engine.rounds_per_query",
        "count",
        ratio(d.rounds, d.queries),
        c,
    );
    let query = high.served_ns(|s| s.query_ns);
    m.push("engine.query_us_p50", "us", us(pct_ns(&query, 0.5)), c);
    m.push("engine.query_us_p99", "us", us(pct_ns(&query, 0.99)), c);
    m.push(
        "engine.gap_us_p50",
        "us",
        us(pct_ns(&high.served_ns(Sample::gap_ns), 0.5)),
        c,
    );
    let wait = high.served_ns(|s| s.wait_ns);
    m.push("admission.wait_us_p50", "us", us(pct_ns(&wait, 0.5)), c);
    m.push("admission.wait_us_p99", "us", us(pct_ns(&wait, 0.99)), c);
    m.push(
        "admission.fill_mean",
        "count",
        ratio(d.fill_sum, d.windows),
        c,
    );
    m.push(
        "admission.deadline_frac",
        "fraction",
        ratio(d.by_deadline, d.windows),
        c,
    );
    m.push(
        "admission.depth_p99",
        "count",
        pct_ns(&high.served_ns(|s| s.depth), 0.99) as f64,
        c,
    );
    let late = high.late_ns();
    m.push(
        "loadgen.late_ms_p99",
        "ms",
        pct_ns(&late, 0.99) as f64 / 1e6,
        c,
    );
    m.push(
        "loadgen.late_ms_max",
        "ms",
        pct_ns(&late, 1.0) as f64 / 1e6,
        c,
    );
}

/// Each request stage's share of latency among the traced requests in
/// the median band (p45–p55). The stages sum to the request latency by
/// construction, so the shares sum to 1.
fn stage_shares(m: &mut Metrics, traced: &Rounds) {
    let lat = traced.served_ns(Sample::latency_ns);
    let (lo, hi) = (pct_ns(&lat, 0.45), pct_ns(&lat, 0.55));
    let band: Vec<&Sample> = traced
        .served()
        .filter(|s| (lo..=hi).contains(&s.latency_ns()))
        .collect();
    let total: u64 = band.iter().map(|s| s.latency_ns()).sum();
    type Stage = fn(&Sample) -> u64;
    let stages: [(&str, Stage); 4] = [
        ("late", Sample::late_ns),
        ("wait", |s| s.wait_ns),
        ("gap", Sample::gap_ns),
        ("query", |s| s.query_ns),
    ];
    for (name, f) in stages {
        let part: u64 = band.iter().map(|s| f(s)).sum();
        m.push(
            &format!("share_p50.{name}"),
            "fraction",
            ratio(part as f64, total as f64),
            Class::Extra,
        );
    }
}

/// Metrics defined on some workloads only.
fn extras(m: &mut Metrics, kind: Kind, phases: &[Phase], p: &Prepared, setups: &[[f64; 4]]) {
    let x = Class::Extra;
    let col = |i: usize| median(&setups.iter().map(|s| s[i]).collect::<Vec<_>>());
    if matches!(kind, Kind::UniqueLarge | Kind::SwapMixed) {
        m.push("store.mount_ms", "ms", col(2), x);
        m.push("store.ready_ms", "ms", col(3), x);
    }
    if let Some(sw) = &p.swapper {
        let served: Vec<&Sample> = phases.iter().flat_map(|ph| ph.served()).collect();
        let swap_ms = sw.log.iter().map(|e| (e.end_ns - e.start_ns) as f64 / 1e6);
        m.push("store.swap_ms_max", "ms", swap_ms.fold(0.0, f64::max), x);
        let stall = sw
            .log
            .iter()
            .flat_map(|e| {
                let window = e.start_ns..e.start_ns + STALL_WINDOW_NS;
                served
                    .iter()
                    .filter(move |s| window.contains(&s.due_ns))
                    .map(|s| s.latency_ns())
            })
            .max()
            .unwrap_or(0);
        m.push("store.swap_stall_ms_max", "ms", stall as f64 / 1e6, x);
        let judged: Vec<bool> = sw
            .log
            .iter()
            .filter_map(|e| e.retired_before_next)
            .collect();
        let retired = judged.iter().filter(|&&r| r).count();
        m.push(
            "store.retired_frac",
            "fraction",
            ratio(retired as f64, judged.len() as f64),
            x,
        );
        m.push("store.swaps", "count", sw.log.len() as f64, x);
    }
    let high = Rounds::of(phases, "high");
    if kind == Kind::TenantWire {
        let ticket = high.served_ns(|s| s.ticket_ns);
        m.push(
            "server.ticket_us_p50",
            "us",
            pct_ns(&ticket, 0.5) as f64 / 1e3,
            x,
        );
        m.push(
            "server.ticket_us_p99",
            "us",
            pct_ns(&ticket, 0.99) as f64 / 1e3,
            x,
        );
        let residual = high.served_ns(|s| {
            (s.done_ns - s.sent_ns).saturating_sub(s.ticket_ns + s.wait_ns + s.query_ns)
        });
        m.push(
            "server.residual_us_p50",
            "us",
            pct_ns(&residual, 0.5) as f64 / 1e3,
            x,
        );
        let hot: Vec<&Sample> = high.samples().filter(|s| s.lane == 1).collect();
        let throttled = hot.iter().filter(|s| s.status == Status::Throttled).count();
        m.push(
            "tenant.hot_throttled_frac",
            "fraction",
            ratio(throttled as f64, hot.len() as f64),
            x,
        );
    }
    m.push(
        "loadgen.late_ms_p50",
        "ms",
        pct_ns(&high.late_ns(), 0.5) as f64 / 1e6,
        x,
    );
}

/// The registries the answer check replays against: the serving registry
/// itself, or for swap-mixed each bundle file reloaded on the heap under
/// the live namespace, indexed by the epochs the swaps created.
fn reference(p: &Prepared) -> Result<Reference, String> {
    if let Some(index) = &p.index {
        return Ok(Reference {
            registries: vec![p.stack.mounts.current()],
            indexes: vec![Arc::clone(index)],
            epochs: Vec::new(),
        });
    }
    let swapper = p
        .swapper
        .as_ref()
        .ok_or("no reference for the answer check")?;
    let mut reference = Reference {
        registries: Vec::new(),
        indexes: Vec::new(),
        epochs: swapper.epochs.clone(),
    };
    for path in &p.bundles {
        let reload = |e: &dyn std::fmt::Display| format!("cannot reload {}: {e}", path.display());
        let mut registry = Registry::new();
        registry.mount(SWAP_NS, path).map_err(|e| reload(&e))?;
        let index = registry
            .any_pooled_index()
            .ok_or_else(|| reload(&"no index in the bundle"))?;
        reference.registries.push(Arc::new(registry));
        reference.indexes.push(index);
    }
    Ok(reference)
}

/// The traced rounds as spans: per request `request` and its four stages
/// (which tile it exactly), every table read, every swap.
fn spans(traced: &Rounds, log: &ReadLog, swapper: Option<&Swapper>) -> Vec<Span> {
    let mut out = Vec::new();
    let mut next_id = 1u64;
    for s in traced.served() {
        let id = next_id;
        next_id += 5;
        let wait_end = s.sent_ns + s.wait_ns;
        let query_start = s.done_ns.saturating_sub(s.query_ns).max(wait_end);
        let stages = [
            ("request", None, s.due_ns, s.done_ns),
            ("loadgen.late", Some(id), s.due_ns, s.sent_ns),
            ("admission.wait", Some(id), s.sent_ns, wait_end),
            ("engine.gap", Some(id), wait_end, query_start),
            ("engine.query", Some(id), query_start, s.done_ns),
        ];
        for (k, (name, parent, start_ns, end_ns)) in stages.into_iter().enumerate() {
            out.push(Span {
                name,
                id: id + k as u64,
                parent,
                start_ns,
                end_ns,
                thread: None,
            });
        }
    }
    for mut read in log.take_spans() {
        read.id = next_id;
        next_id += 1;
        out.push(read);
    }
    for e in swapper.map(|s| s.log.as_slice()).unwrap_or(&[]) {
        out.push(Span {
            name: "store.swap",
            id: next_id,
            parent: None,
            start_ns: e.start_ns,
            end_ns: e.end_ns,
            thread: None,
        });
        next_id += 1;
    }
    out
}

/// The result file `compare` reads: every metric with its class, plus
/// the run's identity and outcome.
fn result_file(opts: &Options, result: &RunResult) -> Value {
    let all: Vec<&Metric> = result.metrics.iter().collect();
    let lines = result
        .summary
        .iter()
        .map(|l| Value::Str(l.clone()))
        .collect();
    Value::Object(vec![
        ("workload".into(), Value::Str(opts.kind.name().into())),
        ("seed".into(), Value::Int(opts.seed.into())),
        ("trace".into(), Value::Int(i128::from(opts.trace))),
        ("seconds".into(), Value::Float(opts.seconds)),
        ("smoke".into(), Value::Bool(opts.smoke)),
        ("nproc".into(), Value::Int(nproc() as i128)),
        ("correct".into(), Value::Bool(result.correct)),
        ("attempted".into(), Value::Int(result.attempted.into())),
        ("failed".into(), Value::Int(result.failed.into())),
        ("summary".into(), Value::Array(lines)),
        ("metrics".into(), metrics_object(&all, true)),
    ])
}

/// Writes the result file as `<out>/<workload>-seed<seed>-trace<0|1>.json`.
pub fn write_result(opts: &Options, result: &RunResult) -> Result<PathBuf, String> {
    let path: PathBuf = Path::new(&opts.out).join(format!(
        "{}-seed{}-trace{}.json",
        opts.kind.name(),
        opts.seed,
        u8::from(opts.trace)
    ));
    let text = serde_json::to_string_pretty(&Json(result_file(opts, result)))
        .map_err(|e| format!("cannot encode the result: {e}"))?;
    std::fs::write(&path, text + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}
