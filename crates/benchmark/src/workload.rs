//! The four workloads: what each builds during set-up, the serving stack
//! it drives, and the traffic it sends.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use anns_cellprobe::ExecOptions;
use anns_core::{Alg2Config, AnnIndex, BuildOptions};
use anns_engine::{
    AdmissionOptions, AdmissionQueue, Engine, EngineOptions, MountTable, RealClock, Registry,
    ShardId, StoreBackend, SwapReceipt,
};
use anns_hamming::{gen, Point};
use anns_server::{read_frame, write_frame, AnnsServer, Frame, ServerOptions, TenantPolicy};
use anns_sketch::SketchParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::loadgen::{mixed_query, query_set, Zipf};

/// Threads pumping each admission queue, as many as `AnnsServer` runs
/// on a 2-core machine.
pub const PUMPS: usize = 2;
/// Generation width of the serving engine (`EngineOptions` default).
pub const GENERATION: usize = 64;
/// Generation width of the `batch` phase.
pub const BATCH_WIDTH: usize = 256;
/// Requests kept outstanding in `sat`: four full windows.
pub const SAT_OUTSTANDING: usize = 4 * GENERATION;
/// Algorithm round budget served by every shard.
const K: u32 = 3;
/// Distance of a "near" query from its database point.
pub const FLIPS: u32 = 6;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Zipf traffic over a small in-memory index: shared work.
    HotOnline,
    /// Distinct queries over a large mmap-mounted index: no shared work.
    UniqueLarge,
    /// Two tenants over TCP into a tiny index: wire, gate and deadline.
    TenantWire,
    /// Zipf traffic across two shards while bundles hot-swap under it.
    SwapMixed,
}

impl Kind {
    /// Every workload, in `--workload all` order.
    pub const ALL: [Kind; 4] = [
        Kind::HotOnline,
        Kind::UniqueLarge,
        Kind::TenantWire,
        Kind::SwapMixed,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::HotOnline => "hot-online",
            Kind::UniqueLarge => "unique-large",
            Kind::TenantWire => "tenant-wire",
            Kind::SwapMixed => "swap-mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Sizes and rates. `smoke` shrinks everything so a debug build runs
    /// each workload in seconds.
    pub fn config(self, smoke: bool) -> Config {
        let (n, d, low, high, batch) = match self {
            Kind::HotOnline => (8192, 512, [1000.0, 0.0], [2000.0, 0.0], 1024),
            Kind::UniqueLarge => (32768, 512, [100.0, 0.0], [200.0, 0.0], 256),
            Kind::TenantWire => (1024, 256, [100.0, 150.0], [250.0, 300.0], 1024),
            Kind::SwapMixed => (8192, 512, [500.0, 0.0], [1000.0, 0.0], 1024),
        };
        let hot = TenantPolicy {
            rate_per_sec: 100.0,
            burst: 16.0,
        };
        if !smoke {
            return Config {
                n,
                d,
                low,
                high,
                batch,
                distinct: 256,
                swap_every_s: 2.5,
                hot,
            };
        }
        let tenth = |r: [f64; 2]| [r[0] / 10.0, r[1] / 10.0];
        Config {
            n: n / 16,
            d: 128,
            low: tenth(low),
            high: tenth(high),
            batch: 64,
            distinct: 64,
            swap_every_s: 0.5,
            hot: TenantPolicy {
                rate_per_sec: hot.rate_per_sec / 10.0,
                burst: 4.0,
            },
        }
    }
}

/// One workload's sizes and rates.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Database points.
    pub n: usize,
    /// Dimension.
    pub d: u32,
    /// Offered rate per lane in `low` (and `warm`), requests/s. Lane 1
    /// is the second connection of tenant-wire and idle elsewhere.
    pub low: [f64; 2],
    /// Offered rate per lane in `high`.
    pub high: [f64; 2],
    /// Queries per `batch` call (one call per round).
    pub batch: usize,
    /// Distinct queries of the Zipf stream.
    pub distinct: usize,
    /// Hot-swap period of swap-mixed, seconds.
    pub swap_every_s: f64,
    /// Token bucket of tenant-wire's `hot` tenant.
    pub hot: TenantPolicy,
}

/// Worker threads this machine offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn engine_options(generation: usize) -> EngineOptions {
    EngineOptions {
        generation,
        exec: ExecOptions::default(),
        batch_threads: nproc(),
    }
}

/// An engine of width `generation` over a mount table.
pub fn engine_over(mounts: &Arc<MountTable>, generation: usize) -> Engine {
    Engine::over(Arc::clone(mounts), engine_options(generation))
}

/// How requests reach the engine.
pub enum Front {
    /// In process: an admission queue pumped by [`PUMPS`] threads.
    Queue {
        /// The shared queue.
        queue: Arc<AdmissionQueue>,
        /// The threads pumping it.
        pumps: Vec<JoinHandle<()>>,
    },
    /// Over TCP: an `AnnsServer` on 127.0.0.1 and two handshaken
    /// connections to it.
    Wire {
        /// The bound server.
        server: AnnsServer,
        /// The thread running its accept loop.
        accept: Option<JoinHandle<()>>,
        /// The two client connections.
        conns: Vec<TcpStream>,
    },
}

/// A running serving stack. Dropping it drains and joins every thread it
/// started.
pub struct Stack {
    /// The mount table the engine serves.
    pub mounts: Arc<MountTable>,
    /// The serving engine.
    pub engine: Arc<Engine>,
    /// How requests reach it.
    pub front: Front,
}

impl Stack {
    /// An engine, an admission queue and its pump threads over `mounts`.
    pub fn in_process(mounts: Arc<MountTable>) -> Stack {
        let engine = Arc::new(engine_over(&mounts, GENERATION));
        let queue = Arc::new(AdmissionQueue::new(
            Arc::clone(&engine),
            AdmissionOptions::default(),
            Arc::new(RealClock::new()),
        ));
        let pumps = (0..PUMPS)
            .map(|_| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || queue.run())
            })
            .collect();
        Stack {
            mounts,
            engine,
            front: Front::Queue { queue, pumps },
        }
    }

    /// A server over `mounts` with `hot` as the `hot` tenant's policy,
    /// plus two connections that have completed the hello handshake.
    pub fn wire(mounts: Arc<MountTable>, hot: TenantPolicy) -> Result<Stack, String> {
        let engine = Arc::new(engine_over(&mounts, GENERATION));
        let server = AnnsServer::bind(
            "127.0.0.1:0",
            Arc::clone(&engine),
            ServerOptions {
                drivers: PUMPS,
                policies: vec![("hot".to_string(), hot)],
                ..ServerOptions::default()
            },
            Arc::new(RealClock::new()),
        )
        .map_err(|e| format!("cannot bind the server: {e}"))?;
        let runner = server.clone();
        let accept = Some(std::thread::spawn(move || runner.run()));
        let mut stack = Stack {
            mounts,
            engine,
            front: Front::Wire {
                server: server.clone(),
                accept,
                conns: Vec::new(),
            },
        };
        for _ in 0..2 {
            let conn = handshake(&server)?;
            if let Front::Wire { conns, .. } = &mut stack.front {
                conns.push(conn);
            }
        }
        Ok(stack)
    }
}

fn handshake(server: &AnnsServer) -> Result<TcpStream, String> {
    let err = |e: &dyn std::fmt::Display| format!("handshake failed: {e}");
    let mut conn = TcpStream::connect(server.local_addr()).map_err(|e| err(&e))?;
    conn.set_nodelay(true).map_err(|e| err(&e))?;
    write_frame(&mut conn, &Frame::Hello).map_err(|e| err(&e))?;
    match read_frame(&mut conn).map_err(|e| err(&e))? {
        Some(Frame::Welcome { .. }) => Ok(conn),
        other => Err(format!("handshake failed: expected welcome, got {other:?}")),
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        match &mut self.front {
            Front::Queue { queue, pumps } => {
                queue.close();
                for pump in pumps.drain(..) {
                    let _ = pump.join();
                }
            }
            Front::Wire {
                server,
                accept,
                conns,
            } => {
                conns.clear();
                server.shutdown();
                if let Some(accept) = accept.take() {
                    let _ = accept.join();
                }
            }
        }
    }
}

/// The query stream: which shard each request goes to, and its point.
#[derive(Clone)]
pub struct Traffic {
    rng: StdRng,
    shards: Vec<String>,
    source: Source,
}

#[derive(Clone)]
enum Source {
    /// Zipf(1.0) over a fixed set of distinct queries.
    Zipf {
        zipf: Arc<Zipf>,
        queries: Vec<Point>,
    },
    /// A fresh query every time.
    Fresh { index: Arc<AnnIndex>, seq: u64 },
}

impl Traffic {
    /// The next request: a shard name (uniform over the shards) and a
    /// query.
    pub fn next_request(&mut self) -> (String, Point) {
        let shard = if self.shards.len() == 1 {
            self.shards[0].clone()
        } else {
            self.shards[self.rng.gen_range(0..self.shards.len())].clone()
        };
        let query = match &mut self.source {
            Source::Zipf { zipf, queries } => queries[zipf.sample(&mut self.rng)].clone(),
            Source::Fresh { index, seq } => {
                *seq += 1;
                mixed_query(&[index.dataset()], *seq, FLIPS, &mut self.rng)
            }
        };
        (shard, query)
    }

    /// An independent stream for a second sender thread, seeded from
    /// this one.
    pub fn split(&mut self) -> Traffic {
        let mut other = self.clone();
        other.rng = StdRng::seed_from_u64(self.rng.gen());
        other
    }
}

/// Hot swaps of swap-mixed: alternates the namespace between two bundle
/// files on a fixed period, driven from the load generator's thread.
pub struct Swapper {
    mounts: Arc<MountTable>,
    paths: [PathBuf; 2],
    live: usize,
    period_ns: u64,
    next_ns: Option<u64>,
    last: Option<SwapReceipt>,
    /// Every swap, in order.
    pub log: Vec<SwapEvent>,
    /// `(epoch, bundle)` for every epoch the namespace has served.
    pub epochs: Vec<(u64, usize)>,
    /// Swaps that returned an error.
    pub failures: u64,
}

/// One completed swap, in run nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct SwapEvent {
    /// When the swap call began.
    pub start_ns: u64,
    /// When it returned.
    pub end_ns: u64,
    /// Whether the epoch this swap replaced had retired by the next swap
    /// (`None` for the last swap of the run).
    pub retired_before_next: Option<bool>,
}

/// Namespace swap-mixed mounts its bundles under.
pub const SWAP_NS: &str = "live";

impl Swapper {
    /// Swaps if the period has elapsed since the last swap (the first
    /// call starts the clock).
    pub fn tick(&mut self, now_ns: u64) {
        let next = *self.next_ns.get_or_insert(now_ns + self.period_ns);
        if now_ns < next {
            return;
        }
        self.next_ns = Some(now_ns + self.period_ns);
        if let (Some(prev), Some(event)) = (&self.last, self.log.last_mut()) {
            event.retired_before_next = Some(prev.retired());
        }
        let target = 1 - self.live;
        let started = Instant::now();
        match self
            .mounts
            .swap_with_backend(SWAP_NS, &self.paths[target], StoreBackend::Mmap)
        {
            Ok(receipt) => {
                let took = started.elapsed().as_nanos() as u64;
                self.live = target;
                self.epochs.push((receipt.epoch, target));
                self.log.push(SwapEvent {
                    start_ns: now_ns,
                    end_ns: now_ns + took,
                    retired_before_next: None,
                });
                self.last = Some(receipt);
            }
            Err(_) => self.failures += 1,
        }
    }
}

/// A workload after set-up: a serving stack ready for its first request.
pub struct Prepared {
    /// The stack the phases drive.
    pub stack: Stack,
    /// The request stream.
    pub traffic: Traffic,
    /// Hot swaps (swap-mixed only).
    pub swapper: Option<Swapper>,
    /// The index behind the served shards (`None` on swap-mixed, whose
    /// index changes with every swap).
    pub index: Option<Arc<AnnIndex>>,
    /// Bundle files written by set-up (swap-mixed: A then B).
    pub bundles: Vec<PathBuf>,
    /// Seconds in `AnnIndex::build`.
    pub build_s: f64,
    /// Milliseconds in `mount_with_backend` (0 for in-memory builds).
    pub mount_ms: f64,
    /// Milliseconds forcing `ready()` on every mounted shard.
    pub ready_ms: f64,
}

impl Drop for Prepared {
    fn drop(&mut self) {
        // Unlinking a mapped file is safe on Linux: the mapping lives on.
        for path in &self.bundles {
            let _ = std::fs::remove_file(path);
        }
    }
}

const SHARD: &str = "alg1-k3";

fn build(n: usize, d: u32, seed: u64) -> (Arc<AnnIndex>, f64) {
    let started = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let index = AnnIndex::build(
        gen::uniform(n, d, &mut rng),
        SketchParams::practical(2.0, seed),
        BuildOptions::default(),
    );
    (Arc::new(index), started.elapsed().as_secs_f64())
}

fn save(registry: &Registry, path: &Path) -> Result<(), String> {
    registry
        .save_bundle(path)
        .map_err(|e| format!("cannot save {}: {e}", path.display()))
}

/// Mounts `path` (mmap) under `namespace` and forces every shard ready:
/// returns `(mount_ms, ready_ms)`.
fn mount_ready(mounts: &MountTable, namespace: &str, path: &Path) -> Result<(f64, f64), String> {
    let started = Instant::now();
    mounts
        .mount_with_backend(namespace, path, StoreBackend::Mmap)
        .map_err(|e| format!("cannot mount {}: {e}", path.display()))?;
    let mount_ms = started.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();
    let registry = mounts.current();
    for i in 0..registry.len() {
        registry
            .scheme(ShardId(i))
            .ready()
            .map_err(|e| format!("shard {} not ready: {e}", registry.name(ShardId(i))))?;
    }
    Ok((mount_ms, started.elapsed().as_secs_f64() * 1e3))
}

/// Builds workload `kind` from `seed`, writing any bundle into `dir`
/// under names tagged `rep`. Everything up to the first request that may
/// be sent: the time this takes is `setup_s`.
pub fn setup(
    kind: Kind,
    cfg: &Config,
    seed: u64,
    dir: &Path,
    rep: usize,
) -> Result<Prepared, String> {
    let mut seeds = StdRng::seed_from_u64(seed);
    let data_seed: u64 = seeds.gen();
    let mut rng = StdRng::seed_from_u64(seeds.gen());
    let zipf = |rng: StdRng, shards: Vec<String>, queries: Vec<Point>| Traffic {
        rng,
        shards,
        source: Source::Zipf {
            zipf: Arc::new(Zipf::new(queries.len(), 1.0)),
            queries,
        },
    };
    let prepared = match kind {
        Kind::HotOnline | Kind::TenantWire => {
            let (index, build_s) = build(cfg.n, cfg.d, data_seed);
            let queries = query_set(&[index.dataset()], cfg.distinct, FLIPS, &mut rng);
            let mut registry = Registry::new();
            registry.register_alg1(SHARD, Arc::clone(&index), K);
            let mounts = Arc::new(MountTable::with_registry(registry));
            let stack = if kind == Kind::HotOnline {
                Stack::in_process(mounts)
            } else {
                Stack::wire(mounts, cfg.hot)?
            };
            Prepared {
                stack,
                traffic: zipf(rng, vec![SHARD.to_string()], queries),
                swapper: None,
                index: Some(index),
                bundles: Vec::new(),
                build_s,
                mount_ms: 0.0,
                ready_ms: 0.0,
            }
        }
        Kind::UniqueLarge => {
            let (index, build_s) = build(cfg.n, cfg.d, data_seed);
            let path = dir.join(format!("unique-large-{rep}.anns"));
            let mut registry = Registry::new();
            registry.register_alg1(SHARD, index, K);
            save(&registry, &path)?;
            drop(registry);
            let mounts = Arc::new(MountTable::new());
            let (mount_ms, ready_ms) = mount_ready(&mounts, "u", &path)?;
            let index = mounts
                .current()
                .any_pooled_index()
                .ok_or("the mounted bundle holds no index")?;
            Prepared {
                stack: Stack::in_process(mounts),
                traffic: Traffic {
                    rng,
                    shards: vec![format!("u/{SHARD}")],
                    source: Source::Fresh {
                        index: Arc::clone(&index),
                        seq: 0,
                    },
                },
                swapper: None,
                index: Some(index),
                bundles: vec![path],
                build_s,
                mount_ms,
                ready_ms,
            }
        }
        Kind::SwapMixed => {
            let mut build_s = 0.0;
            let mut indexes = Vec::new();
            let mut paths = Vec::new();
            for (tag, bundle_seed) in [("a", data_seed), ("b", seeds.gen())] {
                let (index, took) = build(cfg.n, cfg.d, bundle_seed);
                build_s += took;
                let path = dir.join(format!("swap-mixed-{tag}-{rep}.anns"));
                let mut registry = Registry::new();
                registry.register_alg1(SHARD, Arc::clone(&index), K);
                registry.register_alg2("alg2-k3", Arc::clone(&index), Alg2Config::with_k(K));
                save(&registry, &path)?;
                indexes.push(index);
                paths.push(path);
            }
            let datasets: Vec<_> = indexes.iter().map(|i| i.dataset()).collect();
            let queries = query_set(&datasets, cfg.distinct, FLIPS, &mut rng);
            drop(indexes);
            let mounts = Arc::new(MountTable::new());
            let (mount_ms, ready_ms) = mount_ready(&mounts, SWAP_NS, &paths[0])?;
            let swapper = Swapper {
                mounts: Arc::clone(&mounts),
                paths: [paths[0].clone(), paths[1].clone()],
                live: 0,
                period_ns: (cfg.swap_every_s * 1e9) as u64,
                next_ns: None,
                last: None,
                log: Vec::new(),
                epochs: vec![(mounts.epoch(), 0)],
                failures: 0,
            };
            let shards = vec![format!("{SWAP_NS}/{SHARD}"), format!("{SWAP_NS}/alg2-k3")];
            Prepared {
                stack: Stack::in_process(mounts),
                traffic: zipf(rng, shards, queries),
                swapper: Some(swapper),
                index: None,
                bundles: paths,
                build_s,
                mount_ms,
                ready_ms,
            }
        }
    };
    Ok(prepared)
}
