//! `annsctl` — a small operator CLI over the library.
//!
//! ```text
//! annsctl build       --n 4096 --d 512 --gamma 2.0 --seed 7 --out index.anns
//! annsctl query       --store index.anns --k 3 [--flips 8] [--count 16]
//! annsctl lambda      --store index.anns --lambda 8
//! annsctl stats       --store index.anns
//! annsctl save        --out bundle.anns [--scheme all] [--n 1024 --d 256]
//! annsctl load        --store bundle.anns [--store-backend heap|mmap] [--verify-queries 4]
//! annsctl inspect     --store bundle.anns
//! annsctl mount       --mounts a=x.anns,b=y.anns [--store-backend heap|mmap] [--verify-queries 4]
//! annsctl swap        --mounts a=x.anns,b=y.anns --swap a=x2.anns [--requests 256]
//! annsctl serve       [--from-store bundle.anns | --mounts a=x.anns,…] [--store-backend heap|mmap]
//! annsctl serve       --online 1 [--rate 4000] [--window 16] [--max-wait-us 500] [--queue-cap 256]
//! annsctl serve       --trace-out trace.jsonl [--trace-cap 4096] […]
//! annsctl server      --listen 127.0.0.1:0 [--addr-file addr.txt] [--tenants hot:0:8,…] [--max-conns 256] [--out report.json]
//! annsctl client      --addr 127.0.0.1:PORT [--tenant acme] [--count 4] [--shutdown 1]
//! annsctl trace       inspect --trace trace.jsonl [--limit 12] [--server-report report.json]
//! annsctl attack      [--scenario quick] [--rounds 240] [--seed 42] [--band 0.05] [--out report.json]
//! annsctl bench-attack [--seed 42] --out BENCH_attack_quick.json
//! annsctl bench-serve [--from-store bundle.anns] [--shards 4] --out BENCH_serve.json
//! annsctl bench-kernels [--dims 64,256,512] [--n 16384] --out BENCH_kernels.json
//! annsctl bench-obs   [--events 2000000] [--capacity 4096] --out BENCH_obs.json
//! annsctl bench-server --addr 127.0.0.1:PORT [--hot-requests 40] [--requests 12] --out BENCH_server.json
//! annsctl bench-store [--small-n 1024 --large-n 8192 --d 256] --out BENCH_store.json
//! annsctl bench-gate  --current BENCH_new.json --reference BENCH_serve_quick.json
//! annsctl lpm         --sigma 4 --m 8 --n 64 --k 2 --queries 32
//! annsctl lb          --log2n 1.3e24 --log2d 1.1e12 --gamma 4 --k 3
//! ```
//!
//! Exists so the index can be exercised without writing Rust. Every
//! command that reads or writes an index uses one format, the versioned
//! **binary store bundle** (`anns-store`: checksummed sections holding
//! deduplicated index payloads plus every registered scheme). `build`
//! indexes a seeded uniform database into a one-shard bundle (`save`
//! with `--scheme alg1`), `query` / `lambda` load its index and run the
//! paper's schemes, `stats` prints the space model and the index's bytes,
//! `save` / `load` / `inspect` write, load and check bundles of any
//! scheme mix, `mount` assembles a multi-bundle registry (one
//! namespace per bundle, cross-bundle index deduplication) and prints
//! each mount's provenance manifest, `swap`
//! demonstrates the zero-downtime path — it serves a workload *while*
//! hot-swapping one namespace and exits nonzero unless every query
//! completed and the old mount fully retired, `serve` drives the
//! round-synchronous engine — warm-started from one bundle via
//! `--from-store` or several via `--mounts` — and exits nonzero on budget
//! violations or a failed round-integrity audit (`serve --online 1`
//! instead drives the *admission queue* with a Poisson-ish arrival stream
//! at `--rate` q/s, windows sealing at `--window` queries or the
//! `--max-wait-us` deadline, and reports admission-wait and latency
//! percentiles, exiting nonzero on any shed arrival, failed query, or
//! budget violation; either mode takes `--trace-out` to install a
//! flight-recording ring of `anns_obs::TraceEvent`s — the final ring is
//! written to the given path as JSON lines, and anomalies dump
//! mid-flight snapshots to `<path>.flight`), `trace inspect` summarizes
//! such a trace offline (event counts, sealed windows, per-generation
//! coalescing, per-query timelines, queue depth — and with
//! `--server-report` it reconciles the trace's per-tenant
//! `tenant_decision` events against a server drain report by exact
//! equality), `server` binds the framed TCP front (`anns-server`) over
//! the same serving surface with per-tenant token-bucket policies
//! (`--tenants name:rate:burst,…`) and serves until a `Shutdown` frame
//! drains it, `client` speaks the wire protocol from the other side —
//! each refusal class exits with its own code (3 overloaded, 4 closed,
//! 5 throttled, 6 transport, 7 other) so scripts can branch on the
//! verdict — `bench-server` drives a three-tenant workload (one hot,
//! two compliant) against a running server and records per-tenant
//! outcome counters plus socket-to-ticket / socket-to-answer latency
//! splits, and exits 1 if a compliant tenant was refused,
//! `bench-obs` times the recorder fast path (`NullRecorder` vs ring)
//! and writes `BENCH_obs.json`, `bench-serve` races coalesced engine serving
//! against per-query `run_batch` (optionally across `--shards N` mounted
//! namespaces), appends a deterministic admission-queue run on a virtual
//! clock, and writes `BENCH_serve.json`,
//! `bench-kernels` times the scalar per-`Point` distance loop against the
//! limb-major `PackedBlock` kernels and writes `BENCH_kernels.json`,
//! `attack` runs the adversarial-robustness suite (`anns-attack`:
//! adaptive attackers driven through the real engine + admission queue,
//! the subsampled-repetition defense under test) and exits nonzero if
//! the defended scheme's adaptive degradation exceeds `--band`,
//! `bench-attack` runs that suite twice, verifies the two traces are
//! byte-identical, and writes the committed `BENCH_attack_quick.json`
//! artifact the CI attack gate diffs against,
//! `bench-gate` compares any one such artifact against its committed
//! reference through the flat `metrics` list every `bench-*` command
//! writes beside its payload (`anns_bench::gate`: exact rows must be
//! equal, ratio and wall rows stay inside the reference row's own band;
//! each producer checks its single-run invariants itself and exits
//! nonzero after writing), `lpm` runs the trie scheme end to end,
//! and `lb` invokes the round-elimination calculator.
//!
//! The operator-facing walkthrough of these commands lives in
//! `docs/SERVING.md`; the bundle format itself in `docs/STORE_FORMAT.md`.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use anns_attack::{run_suite, BenchAttackReport, RobustnessReport, ScenarioConfig};
use anns_bench::gate::{self, Better, Metric};
use anns_bench::server_bench::{
    rtt_pct_us, BenchServerConfig, BenchServerReport, TenantBenchRow, TenantWorkloadSpec,
};
use anns_bench::{hot_set_workload, quick_mode, MarkdownTable};
use anns_cellprobe::{
    execute, execute_with, run_batch, CellProbeScheme, ExecOptions, RoundExecutor, Table,
};
use anns_core::serve::{ServableScheme, SoloServable};
use anns_core::{Alg2Config, AnnIndex, AnnsInstance, BuildOptions};
use anns_engine::{
    current_rss_anon_bytes, current_rss_bytes, current_rss_file_bytes, AdmissionOptions,
    AdmissionQueue, Clock, Engine, EngineOptions, FlightRecorder, MountManifest, MountTable,
    NamedRequest, NullRecorder, QueryRequest, RealClock, Recorder, Registry, Resolution,
    RingRecorder, ServeReport, Served, ShardId, StoreBackend, Ticket, TraceCounters, TraceEvent,
    VirtualClock,
};
use anns_hamming::{gen, Point};
use anns_lpm::{certified_lower_bound, lower_bound_form, ElimParams, LpmInstance, TrieLpm};
use anns_server::{
    AnnsServer, Client, ClientError, ErrorCode, ServerOptions, ServerReport, TenantPolicy,
};
use anns_sketch::SketchParams;
use anns_store::Codec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parses `--key value` pairs after the subcommand.
fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .unwrap_or_else(|| die(&format!("expected --flag, got {}", args[i])));
        // Unknown flags are otherwise ignored, and serving a fresh random
        // index in place of the one named would be a silently wrong answer.
        if key == "index" {
            die(
                "--index is retired: an index is a bundle; read one with --store \
                 (query, lambda, stats) or --from-store (serve, bench-serve)",
            );
        }
        let value = args
            .get(i + 1)
            .unwrap_or_else(|| die(&format!("--{key} needs a value")));
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    flags
}

fn die(msg: &str) -> ! {
    eprintln!("annsctl: {msg}");
    eprintln!(
        "usage: annsctl <build|query|lambda|stats|save|load|inspect|mount|swap|serve|server|client|trace|attack|bench-attack|bench-serve|bench-kernels|bench-obs|bench-server|bench-store|bench-gate|lpm|lb> [--flag value]…"
    );
    std::process::exit(2);
}

/// Writes a `bench-*` artifact: the payload with its gate rows beside it.
fn write_artifact(out: &str, payload: &impl serde::Serialize, metrics: Vec<Metric>) {
    let json = serde_json::to_string_pretty(&gate::with_metrics(payload, metrics))
        .expect("artifact serializes");
    std::fs::write(out, json).unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
    println!("report → {out}");
}

/// Exits 1 when a producer's single-run invariants failed, after its
/// artifact is written so the failing run can be inspected.
fn exit_on_failures(command: &str, failures: &[String]) {
    for failure in failures {
        eprintln!("{command}: FAIL — {failure}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

/// Parses `--mounts ns=path[,ns=path…]` into `(namespace, path)` pairs.
fn parse_mounts(spec: &str) -> Vec<(String, String)> {
    spec.split(',')
        .map(str::trim)
        .filter(|part| !part.is_empty())
        .map(|part| {
            let (ns, path) = part
                .split_once('=')
                .unwrap_or_else(|| die(&format!("--mounts entry {part:?} must be ns=path")));
            (ns.to_string(), path.to_string())
        })
        .collect()
}

/// Parses `--store-backend {heap,mmap}` (default `heap`). `heap` reads,
/// verifies and decodes the whole bundle up front; `mmap` maps the file,
/// reads O(manifest) bytes eagerly and defers per-index verification to
/// first touch, so resident memory tracks the queried working set.
fn store_backend_flag(flags: &HashMap<String, String>) -> StoreBackend {
    match flags.get("store-backend") {
        Some(v) => StoreBackend::parse(v).unwrap_or_else(|e| die(&e)),
        None => StoreBackend::default(),
    }
}

/// Loads a bundle into a fresh registry through the selected backend.
fn load_bundle_with(path: &str, backend: StoreBackend) -> anns_engine::LoadedBundle {
    let result = match backend {
        StoreBackend::Heap => Registry::load_bundle(path),
        StoreBackend::Mmap => Registry::load_bundle_mapped(path),
    };
    result.unwrap_or_else(|e| {
        die(&format!(
            "cannot load store {path} ({backend} backend): {e}"
        ))
    })
}

/// Prints one mount's provenance manifest (shared by `mount`/`load`).
fn print_manifest(m: &MountManifest) {
    println!("  {}", m.summary());
    println!(
        "    format v{}, kind {}, tool {:?}",
        m.format_version, m.container_kind, m.tool
    );
    for digest in &m.sections {
        println!(
            "    section {} {:>10} bytes  crc32 {:#010x}",
            digest.tag_string(),
            digest.len,
            digest.crc
        );
    }
    for digest in &m.skipped {
        println!(
            "    skipped {} {:>10} bytes (unknown tag; newer writer?)",
            digest.tag_string(),
            digest.len
        );
    }
    for shard in &m.shards {
        println!("    shard   {shard}");
    }
}

fn flag<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    match flags.get(key) {
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| die(&format!("--{key}: cannot parse {v:?}"))),
        None => default,
    }
}

fn required(flags: &HashMap<String, String>, key: &str) -> String {
    flags
        .get(key)
        .cloned()
        .unwrap_or_else(|| die(&format!("--{key} is required")))
}

/// The first pooled index of the bundle named by `--{key}`, decoded on
/// the heap backend: the index `build` or `save` wrote.
fn store_index(flags: &HashMap<String, String>, key: &str) -> Arc<AnnIndex> {
    let path = required(flags, key);
    load_bundle_with(&path, StoreBackend::Heap)
        .indexes
        .first()
        .cloned()
        .unwrap_or_else(|| die(&format!("{path} holds no AnnIndex-backed shard")))
}

/// Parses `--n`/`--d` for a fresh seeded-uniform index, refusing shapes
/// the sketch family cannot be sampled for.
fn index_shape(flags: &HashMap<String, String>, n_default: usize, d_default: u32) -> (usize, u32) {
    let n: usize = flag(flags, "n", n_default);
    let d: u32 = flag(flags, "d", d_default);
    if n < 2 || d < 2 {
        die(&format!(
            "--n and --d must be at least 2, got --n {n} --d {d}"
        ));
    }
    (n, d)
}

fn cmd_query(flags: HashMap<String, String>) {
    let index = store_index(&flags, "store");
    let k: u32 = flag(&flags, "k", 3);
    let flips: u32 = flag(&flags, "flips", 8);
    let count: usize = flag(&flags, "count", 8);
    let seed: u64 = flag(&flags, "seed", 99);
    let mut rng = StdRng::seed_from_u64(seed);
    let d = index.dataset().dim();
    println!(
        "{:>4} {:>8} {:>8} {:>10} {:>8}",
        "#", "probes", "rounds", "distance", "γ-ok"
    );
    for i in 0..count {
        let base = rng.gen_range(0..index.dataset().len());
        let query = gen::point_at_distance(index.dataset().point(base), flips.min(d), &mut rng);
        let (outcome, ledger) = index.query(&query, k);
        let dist = index
            .outcome_point(&outcome)
            .map(|p| query.distance(p).to_string())
            .unwrap_or_else(|| "-".into());
        println!(
            "{i:>4} {:>8} {:>8} {dist:>10} {:>8}",
            ledger.total_probes(),
            ledger.rounds(),
            index.verify_gamma(&query, &outcome)
        );
    }
}

fn cmd_lambda(flags: HashMap<String, String>) {
    let index = store_index(&flags, "store");
    let lambda: f64 = flag(&flags, "lambda", 8.0);
    let seed: u64 = flag(&flags, "seed", 99);
    let mut rng = StdRng::seed_from_u64(seed);
    let d = index.dataset().dim();
    let query = Point::random(d, &mut rng);
    let (answer, ledger) = index.query_lambda(&query, lambda);
    println!("λ = {lambda}: {answer:?} ({} probe)", ledger.total_probes());
}

fn cmd_stats(flags: HashMap<String, String>) {
    let index = store_index(&flags, "store");
    let model = index.table().space_model();
    println!("n          : {}", index.dataset().len());
    println!("d          : {}", index.dataset().dim());
    println!("γ          : {}", index.family().params().gamma);
    println!("scales     : {}", index.family().top() + 1);
    println!("m-rows     : {}", index.family().m_rows());
    println!("n-rows     : {}", index.family().n_rows());
    println!("log₂ cells : {:.1} (model)", model.cells_log2);
    println!("word bits  : {}", model.word_bits);
    let memory = index.memory();
    println!("memory     : {} B owned (from lengths)", memory.owned());
    for (owner, bytes) in memory.named() {
        println!("  {owner:<14}: {bytes} B");
    }
}

/// Builds a fresh seeded-uniform index from `--n/--d/--gamma/--seed`.
fn build_index(flags: &HashMap<String, String>, n_default: usize, d_default: u32) -> Arc<AnnIndex> {
    let (n, d) = index_shape(flags, n_default, d_default);
    let gamma: f64 = flag(flags, "gamma", 2.0);
    let seed: u64 = flag(flags, "seed", 7);
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = gen::uniform(n, d, &mut rng);
    Arc::new(AnnIndex::build(
        ds,
        SketchParams::practical(gamma, seed),
        BuildOptions::default(),
    ))
}

/// Registers the requested schemes (comma-separated list of
/// `alg1|alg2|lambda|lsh|linear|all`) over a shared index. Shared by
/// `serve` (cold start) and `save`, so a saved bundle serves exactly what
/// a cold-started registry would.
fn build_registry(
    flags: &HashMap<String, String>,
    index: &Arc<AnnIndex>,
    default_scheme: &str,
) -> Registry {
    let scheme: String = flag(flags, "scheme", default_scheme.to_string());
    let k: u32 = flag(flags, "k", 3);
    let lambda: f64 = flag(flags, "lambda", 8.0);
    let lsh_r: f64 = flag(flags, "lsh-r", 6.0);
    let seed: u64 = flag(flags, "seed", 99);
    // Algorithm 2 needs at least two rounds; an out-of-range --k is
    // clamped with a visible warning rather than silently rewritten.
    let alg2_k = k.max(2);
    let mut registry = Registry::new();
    let register_alg2 = |registry: &mut Registry| {
        if alg2_k != k {
            eprintln!(
                "warning: --k {k} is below Algorithm 2's minimum; serving alg2 at k = {alg2_k}"
            );
        }
        registry.register_alg2(
            format!("alg2-k{alg2_k}"),
            Arc::clone(index),
            Alg2Config::with_k(alg2_k),
        );
    };
    for part in scheme.split(',').map(str::trim) {
        match part {
            "alg1" => {
                registry.register_alg1(format!("alg1-k{k}"), Arc::clone(index), k);
            }
            "alg2" => register_alg2(&mut registry),
            "lambda" => {
                registry.register_lambda(format!("lambda-{lambda}"), Arc::clone(index), lambda);
            }
            "lsh" => {
                let (n, d) = (index.dataset().len(), index.dataset().dim());
                let gamma = index.family().params().gamma;
                let params = anns_lsh::LshParams::for_radius(n, d, lsh_r, gamma, 8.0);
                let mut rng = StdRng::seed_from_u64(seed ^ 0x15A);
                let lsh = anns_lsh::LshIndex::build(index.dataset().clone(), params, &mut rng);
                registry.register(
                    format!("lsh-K{}L{}", params.k_bits, params.l_tables),
                    Box::new(anns_lsh::ServeLsh {
                        index: Arc::new(lsh),
                    }),
                );
            }
            "linear" => {
                registry.register(
                    format!("linear-n{}", index.dataset().len()),
                    Box::new(anns_lsh::ServeLinear {
                        scan: Arc::new(anns_lsh::LinearScan::new(index.dataset().clone())),
                    }),
                );
            }
            "all" => {
                registry.register_alg1(format!("alg1-k{k}"), Arc::clone(index), k);
                register_alg2(&mut registry);
                registry.register_lambda(format!("lambda-{lambda}"), Arc::clone(index), lambda);
            }
            other => die(&format!(
                "--scheme must be a comma list of alg1|alg2|lambda|lsh|linear|all, got {other}"
            )),
        }
    }
    registry
}

/// The serving surface behind `serve`/`bench-serve`: a multi-bundle
/// mounted registry (`--mounts ns=path,…`), a single-bundle warm start
/// (`--from-store`), or a cold-built registry over a fresh index.
fn registry_and_index(flags: &HashMap<String, String>) -> (Registry, Arc<AnnIndex>) {
    let backend = store_backend_flag(flags);
    if let Some(spec) = flags.get("mounts") {
        let mut registry = Registry::new();
        for (ns, path) in parse_mounts(spec) {
            let manifest = match backend {
                StoreBackend::Heap => registry.mount(&ns, &path),
                StoreBackend::Mmap => registry.mount_mapped(&ns, &path),
            }
            .unwrap_or_else(|e| die(&format!("cannot mount {ns}={path}: {e}")));
            eprintln!("mounted {}", manifest.summary());
        }
        // One workload round-robins over every shard, so every mounted
        // dataset must share its query dimension.
        require_one_dimension(&registry);
        let index = registry
            .any_pooled_index()
            .unwrap_or_else(|| die("mounted bundles hold no AnnIndex-backed shard"));
        (registry, index)
    } else if let Some(path) = flags.get("from-store") {
        let bundle = load_bundle_with(path, backend);
        let index = bundle
            .indexes
            .first()
            .cloned()
            .or_else(|| bundle.registry.any_pooled_index())
            .unwrap_or_else(|| die(&format!("{path} holds no AnnIndex-backed shard")));
        eprintln!(
            "warm start: {} shard(s), {} pooled index(es) from {path} ({} backend)",
            bundle.registry.len(),
            bundle.registry.pooled_indexes().len(),
            bundle.report.backend
        );
        if !bundle.report.skipped.is_empty() {
            eprintln!(
                "warm start: {} unknown section(s) skipped — see `annsctl load` for details",
                bundle.report.skipped.len()
            );
        }
        (bundle.registry, index)
    } else {
        let index = build_index(flags, 1024, 256);
        (build_registry(flags, &index, "all"), index)
    }
}

/// Smoke-runs a few queries per shard through the solo executor, dying
/// if any shard exceeds its declared budgets — the shared post-load
/// verification behind `load` and `mount`. Queries are generated from
/// `index`, so it must come from the same bundle as the shards (query
/// dimension must match the dataset's).
fn verify_shard_budgets(registry: &Registry, index: &Arc<AnnIndex>, verify: usize, seed: u64) {
    let queries = hot_set_workload(index, verify, verify, 6, seed);
    for shard in 0..registry.len() {
        let scheme = registry.scheme(ShardId(shard));
        let mut within = true;
        for q in &queries {
            let (_, ledger) = execute(&SoloServable(scheme), q);
            within &= scheme.within_budget(&ledger);
        }
        println!(
            "  verify {}: {verify} queries, within budget = {within}",
            registry.name(ShardId(shard))
        );
        if !within {
            die("shard exceeded its declared budgets");
        }
    }
}

/// Dies unless every shard declares the same query dimension — the
/// precondition for generating one query workload that is valid on
/// every mounted shard (`serve --mounts`, `swap`). Checked per *shard*
/// (`ServableScheme::query_dim`), so foreign LSH/linear shards count
/// too, not just pool-backed `AnnIndex` schemes.
fn require_one_dimension(registry: &Registry) {
    let dims: std::collections::BTreeSet<u32> = (0..registry.len())
        .filter_map(|i| registry.scheme(ShardId(i)).query_dim())
        .collect();
    if dims.len() > 1 {
        die(&format!(
            "mounted bundles span multiple query dimensions {dims:?}; \
             one workload cannot query them all — mount same-dimension shards"
        ));
    }
}

fn cmd_mount(flags: HashMap<String, String>) {
    let spec = required(&flags, "mounts");
    let verify: usize = flag(&flags, "verify-queries", 4);
    let seed: u64 = flag(&flags, "seed", 99);
    let backend = store_backend_flag(&flags);
    let mounts = parse_mounts(&spec);
    let mut registry = Registry::new();
    let started = Instant::now();
    for (ns, path) in &mounts {
        match backend {
            StoreBackend::Heap => registry.mount(ns, path),
            StoreBackend::Mmap => registry.mount_mapped(ns, path),
        }
        .unwrap_or_else(|e| die(&format!("cannot mount {ns}={path}: {e}")));
    }
    let mount_ms = started.elapsed().as_secs_f64() * 1e3;
    let (eager, file): (u64, u64) = registry
        .mounts()
        .iter()
        .fold((0, 0), |(e, f), m| (e + m.eager_bytes, f + m.file_bytes));
    println!(
        "mounted {} bundle(s), {} shard(s), {} distinct pooled index(es) in {mount_ms:.1} ms \
         ({backend} backend: {eager} / {file} bytes eager, rss {} KiB)",
        registry.mounts().len(),
        registry.len(),
        registry.pooled_indexes().len(),
        current_rss_bytes() / 1024
    );
    for manifest in registry.mounts().to_vec() {
        print_manifest(&manifest);
    }
    // Per-bundle verification: each namespace's shards are queried at
    // *its own* dataset dimension (bundles of different dimensions mount
    // fine side by side; one shared workload would not fit them all).
    if verify > 0 {
        for (ns, path) in &mounts {
            let bundle = load_bundle_with(path, backend);
            let index = bundle
                .indexes
                .first()
                .cloned()
                .or_else(|| bundle.registry.any_pooled_index());
            let Some(index) = index else {
                println!("  verify {ns}: no pooled index, skipping query verification");
                continue;
            };
            println!("  namespace {ns}:");
            verify_shard_budgets(&bundle.registry, &index, verify, seed);
        }
    }
}

fn cmd_swap(flags: HashMap<String, String>) {
    let spec = required(&flags, "mounts");
    let swap_spec = required(&flags, "swap");
    let requests_n: usize = flag(&flags, "requests", 256);
    let batch: usize = flag(&flags, "batch", 16);
    let threads: usize = flag(&flags, "threads", 4);
    let flips: u32 = flag(&flags, "flips", 6);
    let seed: u64 = flag(&flags, "seed", 99);
    let swaps = parse_mounts(&swap_spec);
    let [(swap_ns, swap_path)] = &swaps[..] else {
        die("--swap takes exactly one ns=path");
    };

    let mounts = Arc::new(MountTable::new());
    for (ns, path) in parse_mounts(&spec) {
        let receipt = mounts
            .mount(&ns, &path)
            .unwrap_or_else(|e| die(&format!("cannot mount {ns}={path}: {e}")));
        eprintln!(
            "mounted {} (epoch {})",
            receipt.manifest.as_ref().expect("mount manifest").summary(),
            receipt.epoch
        );
    }
    let initial = mounts.current();
    if initial.manifest(swap_ns).is_none() {
        die(&format!("--swap namespace {swap_ns:?} is not in --mounts"));
    }
    // One named workload round-robins over every shard across the swap,
    // so every mounted dataset must share its query dimension.
    require_one_dimension(&initial);
    let index = initial
        .pooled_indexes()
        .first()
        .cloned()
        .unwrap_or_else(|| die("mounted bundles hold no AnnIndex-backed shard"));
    let shard_names: Vec<String> = initial
        .listing()
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    drop(initial);

    // Serve a workload round-robin over every mounted shard *by name*
    // while the swap lands: names stay valid across the epoch flip.
    let queries = hot_set_workload(&index, requests_n, (requests_n / 4).max(1), flips, seed);
    let reqs: Vec<NamedRequest> = queries
        .into_iter()
        .enumerate()
        .map(|(i, query)| NamedRequest {
            shard: shard_names[i % shard_names.len()].clone(),
            query,
        })
        .collect();
    let engine = Engine::over(
        Arc::clone(&mounts),
        EngineOptions {
            generation: batch.max(1),
            exec: ExecOptions::default(),
            batch_threads: threads,
        },
    );
    eprintln!(
        "serving {} requests over {} shard(s) while swapping {swap_ns}={swap_path}…",
        reqs.len(),
        shard_names.len()
    );
    let started = Instant::now();
    let (served, receipt) = std::thread::scope(|scope| {
        let engine = &engine;
        let reqs = &reqs;
        let serve = scope.spawn(move || engine.submit_named(reqs));
        let swap = scope.spawn({
            let mounts = Arc::clone(&mounts);
            let (ns, path) = (swap_ns.clone(), swap_path.clone());
            move || mounts.swap(&ns, &path)
        });
        (
            serve.join().expect("serve thread"),
            swap.join().expect("swap thread"),
        )
    });
    let wall = started.elapsed();
    let receipt = receipt.unwrap_or_else(|e| die(&format!("swap failed: {e}")));
    let failed = served.iter().filter(|r| r.is_err()).count();
    let ok: Vec<Served> = served.into_iter().filter_map(Result::ok).collect();
    let old_epoch_queries = ok.iter().filter(|s| s.epoch < receipt.epoch).count();
    let retired = receipt.wait_retired(std::time::Duration::from_secs(10));
    let stats = engine.stats();
    println!(
        "swap {} → epoch {}: {} queries ok ({} on the old epoch, {} on the new), {} failed, \
         old mount retired = {retired}, wall {:.1} ms",
        swap_ns,
        receipt.epoch,
        ok.len(),
        old_epoch_queries,
        ok.len() - old_epoch_queries,
        failed,
        wall.as_secs_f64() * 1e3
    );
    println!(
        "epochs served = {}, budget violations = {}",
        stats.epochs_served, stats.budget_violations
    );
    if failed > 0 || !retired || stats.budget_violations > 0 {
        die("hot swap must complete with zero failed queries and a fully retired old mount");
    }
}

/// An online (admission-queue) serving run, JSON-emitted by
/// `serve --online` and embedded in the `bench-serve` report.
#[derive(serde::Serialize)]
struct OnlineReport {
    /// Window width (`max_generation`).
    window: usize,
    /// Window deadline in microseconds.
    max_wait_us: u64,
    /// Queue capacity (backpressure bound).
    capacity: usize,
    /// Target arrival rate in q/s (0 = open loop: enqueue immediately).
    rate_qps: f64,
    /// Arrivals shed with `Overloaded` (must be 0 for a clean exit).
    shed: u64,
    /// Enqueued requests that resolved to an error.
    failed: u64,
    /// Windows sealed.
    windows: u64,
    /// … because they reached `window` queries.
    sealed_by_fill: u64,
    /// … because the oldest waiter hit the deadline.
    sealed_by_deadline: u64,
    /// … because the queue was closed (final flush).
    sealed_by_drain: u64,
    /// Mean queries per sealed window.
    mean_fill: f64,
    /// The serving metrics of the resolved queries. `wait` holds the
    /// admission-wait percentiles; `latency` the in-generation latency.
    report: ServeReport,
}

/// Runs a request stream through an [`AdmissionQueue`], returning the
/// per-ticket resolutions in enqueue order plus locally-observed sheds.
/// `pace` is called before each enqueue (arrival-process hook).
fn drive_admission_queue(
    queue: &Arc<AdmissionQueue>,
    requests: Vec<NamedRequest>,
    mut pace: impl FnMut(usize),
) -> (Vec<Resolution>, u64) {
    std::thread::scope(|scope| {
        let driver = {
            let queue = Arc::clone(queue);
            scope.spawn(move || queue.run())
        };
        let mut tickets: Vec<Ticket> = Vec::with_capacity(requests.len());
        let mut shed = 0u64;
        for (i, request) in requests.into_iter().enumerate() {
            pace(i);
            match queue.enqueue(request) {
                Ok(ticket) => tickets.push(ticket),
                Err(e) => {
                    eprintln!("online: arrival {i} shed: {e}");
                    shed += 1;
                }
            }
        }
        queue.close();
        let resolutions: Vec<Resolution> = tickets.into_iter().map(Ticket::wait).collect();
        driver.join().expect("admission driver thread");
        (resolutions, shed)
    })
}

/// Builds the [`OnlineReport`] for one finished admission-queue run,
/// patching in the engine-side coalescing accounting (the queue path has
/// no per-call `GenerationTrace`s; the cumulative stats carry them).
fn online_report(
    label: String,
    engine: &Engine,
    queue: &AdmissionQueue,
    resolutions: &[Resolution],
    rate_qps: f64,
    wall: Duration,
) -> OnlineReport {
    let ok: Vec<Served> = resolutions
        .iter()
        .filter_map(|r| r.result.as_ref().ok().cloned())
        .collect();
    let failed = (resolutions.len() - ok.len()) as u64;
    let waits: Vec<u64> = resolutions.iter().map(|r| r.wait_ns).collect();
    let stats = engine.stats();
    let mut report = ServeReport::from_run(label, &ok, &[], wall)
        .with_options(engine.options())
        .with_wait(&waits);
    if let Some(manifest) = engine.registry().mounts().first() {
        report = report.with_backend(manifest);
    }
    report.probes_submitted = stats.probes_submitted;
    report.probes_executed = stats.probes_executed;
    report.coalescing_ratio = stats.coalescing_ratio();
    OnlineReport {
        window: queue.options().max_generation,
        max_wait_us: queue.options().max_wait.as_micros() as u64,
        capacity: queue.options().capacity,
        rate_qps,
        shed: stats.online.shed,
        failed,
        windows: stats.online.windows,
        sealed_by_fill: stats.online.sealed_by_fill,
        sealed_by_deadline: stats.online.sealed_by_deadline,
        sealed_by_drain: stats.online.sealed_by_drain,
        mean_fill: stats.online.fill_hist.mean(),
        report,
    }
}

/// Builds the `--trace-out` flight recorder for a serve run: a bounded
/// ring of `--trace-cap` events on the real clock, with anomaly dumps
/// going to `<trace-out>.flight`. `None` when tracing is off.
fn trace_recorder(flags: &HashMap<String, String>) -> Option<(String, Arc<FlightRecorder>)> {
    let path = flags.get("trace-out")?.clone();
    let cap: usize = flag(flags, "trace-cap", 4096);
    let flight = Arc::new(FlightRecorder::new(
        cap,
        Arc::new(RealClock::new()) as Arc<dyn Clock>,
        format!("{path}.flight"),
    ));
    Some((path, flight))
}

/// Writes the final ring to `path` as JSON lines and returns the trace
/// counters for the report.
fn finish_trace(path: &str, flight: &FlightRecorder) -> TraceCounters {
    let jsonl = flight.ring().to_jsonl();
    std::fs::write(path, &jsonl).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
    let counters = flight.counters();
    eprintln!(
        "trace → {path} ({} event(s), {} dropped, {} flight dump(s))",
        counters.events,
        counters.dropped,
        flight.dumps()
    );
    counters
}

/// `serve --online 1`: the admission-queue serving loop under a
/// Poisson-ish arrival stream on the real clock. Exits nonzero on any
/// shed arrival, failed query, or budget violation — the CI smoke
/// contract.
fn cmd_serve_online(flags: HashMap<String, String>) {
    let (registry, index) = registry_and_index(&flags);
    let requests_n: usize = flag(&flags, "requests", 256);
    let distinct: usize = flag(&flags, "distinct", requests_n / 4);
    let flips: u32 = flag(&flags, "flips", 6);
    let window: usize = flag(&flags, "window", 16);
    let threads: usize = flag(&flags, "threads", 4);
    let seed: u64 = flag(&flags, "seed", 99);
    let max_wait_us: u64 = flag(&flags, "max-wait-us", 500);
    let capacity: usize = flag(&flags, "queue-cap", requests_n.max(1));
    let rate: f64 = flag(&flags, "rate", 4000.0);

    let trace = trace_recorder(&flags);
    let mut engine = Engine::new(
        registry,
        EngineOptions {
            generation: window.max(1),
            exec: ExecOptions::default(),
            batch_threads: threads,
        },
    );
    if let Some((_, flight)) = &trace {
        engine = engine.recorded(Arc::clone(flight) as Arc<dyn Recorder>);
    }
    let engine = Arc::new(engine);
    let shard_names: Vec<String> = engine
        .registry()
        .listing()
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    if shard_names.is_empty() {
        die("nothing to serve: registry is empty");
    }
    let queue = Arc::new(AdmissionQueue::new(
        Arc::clone(&engine),
        AdmissionOptions {
            max_generation: window.max(1),
            max_wait: Duration::from_micros(max_wait_us),
            capacity,
        },
        Arc::new(RealClock::new()),
    ));
    let queries = hot_set_workload(&index, requests_n, distinct.max(1), flips, seed);
    let requests: Vec<NamedRequest> = queries
        .into_iter()
        .enumerate()
        .map(|(i, query)| NamedRequest {
            shard: shard_names[i % shard_names.len()].clone(),
            query,
        })
        .collect();
    eprintln!(
        "online: {requests_n} arrivals at ~{rate:.0} q/s over {} shard(s), \
         window {window}, deadline {max_wait_us} µs, capacity {capacity}…",
        shard_names.len()
    );

    let mut rng = StdRng::seed_from_u64(seed ^ 0xA771);
    let started = Instant::now();
    let (resolutions, _) = drive_admission_queue(&queue, requests, |_| {
        if rate > 0.0 {
            // Exponential inter-arrival times: a Poisson-ish open loop,
            // capped so one extreme draw cannot stall the stream.
            let u: f64 = rng.gen();
            let dt = (-(1.0 - u).ln() / rate).min(0.050);
            std::thread::sleep(Duration::from_secs_f64(dt));
        }
    });
    let wall = started.elapsed();
    let mut online = online_report(
        format!("online[window={window},rate={rate:.0}]"),
        &engine,
        &queue,
        &resolutions,
        rate,
        wall,
    );
    if let Some((path, flight)) = &trace {
        let counters = finish_trace(path, flight);
        online.report.trace_events = counters.events;
        online.report.trace_dropped = counters.dropped;
    }
    let json = serde_json::to_string(&online).expect("serialize online report");
    println!("{json}");
    if let Some(out) = flags.get("out") {
        std::fs::write(out, &json).unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
        eprintln!("report → {out}");
    }
    eprintln!(
        "online: {} ok, {} failed, {} shed; {} windows (fill {}, deadline {}, drain {}), \
         mean fill {:.1}; wait p50/p99 {:.0}/{:.0} µs; latency p50/p99 {:.0}/{:.0} µs",
        online.report.queries,
        online.failed,
        online.shed,
        online.windows,
        online.sealed_by_fill,
        online.sealed_by_deadline,
        online.sealed_by_drain,
        online.mean_fill,
        online.report.wait.p50_us,
        online.report.wait.p99_us,
        online.report.latency.p50_us,
        online.report.latency.p99_us,
    );
    if online.shed > 0 || online.failed > 0 || online.report.budget_violations > 0 {
        die("online serve must complete with zero shed arrivals, zero failures and zero budget violations");
    }
}

fn cmd_serve(flags: HashMap<String, String>) {
    // Every annsctl flag takes a value, so honor it: `--online 0` (or
    // `false`) is the batch path, anything else switches online.
    let online = flags
        .get("online")
        .is_some_and(|v| v != "0" && v != "false");
    if online {
        return cmd_serve_online(flags);
    }
    let (registry, index) = registry_and_index(&flags);
    let requests_n: usize = flag(&flags, "requests", 256);
    let distinct: usize = flag(&flags, "distinct", requests_n / 4);
    let flips: u32 = flag(&flags, "flips", 6);
    let batch: usize = flag(&flags, "batch", 64);
    let threads: usize = flag(&flags, "threads", 4);
    let seed: u64 = flag(&flags, "seed", 99);
    let audit_n: usize = flag(&flags, "audit", requests_n.min(32));

    // Transcripts stay on so the round-integrity audit below can compare
    // the engine's execution against solo replay, query for query.
    let trace = trace_recorder(&flags);
    let mut engine = Engine::new(
        registry,
        EngineOptions {
            generation: batch.max(1),
            exec: ExecOptions::with_transcript(),
            batch_threads: threads,
        },
    );
    if let Some((_, flight)) = &trace {
        engine = engine.recorded(Arc::clone(flight) as Arc<dyn Recorder>);
    }
    let engine = engine;
    let queries = hot_set_workload(&index, requests_n, distinct, flips, seed);
    let shards = engine.registry().len();
    if shards == 0 {
        die("nothing to serve: registry is empty");
    }
    let reqs: Vec<QueryRequest> = queries
        .into_iter()
        .enumerate()
        .map(|(i, query)| QueryRequest {
            shard: ShardId(i % shards),
            query,
        })
        .collect();
    eprintln!(
        "serving {} requests ({} distinct) over {} shard(s), generation width {batch}…",
        reqs.len(),
        distinct,
        shards
    );
    for (name, label) in engine.registry().listing() {
        eprintln!("  shard {name}: {label}");
    }
    let started = Instant::now();
    let (served, traces) = engine.submit_batch_traced(&reqs);
    let wall = started.elapsed();
    let mut report =
        ServeReport::from_run(format!("engine[batch={batch}]"), &served, &traces, wall)
            .with_options(engine.options());
    if let Some(manifest) = engine.registry().mounts().first() {
        report = report.with_backend(manifest);
    }
    if let Some((path, flight)) = &trace {
        report = report.with_trace(finish_trace(path, flight));
    }
    let json = serde_json::to_string(&report).expect("serialize serve report");
    println!("{json}");
    if let Some(out) = flags.get("out") {
        std::fs::write(out, &json).unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
        eprintln!("report → {out}");
    }

    // Round-integrity audit: replay a sample solo and demand identical
    // rounds and transcripts. Together with the budget verdicts this
    // decides the exit code — CI must fail on bad serving behavior, not
    // archive a green-looking artifact of it.
    let mut audit_ok = true;
    for (req, s) in reqs.iter().zip(served.iter()).take(audit_n) {
        let (_, solo_ledger, solo_transcript) = execute_with(
            &SoloServable(engine.registry().scheme(req.shard)),
            &req.query,
            ExecOptions::with_transcript(),
        );
        audit_ok &= s.ledger.rounds() == solo_ledger.rounds() && s.transcript == solo_transcript;
    }
    let mut failed = false;
    if !audit_ok {
        eprintln!("serve: round-integrity audit FAILED over {audit_n} queries");
        failed = true;
    } else {
        eprintln!("serve: round-integrity audit passed over {audit_n} queries");
    }
    if report.budget_violations > 0 {
        eprintln!(
            "serve: {} queries exceeded their declared budgets",
            report.budget_violations
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

/// Parses `--tenants name:rate:burst[,name:rate:burst…]` into
/// per-tenant token-bucket policies (`rate` tokens/s refill, `burst`
/// bucket capacity; rate 0 means the tenant gets exactly `burst`
/// tokens, ever).
fn parse_tenants(spec: &str) -> Vec<(String, TenantPolicy)> {
    spec.split(',')
        .map(str::trim)
        .filter(|part| !part.is_empty())
        .map(|part| {
            let fields: Vec<&str> = part.split(':').collect();
            let [name, rate, burst] = fields[..] else {
                die(&format!("--tenants entry {part:?} must be name:rate:burst"));
            };
            let rate: f64 = rate
                .parse()
                .unwrap_or_else(|_| die(&format!("--tenants {name}: cannot parse rate {rate:?}")));
            let burst: f64 = burst.parse().unwrap_or_else(|_| {
                die(&format!("--tenants {name}: cannot parse burst {burst:?}"))
            });
            (
                name.to_string(),
                TenantPolicy {
                    rate_per_sec: rate,
                    burst,
                },
            )
        })
        .collect()
}

/// `annsctl server`: binds the framed TCP front (`anns-server`) over an
/// engine built from the usual serving surface (`--from-store`,
/// `--mounts`, or a cold build) and serves until a `Shutdown` frame (or
/// signal-less drain via `annsctl client --shutdown 1`) arrives. The
/// bound address goes to stdout and — for scripts that must not parse
/// logs — to `--addr-file`; the drain report (global admission counters
/// plus per-tenant usage rows) is written as JSON to `--out`, and
/// `--trace-out` installs the same flight-recording ring `serve` takes.
fn cmd_server(flags: HashMap<String, String>) {
    let (registry, _index) = registry_and_index(&flags);
    let listen: String = flag(&flags, "listen", "127.0.0.1:0".to_string());
    let window: usize = flag(&flags, "window", 16);
    let max_wait_us: u64 = flag(&flags, "max-wait-us", 2_000);
    let capacity: usize = flag(&flags, "queue-cap", 256);
    let drivers: usize = flag(&flags, "drivers", 0);
    let threads: usize = flag(&flags, "threads", 2);
    let rate: f64 = flag(&flags, "rate", 1_000.0);
    let burst: f64 = flag(&flags, "burst", 256.0);
    let max_conns: usize = flag(&flags, "max-conns", 256);
    // The arrival-rate deadline adapter is on by default; `--adapt 0`
    // pins the configured cap (what the deterministic CI runs want).
    let adapt = flags.get("adapt").is_none_or(|v| v != "0" && v != "false");
    let policies = flags
        .get("tenants")
        .map(|s| parse_tenants(s))
        .unwrap_or_default();

    let trace = trace_recorder(&flags);
    let mut engine = Engine::new(
        registry,
        EngineOptions {
            generation: window.max(1),
            exec: ExecOptions::default(),
            batch_threads: threads,
        },
    );
    if let Some((_, flight)) = &trace {
        engine = engine.recorded(Arc::clone(flight) as Arc<dyn Recorder>);
    }
    let opts = ServerOptions {
        admission: AdmissionOptions {
            max_generation: window.max(1),
            max_wait: Duration::from_micros(max_wait_us),
            capacity,
        },
        drivers,
        default_policy: TenantPolicy {
            rate_per_sec: rate,
            burst,
        },
        policies: policies.clone(),
        adapt_max_wait: adapt,
        max_connections: max_conns,
    };
    let server = AnnsServer::bind(&listen, Arc::new(engine), opts, Arc::new(RealClock::new()))
        .unwrap_or_else(|e| die(&format!("cannot bind {listen}: {e}")));
    let addr = server.local_addr();
    println!("listening {addr}");
    if let Some(path) = flags.get("addr-file") {
        std::fs::write(path, addr.to_string())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
    }
    eprintln!(
        "server: {} shard(s), {} driver(s), window {window}, deadline cap {max_wait_us} µs \
         ({}), capacity {capacity}, max-conns {max_conns}, default policy {rate}/s burst {burst}, \
         {} tenant override(s)",
        server.engine().registry().len(),
        server.drivers(),
        if adapt { "adaptive" } else { "pinned" },
        policies.len()
    );
    server.run();
    let report = server.report();
    if let Some((path, flight)) = &trace {
        finish_trace(path, flight);
    }
    let json = serde_json::to_string(&report).expect("serialize server report");
    if let Some(out) = flags.get("out") {
        std::fs::write(out, &json).unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
        eprintln!("report → {out}");
    } else {
        println!("{json}");
    }
    eprintln!(
        "server: drained; {} served, {} enqueued, {} shed, {} window(s), {} tenant(s), \
         max_wait settled at {} µs",
        report.queries,
        report.enqueued,
        report.shed,
        report.windows,
        report.tenants.len(),
        report.max_wait_us
    );
}

/// `annsctl client` exit codes: each refusal class is distinct so
/// scripts branch on the verdict, never on stderr text. (2 is `die`'s
/// usage-error code; 0 is success.)
const EXIT_OVERLOADED: i32 = 3;
const EXIT_CLOSED: i32 = 4;
const EXIT_THROTTLED: i32 = 5;
const EXIT_TRANSPORT: i32 = 6;
const EXIT_SERVER_OTHER: i32 = 7;

/// Prints the typed failure and exits with its class's code.
fn client_fail(context: &str, e: &ClientError) -> ! {
    eprintln!("annsctl client: {context}: {e}");
    let code = match e {
        ClientError::Server(fault) => match fault.code {
            ErrorCode::Overloaded => EXIT_OVERLOADED,
            ErrorCode::Closed => EXIT_CLOSED,
            ErrorCode::Throttled => EXIT_THROTTLED,
            _ => EXIT_SERVER_OTHER,
        },
        ClientError::Transport(_) | ClientError::Frame(_) | ClientError::Protocol(_) => {
            EXIT_TRANSPORT
        }
    };
    std::process::exit(code);
}

/// Resolves the server address from `--addr`, or from the `--addr-file`
/// that `annsctl server` writes once bound.
fn client_addr(flags: &HashMap<String, String>) -> String {
    if let Some(addr) = flags.get("addr") {
        return addr.clone();
    }
    if let Some(path) = flags.get("addr-file") {
        return std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")))
            .trim()
            .to_string();
    }
    die("--addr (or --addr-file) is required")
}

/// `annsctl client`: one framed TCP session against a running server —
/// handshake, `--count` queries as `--tenant`, and optionally a
/// `Shutdown` (`--shutdown 1`). Query points are random at the listed
/// shard's dimension: the client has no dataset; it exercises the
/// protocol and the admission tier, not recall.
fn cmd_client(flags: HashMap<String, String>) {
    let addr = client_addr(&flags);
    let tenant: String = flag(&flags, "tenant", "default".to_string());
    let count: usize = flag(&flags, "count", 1);
    let seed: u64 = flag(&flags, "seed", 99);
    let shutdown = flags
        .get("shutdown")
        .is_some_and(|v| v != "0" && v != "false");

    let (mut client, shards) = match Client::connect(addr.as_str()) {
        Ok(ok) => ok,
        Err(e) => client_fail("connect", &e),
    };
    let first = shards
        .first()
        .unwrap_or_else(|| die("server has no mounted shards"));
    let shard: String = flag(&flags, "shard", first.name.clone());
    // An unknown --shard still queries (the refusal must arrive typed,
    // that's the point); generate at the first shard's dimension then.
    let dim = shards
        .iter()
        .find(|s| s.name == shard)
        .map(|s| s.dim)
        .filter(|&d| d > 0)
        .unwrap_or(first.dim);
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..count {
        let point = Point::random(dim, &mut rng);
        match client.query(&tenant, &shard, &point) {
            Ok(reply) => println!(
                "query {i}: index {:?}, {} round(s), {} probe(s), depth {}, \
                 ticket {:.1} µs, answer {:.1} µs",
                reply.answer.index,
                reply.answer.rounds,
                reply.answer.probes,
                reply.depth,
                reply.ticket_rtt_ns as f64 / 1e3,
                reply.answer_rtt_ns as f64 / 1e3,
            ),
            Err(e) => client_fail(&format!("query {i}"), &e),
        }
    }
    if shutdown {
        match client.shutdown_server() {
            Ok(served) => println!("shutdown: server drained after {served} served"),
            Err(e) => client_fail("shutdown", &e),
        }
    }
}

/// `trace inspect`: offline summary of a JSON-lines trace written by
/// `serve --trace-out` (or dumped mid-flight to `<path>.flight`).
/// Renders event counts, the sealed-window history, per-generation
/// coalescing, per-query timelines, and the admission-queue depth the
/// arrivals observed — the debugging views the ring exists for.
fn cmd_trace(args: &[String]) {
    if args.first().map(String::as_str) != Some("inspect") {
        die("trace needs an action: annsctl trace inspect --trace <trace.jsonl> [--limit 12]");
    }
    let flags = parse_flags(&args[1..]);
    let path = required(&flags, "trace");
    let limit: usize = flag(&flags, "limit", 12);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let records = anns_obs::parse_jsonl(&text)
        .unwrap_or_else(|(line, e)| die(&format!("{path}:{line}: bad trace record: {e}")));
    let Some(last) = records.last() else {
        println!("{path}: empty trace");
        return;
    };
    let anomalies = records
        .iter()
        .filter(|r| r.event.is_flight_trigger())
        .count();
    println!(
        "trace {path}: {} record(s), seq {}..{}, ts {}..{} ns, {anomalies} anomal{}",
        records.len(),
        records[0].seq,
        last.seq,
        records[0].ts_ns,
        last.ts_ns,
        if anomalies == 1 { "y" } else { "ies" }
    );

    // Event vocabulary: what happened, how often.
    let mut kinds: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for r in &records {
        *kinds.entry(r.event.kind()).or_insert(0) += 1;
    }
    let mut table = MarkdownTable::new(&["event", "count"]);
    for (kind, count) in &kinds {
        table.row(vec![kind.to_string(), count.to_string()]);
    }
    println!("\nevents:");
    table.print();

    // Sealed windows: why each generation window closed, how full it
    // was, and how long its oldest arrival waited.
    let windows: Vec<_> = records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::GenerationSealed {
                window,
                reason,
                fill,
                wait_ns,
            } => Some((*window, reason.clone(), *fill, *wait_ns)),
            _ => None,
        })
        .collect();
    if !windows.is_empty() {
        let mut table = MarkdownTable::new(&["window", "reason", "fill", "wait µs"]);
        for (window, reason, fill, wait_ns) in windows.iter().take(limit) {
            table.row(vec![
                window.to_string(),
                reason.clone(),
                fill.to_string(),
                format!("{:.1}", *wait_ns as f64 / 1e3),
            ]);
        }
        println!(
            "\nsealed windows (first {} of {}):",
            limit.min(windows.len()),
            windows.len()
        );
        table.print();
    }

    // Per-generation coalescing: submitted vs deduped across every
    // round dispatch of each generation.
    let mut gens: std::collections::BTreeMap<u64, (u64, u64, u64)> =
        std::collections::BTreeMap::new();
    for r in &records {
        if let TraceEvent::RoundDispatched {
            gen,
            submitted,
            deduped,
            ..
        } = &r.event
        {
            let e = gens.entry(*gen).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += submitted;
            e.2 += deduped;
        }
    }
    if !gens.is_empty() {
        let mut table = MarkdownTable::new(&["gen", "dispatches", "submitted", "deduped", "ratio"]);
        for (gen, (dispatches, submitted, deduped)) in gens.iter().take(limit) {
            table.row(vec![
                gen.to_string(),
                dispatches.to_string(),
                submitted.to_string(),
                deduped.to_string(),
                if *submitted > 0 {
                    format!("{:.3}", *deduped as f64 / *submitted as f64)
                } else {
                    "-".to_string()
                },
            ]);
        }
        println!(
            "\ncoalescing per generation (first {} of {}):",
            limit.min(gens.len()),
            gens.len()
        );
        table.print();
    }

    // Per-query timeline: one row per completion, in completion order.
    let served: Vec<_> = records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::QueryServed {
                gen,
                slot,
                rounds,
                probes,
                wait_ns,
                within_budget,
            } => Some((*gen, *slot, *rounds, *probes, *wait_ns, *within_budget)),
            _ => None,
        })
        .collect();
    if !served.is_empty() {
        let mut table =
            MarkdownTable::new(&["gen", "slot", "rounds", "probes", "wait µs", "in budget"]);
        for (gen, slot, rounds, probes, wait_ns, within) in served.iter().take(limit) {
            table.row(vec![
                gen.to_string(),
                slot.to_string(),
                rounds.to_string(),
                probes.to_string(),
                format!("{:.1}", *wait_ns as f64 / 1e3),
                within.to_string(),
            ]);
        }
        println!(
            "\nquery timeline (first {} of {}):",
            limit.min(served.len()),
            served.len()
        );
        table.print();
    }

    // Queue depth over time, as each arrival observed it.
    let depths: Vec<u64> = records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::QueryAdmitted { depth } | TraceEvent::Shed { depth, .. } => Some(*depth),
            _ => None,
        })
        .collect();
    if !depths.is_empty() {
        let shed = kinds.get("shed").copied().unwrap_or(0);
        println!(
            "\nqueue depth over {} arrival(s): max {}, mean {:.1}, {} shed",
            depths.len(),
            depths.iter().max().unwrap(),
            depths.iter().sum::<u64>() as f64 / depths.len() as f64,
            shed
        );
    }

    // `--server-report`: reconcile the trace's per-tenant
    // `tenant_decision` events against a server drain report, by exact
    // equality. Both sides are pure functions of the workload — one
    // event per decision, one counter bump per decision — so any drift
    // is an accounting bug, and this dies on it (the CI smoke step).
    if let Some(report_path) = flags.get("server-report") {
        let json = std::fs::read_to_string(report_path)
            .unwrap_or_else(|e| die(&format!("cannot read {report_path}: {e}")));
        let report: ServerReport = serde_json::from_str(&json)
            .unwrap_or_else(|e| die(&format!("bad server report {report_path}: {e}")));
        if report.trace_dropped != 0 {
            die(&format!(
                "{report_path}: {} trace event(s) dropped — a lossy ring cannot reconcile; \
                 raise --trace-cap on the server",
                report.trace_dropped
            ));
        }
        let mut counts: std::collections::BTreeMap<(String, String), u64> =
            std::collections::BTreeMap::new();
        for r in &records {
            if let TraceEvent::TenantDecision {
                tenant, decision, ..
            } = &r.event
            {
                *counts
                    .entry((tenant.clone(), decision.clone()))
                    .or_insert(0) += 1;
            }
        }
        let mut table = MarkdownTable::new(&["tenant", "decision", "trace", "report", "ok"]);
        let mut mismatches = 0u64;
        for row in &report.tenants {
            for (decision, expected) in [
                ("admitted", row.enqueued),
                ("throttled", row.throttled),
                ("shed", row.shed),
            ] {
                let got = counts
                    .remove(&(row.tenant.clone(), decision.to_string()))
                    .unwrap_or(0);
                let ok = got == expected;
                mismatches += u64::from(!ok);
                table.row(vec![
                    row.tenant.clone(),
                    decision.to_string(),
                    got.to_string(),
                    expected.to_string(),
                    ok.to_string(),
                ]);
            }
        }
        // Decisions for tenants the report does not list are drift too.
        for ((tenant, decision), got) in counts {
            mismatches += 1;
            table.row(vec![
                tenant,
                decision,
                got.to_string(),
                "-".into(),
                "false".into(),
            ]);
        }
        println!("\ntenant decisions vs {report_path}:");
        table.print();
        if mismatches > 0 {
            die(&format!(
                "{mismatches} tenant-decision mismatch(es): trace and report must reconcile exactly"
            ));
        }
        println!("tenant decisions reconcile exactly with {report_path}");
    }
}

/// `bench-serve` output: config, the per-query `run_batch` baseline, one
/// engine run per generation width, a deterministic admission-queue run,
/// and the round-integrity audit.
#[derive(serde::Serialize)]
struct BenchServeReport {
    config: BenchServeConfig,
    baseline: ServeReport,
    engine: Vec<EngineRun>,
    /// The widest engine run repeated with a ring recorder installed:
    /// results must stay identical, the event count is a pure function
    /// of the workload (an exact row), and the wall-clock overhead
    /// versus the untraced run at the same width is a loose wall row.
    traced: TracedRun,
    /// The same request stream through the admission queue on a *virtual*
    /// clock, pre-enqueued so every window fill-seals at the widest batch
    /// width: its coalescing is deterministic and banded tightly.
    online: OnlineReport,
    audit: AuditReport,
}

#[derive(serde::Serialize)]
struct TracedRun {
    batch: usize,
    /// Traced wall clock / untraced wall clock at the same batch width.
    overhead_vs_untraced: f64,
    /// Ring counters after the run. `trace_events` is deterministic in
    /// the workload; `trace_dropped` must be 0 (the ring is sized for
    /// the whole run).
    trace_events: u64,
    trace_dropped: u64,
    report: ServeReport,
}

#[derive(serde::Serialize)]
struct BenchServeConfig {
    n: usize,
    d: u32,
    k: u32,
    requests: usize,
    distinct: usize,
    flips: u32,
    threads: usize,
    seed: u64,
    quick: bool,
}

#[derive(serde::Serialize)]
struct EngineRun {
    batch: usize,
    speedup_vs_baseline: f64,
    report: ServeReport,
}

#[derive(serde::Serialize)]
struct AuditReport {
    queries: usize,
    /// Engine round count per query equals the solo round count.
    rounds_identical: bool,
    /// Full (round, address, word) transcripts are byte-identical.
    transcripts_identical: bool,
}

fn cmd_bench_serve(flags: HashMap<String, String>) {
    let quick = quick_mode();
    // Defaults model a serving tier: an instance big enough that probes
    // cost real work (lazy oracles scan all n sketches per probe) and a
    // hot query pool (each distinct query ~16x in the stream) — the
    // traffic shape cross-query coalescing exists for. On this kind of
    // workload the coalesced engine overtakes per-query `run_batch` once
    // the generation window spans the hot set (batch ≥ 64 at defaults).
    let index = if let Some(path) = flags.get("from-store") {
        // Warm start: the whole point of the store — bench (and CI) reuse
        // one build instead of paying preprocessing per run.
        let index = store_index(&flags, "from-store");
        eprintln!(
            "warm start: index n = {}, d = {} from {path}",
            index.dataset().len(),
            index.dataset().dim()
        );
        index
    } else {
        build_index(
            &flags,
            if quick { 256 } else { 8192 },
            if quick { 256 } else { 512 },
        )
    };
    let k: u32 = flag(&flags, "k", 3);
    let requests_n: usize = flag(&flags, "requests", if quick { 64 } else { 256 });
    let distinct: usize = flag(&flags, "distinct", (requests_n / 16).max(4));
    let flips: u32 = flag(&flags, "flips", 6);
    let threads: usize = flag(&flags, "threads", 4);
    let seed: u64 = flag(&flags, "seed", 99);
    let shards_n: usize = flag(&flags, "shards", 1);
    let out = flag(&flags, "out", "BENCH_serve.json".to_string());
    let batches_flag: String = flag(
        &flags,
        "batches",
        if quick {
            "4,16".to_string()
        } else {
            "8,64,256".to_string()
        },
    );
    let batches: Vec<usize> = batches_flag
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|_| die(&format!("--batches: cannot parse {s:?}")))
        })
        .collect();

    /// Times each query inside its `run_batch` worker thread, so baseline
    /// latencies describe the same (threaded, contended) execution the
    /// wall clock does.
    struct TimedSolo<'a>(SoloServable<'a>);
    impl CellProbeScheme for TimedSolo<'_> {
        type Query = Point;
        type Answer = (anns_core::ServedAnswer, u64);
        fn table(&self) -> &dyn Table {
            CellProbeScheme::table(&self.0)
        }
        fn word_bits(&self) -> u64 {
            CellProbeScheme::word_bits(&self.0)
        }
        fn run(&self, query: &Point, exec: &mut RoundExecutor<'_>) -> Self::Answer {
            let t0 = Instant::now();
            let answer = self.0.run(query, exec);
            (answer, t0.elapsed().as_nanos() as u64)
        }
    }

    let queries = hot_set_workload(&index, requests_n, distinct, flips, seed);
    let scheme_name = format!("alg1-k{k}");
    let servable = anns_core::ServeAlg1 {
        index: Arc::clone(&index),
        k,
        tau_override: None,
    };

    // Baseline: per-query `run_batch` over the same scheme object, with
    // each query timed *inside* its worker thread — latencies and wall
    // clock describe the same threaded execution.
    eprintln!(
        "baseline: run_batch over {} requests, {threads} threads…",
        queries.len()
    );
    let timed = TimedSolo(SoloServable(&servable));
    let started = Instant::now();
    let batch_items = run_batch(&timed, &queries, threads, ExecOptions::default());
    let baseline_wall = started.elapsed();
    let baseline_served: Vec<Served> = batch_items
        .into_iter()
        .map(|item| {
            let (answer, latency_ns) = item.answer;
            // Same budget verdict the engine computes, so the two reports
            // are comparable field for field.
            let within_budget = servable.within_budget(&item.ledger);
            Served {
                answer,
                ledger: item.ledger,
                transcript: None,
                latency_ns,
                within_budget,
                epoch: 0,
            }
        })
        .collect();
    let mut baseline = ServeReport::from_run(
        format!("run_batch[threads={threads}]"),
        &baseline_served,
        &[],
        baseline_wall,
    );
    // Per-query execution coalesces nothing: every submitted probe runs.
    let baseline_probes: u64 = baseline_served
        .iter()
        .map(|s| s.ledger.total_probes() as u64)
        .sum();
    baseline.probes_submitted = baseline_probes;
    baseline.probes_executed = baseline_probes;

    // Multi-shard mode: save the single-shard registry once and mount it
    // N times under namespaces s0..s{N-1}. Cross-bundle deduplication
    // shares the one index; each namespace is still its own shard, so
    // every generation-round dispatches one coalesced batch per shard —
    // the paper's parallel batch surface, scaled by the mount table.
    let shard_bundle: Option<Vec<u8>> = (shards_n > 1).then(|| {
        let mut single = Registry::new();
        single.register_alg1(scheme_name.clone(), Arc::clone(&index), k);
        let mut bytes = std::io::Cursor::new(Vec::new());
        single
            .save_bundle_to(&mut bytes)
            .unwrap_or_else(|e| die(&format!("cannot bundle the shard registry: {e}")));
        bytes.into_inner()
    });
    let serving_registry = || -> (Registry, Vec<ShardId>) {
        match &shard_bundle {
            None => {
                let mut registry = Registry::new();
                let shard = registry.register_alg1(scheme_name.clone(), Arc::clone(&index), k);
                (registry, vec![shard])
            }
            Some(bytes) => {
                let mut registry = Registry::new();
                let mut ids = Vec::with_capacity(shards_n);
                for s in 0..shards_n {
                    let ns = format!("s{s}");
                    registry
                        .mount_from(&ns, &bytes[..], "<bench-serve>")
                        .unwrap_or_else(|e| die(&format!("cannot mount {ns}: {e}")));
                    ids.push(
                        registry
                            .resolve(&format!("{ns}/{scheme_name}"))
                            .expect("mounted shard resolves"),
                    );
                }
                (registry, ids)
            }
        }
    };

    // Engine runs: one per generation width, same request stream.
    let mut engine_runs = Vec::new();
    for &batch in &batches {
        let (registry, shard_ids) = serving_registry();
        let engine = Engine::new(
            registry,
            EngineOptions {
                generation: batch.max(1),
                exec: ExecOptions::default(),
                batch_threads: threads,
            },
        );
        let reqs: Vec<QueryRequest> = queries
            .iter()
            .enumerate()
            .map(|(i, query)| QueryRequest {
                shard: shard_ids[i % shard_ids.len()],
                query: query.clone(),
            })
            .collect();
        eprintln!("engine: generation width {batch}, {shards_n} shard(s)…");
        let started = Instant::now();
        let (served, traces) = engine.submit_batch_traced(&reqs);
        let wall = started.elapsed();
        // Correctness cross-check against the baseline run.
        for (s, b) in served.iter().zip(baseline_served.iter()) {
            assert_eq!(s.answer, b.answer, "engine answer diverged from run_batch");
            assert_eq!(s.ledger, b.ledger, "engine ledger diverged from run_batch");
        }
        let label = if shards_n > 1 {
            format!("engine[batch={batch},shards={shards_n}]")
        } else {
            format!("engine[batch={batch}]")
        };
        let report =
            ServeReport::from_run(label, &served, &traces, wall).with_options(engine.options());
        engine_runs.push(EngineRun {
            batch,
            speedup_vs_baseline: if report.wall_ms > 0.0 {
                baseline.wall_ms / report.wall_ms
            } else {
                0.0
            },
            report,
        });
    }

    // Traced re-run at the widest width: the observability layer's serve
    // contract, measured. Answers and ledgers must match the baseline
    // (tracing cannot perturb serving), and the wall-clock ratio against
    // the untraced run at the same width is the recorder's real cost.
    let traced = {
        let batch = batches.last().copied().unwrap_or(16).max(1);
        let untraced_wall_ms = engine_runs
            .iter()
            .find(|r| r.batch == batch)
            .map(|r| r.report.wall_ms)
            .unwrap_or(0.0);
        let (registry, shard_ids) = serving_registry();
        let ring = Arc::new(RingRecorder::new(
            65_536,
            Arc::new(RealClock::new()) as Arc<dyn Clock>,
        ));
        let engine = Engine::new(
            registry,
            EngineOptions {
                generation: batch,
                exec: ExecOptions::default(),
                batch_threads: threads,
            },
        )
        .recorded(Arc::clone(&ring) as Arc<dyn Recorder>);
        let reqs: Vec<QueryRequest> = queries
            .iter()
            .enumerate()
            .map(|(i, query)| QueryRequest {
                shard: shard_ids[i % shard_ids.len()],
                query: query.clone(),
            })
            .collect();
        eprintln!(
            "traced: generation width {batch}, ring capacity {}…",
            ring.capacity()
        );
        let started = Instant::now();
        let (served, traces) = engine.submit_batch_traced(&reqs);
        let wall = started.elapsed();
        for (s, b) in served.iter().zip(baseline_served.iter()) {
            assert_eq!(s.answer, b.answer, "traced answer diverged from run_batch");
            assert_eq!(s.ledger, b.ledger, "traced ledger diverged from run_batch");
        }
        let counters = ring.counters();
        let report = ServeReport::from_run(
            format!("engine[batch={batch},traced]"),
            &served,
            &traces,
            wall,
        )
        .with_options(engine.options())
        .with_trace(counters);
        TracedRun {
            batch,
            overhead_vs_untraced: if untraced_wall_ms > 0.0 {
                report.wall_ms / untraced_wall_ms
            } else {
                0.0
            },
            trace_events: counters.events,
            trace_dropped: counters.dropped,
            report,
        }
    };

    // Online admission run: same stream, pre-enqueued behind a parked
    // driver on a virtual clock, so every window fill-seals at the widest
    // batch width — the coalescing must be byte-for-byte the batch
    // engine's at that width, making it CI-gateable without wall-clock
    // noise (the deadline exists but virtual time never reaches it).
    let online = {
        let window = batches.last().copied().unwrap_or(16).max(1);
        let (registry, shard_ids) = serving_registry();
        let engine = Arc::new(Engine::new(
            registry,
            EngineOptions {
                generation: window,
                exec: ExecOptions::default(),
                batch_threads: threads,
            },
        ));
        let names: Vec<String> = shard_ids
            .iter()
            .map(|id| engine.registry().name(*id).to_string())
            .collect();
        let queue = Arc::new(AdmissionQueue::new(
            Arc::clone(&engine),
            AdmissionOptions {
                max_generation: window,
                max_wait: Duration::from_millis(1),
                capacity: queries.len().max(1),
            },
            Arc::new(VirtualClock::new()),
        ));
        let requests: Vec<NamedRequest> = queries
            .iter()
            .enumerate()
            .map(|(i, query)| NamedRequest {
                shard: names[i % names.len()].clone(),
                query: query.clone(),
            })
            .collect();
        eprintln!("online: admission queue, window {window} (virtual clock, saturated)…");
        let started = Instant::now();
        let (resolutions, shed) = drive_admission_queue(&queue, requests, |_| {});
        let wall = started.elapsed();
        if shed > 0 {
            die("bench-serve online run shed arrivals with capacity = request count");
        }
        // Correctness cross-check against the baseline run.
        for (r, b) in resolutions.iter().zip(baseline_served.iter()) {
            let s = r
                .result
                .as_ref()
                .unwrap_or_else(|e| die(&format!("online query failed: {e}")));
            assert_eq!(s.answer, b.answer, "online answer diverged from run_batch");
            assert_eq!(s.ledger, b.ledger, "online ledger diverged from run_batch");
        }
        online_report(
            format!("online[window={window}]"),
            &engine,
            &queue,
            &resolutions,
            0.0,
            wall,
        )
    };

    // Round-integrity audit: coalesced execution must use identical round
    // counts (and transcripts) per query versus solo execution.
    let audit_n = queries.len().min(2 * distinct);
    let mut registry = Registry::new();
    let shard = registry.register_alg1(scheme_name.clone(), Arc::clone(&index), k);
    let audit_engine = Engine::new(
        registry,
        EngineOptions {
            generation: audit_n.max(1),
            exec: ExecOptions::with_transcript(),
            batch_threads: threads,
        },
    );
    let audit_reqs: Vec<QueryRequest> = queries[..audit_n]
        .iter()
        .map(|query| QueryRequest {
            shard,
            query: query.clone(),
        })
        .collect();
    let audit_served = audit_engine.submit_batch(&audit_reqs);
    let mut rounds_identical = true;
    let mut transcripts_identical = true;
    for (req, s) in audit_reqs.iter().zip(audit_served.iter()) {
        let (_, solo_ledger, solo_transcript) = execute_with(
            &SoloServable(audit_engine.registry().scheme(shard)),
            &req.query,
            ExecOptions::with_transcript(),
        );
        rounds_identical &= s.ledger.rounds() == solo_ledger.rounds();
        transcripts_identical &= s.transcript == solo_transcript;
    }

    let report = BenchServeReport {
        config: BenchServeConfig {
            n: index.dataset().len(),
            d: index.dataset().dim(),
            k,
            requests: requests_n,
            distinct,
            flips,
            threads,
            seed,
            quick,
        },
        baseline,
        engine: engine_runs,
        traced,
        online,
        audit: AuditReport {
            queries: audit_n,
            rounds_identical,
            transcripts_identical,
        },
    };
    write_artifact(&out, &report, serve_metrics(&report));
    println!(
        "baseline {:.0} qps; {}",
        report.baseline.qps,
        report
            .engine
            .iter()
            .map(|r| format!(
                "batch {}: {:.0} qps ({:.2}x, coalescing {:.2})",
                r.batch, r.report.qps, r.speedup_vs_baseline, r.report.coalescing_ratio
            ))
            .collect::<Vec<_>>()
            .join("; ")
    );
    println!(
        "traced batch {}: {:.0} qps, {:.2}x vs untraced, {} event(s), {} dropped",
        report.traced.batch,
        report.traced.report.qps,
        report.traced.overhead_vs_untraced,
        report.traced.trace_events,
        report.traced.trace_dropped
    );
    println!(
        "online window {}: {:.0} qps (coalescing {:.2}), {} windows ({} fill / {} drain), {} shed",
        report.online.window,
        report.online.report.qps,
        report.online.report.coalescing_ratio,
        report.online.windows,
        report.online.sealed_by_fill,
        report.online.sealed_by_drain,
        report.online.shed
    );
    println!(
        "audit over {} queries: rounds identical = {}, transcripts identical = {}",
        report.audit.queries, report.audit.rounds_identical, report.audit.transcripts_identical
    );
    if !(report.audit.rounds_identical && report.audit.transcripts_identical) {
        die("round-integrity audit failed");
    }
    let violations: u64 = report.baseline.budget_violations
        + report.online.report.budget_violations
        + report
            .engine
            .iter()
            .map(|e| e.report.budget_violations)
            .sum::<u64>();
    let mut failures = Vec::new();
    if violations > 0 {
        failures.push(format!("{violations} budget violation(s)"));
    }
    if report.traced.trace_dropped > 0 {
        failures.push(format!(
            "the traced run dropped {} event(s); the bench ring must hold the whole run",
            report.traced.trace_dropped
        ));
    }
    exit_on_failures("bench-serve", &failures);
}

/// `bench-serve`'s gate rows. Coalescing and the trace's event count are
/// pure functions of the workload; the speedup and the traced overhead
/// are wall-clock ratios on shared runners, so their bands only catch
/// collapses.
fn serve_metrics(report: &BenchServeReport) -> Vec<Metric> {
    let mut rows = Vec::new();
    for run in &report.engine {
        let b = run.batch;
        rows.push(Metric::ratio(
            format!("serve.engine.b{b}.coalescing_ratio"),
            run.report.coalescing_ratio,
            Better::Lower,
            0.10,
        ));
        rows.push(Metric::wall(
            format!("serve.engine.b{b}.speedup_vs_baseline"),
            run.speedup_vs_baseline,
            Better::Higher,
            0.90,
        ));
    }
    let traced = &report.traced;
    let b = traced.batch;
    rows.push(Metric::exact(
        format!("serve.traced.b{b}.trace_events"),
        traced.trace_events as f64,
    ));
    rows.push(Metric::ratio(
        format!("serve.traced.b{b}.coalescing_ratio"),
        traced.report.coalescing_ratio,
        Better::Lower,
        0.10,
    ));
    // An overhead under 1.0 is noise (the traced run beat the untraced
    // one); the floor keeps the band meaning "tracing may cost at most 2×
    // a run".
    rows.push(Metric::wall(
        format!("serve.traced.b{b}.overhead_vs_untraced"),
        traced.overhead_vs_untraced.max(1.0),
        Better::Lower,
        1.0,
    ));
    let w = report.online.window;
    rows.push(Metric::ratio(
        format!("serve.online.w{w}.coalescing_ratio"),
        report.online.report.coalescing_ratio,
        Better::Lower,
        0.10,
    ));
    rows
}

/// `bench-kernels` output: one row per dimension comparing the scalar
/// per-`Point` distance loop against the limb-major `PackedBlock`
/// kernels.
#[derive(serde::Serialize)]
struct BenchKernelsReport {
    config: BenchKernelsConfig,
    rows: Vec<KernelRow>,
}

#[derive(serde::Serialize)]
struct BenchKernelsConfig {
    n: usize,
    queries: usize,
    reps: usize,
    seed: u64,
    quick: bool,
    dims: Vec<u32>,
}

#[derive(serde::Serialize)]
struct KernelRow {
    d: u32,
    /// Best-of-reps ns per distance, scalar `Point::distance` loop.
    scalar_ns: f64,
    /// Best-of-reps ns per distance, one-vs-many `distances_into`.
    one_vs_many_ns: f64,
    /// Best-of-reps ns per distance, `many_distances_into`.
    many_vs_many_ns: f64,
    /// `scalar_ns / one_vs_many_ns`.
    one_vs_many_speedup: f64,
    /// `scalar_ns / many_vs_many_ns`.
    many_vs_many_speedup: f64,
}

fn cmd_bench_kernels(flags: HashMap<String, String>) {
    use std::hint::black_box;
    let quick = quick_mode();
    let n: usize = flag(&flags, "n", if quick { 2048 } else { 16384 });
    let queries_n: usize = flag(&flags, "queries", if quick { 8 } else { 16 });
    let reps: usize = flag(&flags, "reps", if quick { 3 } else { 5 });
    let seed: u64 = flag(&flags, "seed", 7);
    let out = flag(&flags, "out", "BENCH_kernels.json".to_string());
    let dims_flag: String = flag(&flags, "dims", "64,256,512".to_string());
    let dims: Vec<u32> = dims_flag
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|_| die(&format!("--dims: cannot parse {s:?}")))
        })
        .collect();

    /// Best-of-`reps` wall clock of `work`, as ns per distance over
    /// `pairs` evaluations (best-of: minimum over reps is the standard
    /// noise floor estimator on shared runners).
    fn best_ns_per_dist(reps: usize, pairs: usize, mut work: impl FnMut() -> u64) -> (f64, u64) {
        let mut best = f64::INFINITY;
        let mut checksum = 0u64;
        for _ in 0..reps {
            let t0 = Instant::now();
            checksum = work();
            let ns = t0.elapsed().as_nanos() as f64;
            best = best.min(ns / pairs as f64);
        }
        (best, checksum)
    }

    let mut rows = Vec::with_capacity(dims.len());
    for &d in &dims {
        let mut rng = StdRng::seed_from_u64(seed ^ u64::from(d));
        let ds = gen::uniform(n, d, &mut rng);
        let queries: Vec<Point> = (0..queries_n).map(|_| Point::random(d, &mut rng)).collect();
        let pairs = n * queries_n;

        let (scalar_ns, scalar_sum) = best_ns_per_dist(reps, pairs, || {
            let mut sum = 0u64;
            for q in &queries {
                for p in ds.points() {
                    sum += u64::from(black_box(q.distance(p)));
                }
            }
            sum
        });

        let block = ds.packed();
        let mut buf = vec![0u32; n];
        let (one_ns, one_sum) = best_ns_per_dist(reps, pairs, || {
            let mut sum = 0u64;
            for q in &queries {
                block.distances_into(q, &mut buf);
                sum += black_box(&buf).iter().map(|&x| u64::from(x)).sum::<u64>();
            }
            sum
        });

        let mut many_buf = vec![0u32; n * queries_n];
        let (many_ns, many_sum) = best_ns_per_dist(reps, pairs, || {
            block.many_distances_into(&queries, &mut many_buf);
            black_box(&many_buf).iter().map(|&x| u64::from(x)).sum()
        });

        // The kernels are byte-identical to the scalar path; a checksum
        // mismatch here means the benchmark itself is broken.
        assert_eq!(
            scalar_sum, one_sum,
            "one-vs-many checksum diverged at d={d}"
        );
        assert_eq!(
            scalar_sum, many_sum,
            "many-vs-many checksum diverged at d={d}"
        );

        let row = KernelRow {
            d,
            scalar_ns,
            one_vs_many_ns: one_ns,
            many_vs_many_ns: many_ns,
            one_vs_many_speedup: scalar_ns / one_ns,
            many_vs_many_speedup: scalar_ns / many_ns,
        };
        println!(
            "d={:>5}: scalar {:.2} ns/dist, one-vs-many {:.2} ({:.2}x), many-vs-many {:.2} ({:.2}x)",
            row.d,
            row.scalar_ns,
            row.one_vs_many_ns,
            row.one_vs_many_speedup,
            row.many_vs_many_ns,
            row.many_vs_many_speedup
        );
        rows.push(row);
    }

    let report = BenchKernelsReport {
        config: BenchKernelsConfig {
            n,
            queries: queries_n,
            reps,
            seed,
            quick,
            dims,
        },
        rows,
    };
    // Speedups are ratios of two timings in one process, so machine
    // variance mostly cancels and their band is tight; absolute
    // ns/distance varies with the runner's silicon, so its band only
    // catches collapses.
    let metrics = report
        .rows
        .iter()
        .flat_map(|row| {
            let d = row.d;
            [
                Metric::ratio(
                    format!("kernels.d{d}.many_vs_many_speedup"),
                    row.many_vs_many_speedup,
                    Better::Higher,
                    0.35,
                ),
                Metric::ratio(
                    format!("kernels.d{d}.one_vs_many_speedup"),
                    row.one_vs_many_speedup,
                    Better::Higher,
                    0.35,
                ),
                Metric::wall(
                    format!("kernels.d{d}.many_vs_many_ns"),
                    row.many_vs_many_ns,
                    Better::Lower,
                    4.0,
                ),
            ]
        })
        .collect();
    write_artifact(&out, &report, metrics);
}

/// `bench-obs` output: the recorder fast-path microbenchmark.
#[derive(serde::Serialize)]
struct BenchObsReport {
    config: BenchObsConfig,
    /// Best-of-reps ns per emission site with the `NullRecorder`: one
    /// virtual `enabled()` call, no event construction. This is what
    /// every instrumented hot loop pays when tracing is off.
    null_ns_per_event: f64,
    /// Best-of-reps ns per recorded event through a full `RingRecorder`
    /// (clock stamp + mutex + drop-oldest at capacity).
    ring_ns_per_event: f64,
    /// Ring counters after the run — a pure function of the config
    /// (`reps × events` recorded, all but `capacity` dropped), so they
    /// are exact rows.
    ring_events: u64,
    ring_dropped: u64,
}

#[derive(serde::Serialize)]
struct BenchObsConfig {
    events: u64,
    reps: usize,
    capacity: usize,
    quick: bool,
}

fn cmd_bench_obs(flags: HashMap<String, String>) {
    use std::hint::black_box;
    let quick = quick_mode();
    let events: u64 = flag(&flags, "events", if quick { 200_000 } else { 2_000_000 });
    let reps: usize = flag(&flags, "reps", if quick { 3 } else { 5 });
    let capacity: usize = flag(&flags, "capacity", 4096);
    let out = flag(&flags, "out", "BENCH_obs.json".to_string());

    // Measures through `&dyn Recorder` behind the same guarded emission
    // site the engine uses, so the number is what instrumented code
    // actually pays — virtual dispatch included, event construction
    // skipped when disabled.
    let measure = |recorder: &dyn Recorder| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            for i in 0..events {
                if recorder.enabled() {
                    recorder.record(TraceEvent::ProbeBatchRead {
                        gen: i,
                        shard: 0,
                        tile: 64,
                        len: 8,
                    });
                }
                black_box(&recorder);
            }
            best = best.min(t0.elapsed().as_nanos() as f64 / events as f64);
        }
        best
    };
    eprintln!("bench-obs: {events} events × {reps} reps, ring capacity {capacity}…");
    let null_ns = measure(&NullRecorder);
    let ring = RingRecorder::new(capacity, Arc::new(RealClock::new()) as Arc<dyn Clock>);
    let ring_ns = measure(&ring);
    let counters = ring.counters();

    let report = BenchObsReport {
        config: BenchObsConfig {
            events,
            reps,
            capacity,
            quick,
        },
        null_ns_per_event: null_ns,
        ring_ns_per_event: ring_ns,
        ring_events: counters.events,
        ring_dropped: counters.dropped,
    };
    println!(
        "null {null_ns:.2} ns/event, ring {ring_ns:.2} ns/event ({} recorded, {} dropped)",
        counters.events, counters.dropped
    );
    // ns/event is absolute wall clock on shared runners: a loose band
    // that only catches collapses.
    let metrics = vec![
        Metric::exact("obs.ring_events", report.ring_events as f64),
        Metric::exact("obs.ring_dropped", report.ring_dropped as f64),
        Metric::wall("obs.null_ns_per_event", null_ns, Better::Lower, 4.0),
        Metric::wall("obs.ring_ns_per_event", ring_ns, Better::Lower, 4.0),
    ];
    write_artifact(&out, &report, metrics);
}

/// `bench-store` output: mount-cost accounting for both store backends
/// over two seeded bundles, one small and one several times larger. The
/// byte columns are pure functions of (seed, n, d, schemes) — the store
/// format is deterministic — so they are exact rows: any drift in
/// `file_bytes` is a format change, and any drift in `mmap_eager_bytes`
/// is a change to what the mapped mount reads up front. The O(manifest)
/// claim itself is checked on each run: the large bundle's eager bytes
/// must stay within a small factor of the small bundle's even as the
/// files diverge. Timings and RSS ride along ungated.
#[derive(serde::Serialize)]
struct BenchStoreReport {
    config: BenchStoreConfig,
    small: StoreMountRow,
    large: StoreMountRow,
}

#[derive(serde::Serialize)]
struct BenchStoreConfig {
    small_n: usize,
    large_n: usize,
    d: u32,
    seed: u64,
    quick: bool,
}

#[derive(serde::Serialize)]
struct StoreMountRow {
    /// Total section payload bytes in the bundle (deterministic).
    file_bytes: u64,
    /// Bytes the heap load reads eagerly — the whole file, by design.
    heap_eager_bytes: u64,
    /// Bytes the mapped mount reads eagerly: header, preludes, MNFT,
    /// META, SHRD and the pool entry table (deterministic).
    mmap_eager_bytes: u64,
    /// Wall time of `Registry::save_bundle` (informational, not gated).
    save_ms: f64,
    /// Anonymous RSS (`RssAnon`) once the bundle is saved and its
    /// registry dropped: heap the save left resident (informational,
    /// not gated).
    rss_anon_after_save_bytes: u64,
    /// Wall-clock mount times (machine dependent; the mapped mount must
    /// cost at most 4× the heap mount).
    heap_mount_ms: f64,
    mmap_mount_ms: f64,
    /// Process RSS after each load, and after the mapped load with
    /// every shard forced ready (informational, not gated).
    rss_after_heap_bytes: u64,
    rss_after_mmap_bytes: u64,
    rss_after_mmap_ready_bytes: u64,
    /// The file-backed part (`RssFile`) of the last reading: bundle pages
    /// the ready shards mapped in, with the binary's own (informational,
    /// not gated).
    rss_file_after_mmap_ready_bytes: u64,
}

fn cmd_bench_store(flags: HashMap<String, String>) {
    let quick = quick_mode();
    let seed: u64 = flag(&flags, "seed", 4242);
    let d: u32 = flag(&flags, "d", 256);
    let small_n: usize = flag(&flags, "small-n", if quick { 512 } else { 1024 });
    let large_n: usize = flag(&flags, "large-n", if quick { 4096 } else { 8192 });
    let out = flag(&flags, "out", "BENCH_store.json".to_string());
    if large_n < small_n * 4 {
        die(
            "--large-n must be at least 4x --small-n for the O(manifest) contrast to mean anything",
        );
    }
    let dir = std::env::temp_dir().join(format!("annsctl-bench-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| die(&format!("cannot mkdir {dir:?}: {e}")));

    let measure = |n: usize, tag: &str| -> StoreMountRow {
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = gen::uniform(n, d, &mut rng);
        let index = Arc::new(AnnIndex::build(
            ds,
            SketchParams::practical(2.0, seed),
            BuildOptions::default(),
        ));
        let mut registry = Registry::new();
        registry.register_alg1("alg1-k3", Arc::clone(&index), 3);
        registry.register_lambda("lambda-8", Arc::clone(&index), 8.0);
        let path = dir.join(format!("{tag}.anns"));
        let started = Instant::now();
        registry
            .save_bundle(&path)
            .unwrap_or_else(|e| die(&format!("cannot save {path:?}: {e}")));
        let save_ms = started.elapsed().as_secs_f64() * 1e3;
        let path = path.to_string_lossy().into_owned();
        drop(registry);
        drop(index);
        let rss_anon_after_save_bytes = current_rss_anon_bytes();

        // Mapped first, so the heap load's decoded pool cannot inflate
        // the mmap RSS reading.
        let mapped = load_bundle_with(&path, StoreBackend::Mmap);
        let rss_after_mmap_bytes = current_rss_bytes();
        for i in 0..mapped.registry.len() {
            if let Err(fault) = mapped.registry.scheme(ShardId(i)).ready() {
                die(&format!("cannot force shard {i} of {path}: {fault}"));
            }
        }
        let rss_after_mmap_ready_bytes = current_rss_bytes();
        let rss_file_after_mmap_ready_bytes = current_rss_file_bytes();
        let mmap_report = mapped.report.clone();
        drop(mapped);
        let heap = load_bundle_with(&path, StoreBackend::Heap);
        let rss_after_heap_bytes = current_rss_bytes();
        eprintln!(
            "bench-store: {tag} (n = {n}): file {} B, eager heap {} B / mmap {} B, \
             save {save_ms:.2} ms, mount heap {:.2} ms / mmap {:.2} ms",
            heap.report.file_bytes,
            heap.report.eager_bytes,
            mmap_report.eager_bytes,
            heap.report.mount_ms,
            mmap_report.mount_ms
        );
        StoreMountRow {
            file_bytes: heap.report.file_bytes,
            heap_eager_bytes: heap.report.eager_bytes,
            mmap_eager_bytes: mmap_report.eager_bytes,
            save_ms,
            rss_anon_after_save_bytes,
            heap_mount_ms: heap.report.mount_ms,
            mmap_mount_ms: mmap_report.mount_ms,
            rss_after_heap_bytes,
            rss_after_mmap_bytes,
            rss_after_mmap_ready_bytes,
            rss_file_after_mmap_ready_bytes,
        }
    };

    let small = measure(small_n, "small");
    let large = measure(large_n, "large");
    let report = BenchStoreReport {
        config: BenchStoreConfig {
            small_n,
            large_n,
            d,
            seed,
            quick,
        },
        small,
        large,
    };
    let _ = std::fs::remove_dir_all(&dir);
    let mut metrics = Vec::new();
    let mut failures = Vec::new();
    for (tag, row) in [("small", &report.small), ("large", &report.large)] {
        metrics.push(Metric::exact(
            format!("store.{tag}.file_bytes"),
            row.file_bytes as f64,
        ));
        metrics.push(Metric::exact(
            format!("store.{tag}.mmap_eager_bytes"),
            row.mmap_eager_bytes as f64,
        ));
        // Heap reads the whole file, by definition of the backend.
        if row.heap_eager_bytes != row.file_bytes {
            failures.push(format!(
                "{tag}: the heap load read {} of {} bytes eagerly",
                row.heap_eager_bytes, row.file_bytes
            ));
        }
    }
    // The O(manifest) claim: growing the dataset ~8x must not grow the
    // eagerly read bytes beyond the shard-directory factor, and the large
    // mount's eager read must stay well under its file.
    let (small, large) = (&report.small, &report.large);
    if large.mmap_eager_bytes > 2 * small.mmap_eager_bytes {
        failures.push(format!(
            "the large mapped mount read {} bytes eagerly, over 2× the small one's {}",
            large.mmap_eager_bytes, small.mmap_eager_bytes
        ));
    }
    if large.mmap_eager_bytes as f64 > large.file_bytes as f64 / 4.0 {
        failures.push(format!(
            "the large mapped mount read {} of {} bytes eagerly, over a quarter",
            large.mmap_eager_bytes, large.file_bytes
        ));
    }
    // A mapped mount that regressed to heap-shaped work shows up as mount
    // time tracking the full decode.
    if large.mmap_mount_ms > large.heap_mount_ms * 4.0 {
        failures.push(format!(
            "the large mapped mount took {:.3} ms, over 4× the heap mount's {:.3} ms",
            large.mmap_mount_ms, large.heap_mount_ms
        ));
    }
    write_artifact(&out, &report, metrics);
    exit_on_failures("bench-store", &failures);
}

/// `bench-server`: the multi-tenant workload against a *running*
/// `annsctl server` (CI starts one on a loopback ephemeral port).
/// Three tenants on three connections, submitted round-robin from one
/// thread — hot first each step, the worst case for the compliant
/// tenants' queue position: "hot" offers far beyond its token budget
/// (the server's `--tenants` policy for it should be `hot:0:8`-shaped
/// so its admitted count is `burst`, exactly, timing-free), while
/// "tenant-a"/"tenant-b" offer within their burst — any refusal they
/// see is a fairness bug, and the command exits 1 on it after writing
/// its artifact.
fn cmd_bench_server(flags: HashMap<String, String>) {
    let quick = quick_mode();
    let addr = client_addr(&flags);
    let seed: u64 = flag(&flags, "seed", 99);
    let out = flag(&flags, "out", "BENCH_server.json".to_string());
    let hot_offered: u64 = flag(&flags, "hot-requests", if quick { 40 } else { 160 });
    let steady_offered: u64 = flag(&flags, "requests", if quick { 12 } else { 48 });
    let specs = [
        ("hot", hot_offered, true),
        ("tenant-a", steady_offered, false),
        ("tenant-b", steady_offered, false),
    ];

    struct TenantRun {
        name: &'static str,
        offered: u64,
        sent: u64,
        served: u64,
        throttled: u64,
        overloaded: u64,
        closed: u64,
        failed: u64,
        ticket_ns: Vec<u64>,
        answer_ns: Vec<u64>,
        client: Client,
        rng: StdRng,
    }

    let mut shard_dim: Option<(String, u32)> = None;
    let mut runs: Vec<TenantRun> = Vec::with_capacity(specs.len());
    for (i, (name, offered, _)) in specs.iter().enumerate() {
        let (client, shards) = match Client::connect(addr.as_str()) {
            Ok(ok) => ok,
            Err(e) => die(&format!("cannot connect to {addr}: {e}")),
        };
        if shard_dim.is_none() {
            let first = shards
                .first()
                .unwrap_or_else(|| die("server has no mounted shards"));
            let shard: String = flag(&flags, "shard", first.name.clone());
            let dim = shards
                .iter()
                .find(|s| s.name == shard)
                .map(|s| s.dim)
                .filter(|&d| d > 0)
                .unwrap_or_else(|| die(&format!("shard {shard:?} is not in the server's listing")));
            shard_dim = Some((shard, dim));
        }
        runs.push(TenantRun {
            name,
            offered: *offered,
            sent: 0,
            served: 0,
            throttled: 0,
            overloaded: 0,
            closed: 0,
            failed: 0,
            ticket_ns: Vec::new(),
            answer_ns: Vec::new(),
            client,
            rng: StdRng::seed_from_u64(seed ^ ((i as u64 + 1) << 32)),
        });
    }
    let (shard, dim) = shard_dim.expect("at least one tenant");
    eprintln!(
        "bench-server: {addr}, shard {shard} (d = {dim}), tenants {}…",
        specs
            .iter()
            .map(|(n, o, hot)| format!("{n}×{o}{}", if *hot { " (hot)" } else { "" }))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let max_offered = specs.iter().map(|(_, o, _)| *o).max().unwrap_or(0);
    for _step in 0..max_offered {
        for run in &mut runs {
            if run.sent >= run.offered {
                continue;
            }
            run.sent += 1;
            let point = Point::random(dim, &mut run.rng);
            match run.client.query(run.name, &shard, &point) {
                Ok(reply) => {
                    run.served += 1;
                    run.ticket_ns.push(reply.ticket_rtt_ns);
                    run.answer_ns.push(reply.answer_rtt_ns);
                }
                Err(ClientError::Server(fault)) => match fault.code {
                    ErrorCode::Throttled => run.throttled += 1,
                    ErrorCode::Overloaded => run.overloaded += 1,
                    ErrorCode::Closed => run.closed += 1,
                    _ => run.failed += 1,
                },
                // Transport/frame/protocol failures are harness
                // breakage, not a measurable outcome: die loudly.
                Err(e) => die(&format!("bench-server: {} query failed: {e}", run.name)),
            }
        }
    }

    let mut table = MarkdownTable::new(&[
        "tenant",
        "offered",
        "served",
        "throttled",
        "overloaded",
        "failed",
        "ticket p50 µs",
        "answer p50 µs",
        "answer p99 µs",
    ]);
    let mut rows = Vec::with_capacity(runs.len());
    for run in &mut runs {
        run.ticket_ns.sort_unstable();
        run.answer_ns.sort_unstable();
        let row = TenantBenchRow {
            tenant: run.name.to_string(),
            offered: run.offered,
            served: run.served,
            throttled: run.throttled,
            overloaded: run.overloaded,
            closed: run.closed,
            failed: run.failed,
            ticket_p50_us: rtt_pct_us(&run.ticket_ns, 0.50),
            ticket_p99_us: rtt_pct_us(&run.ticket_ns, 0.99),
            ticket_max_us: rtt_pct_us(&run.ticket_ns, 1.0),
            answer_p50_us: rtt_pct_us(&run.answer_ns, 0.50),
            answer_p99_us: rtt_pct_us(&run.answer_ns, 0.99),
            answer_max_us: rtt_pct_us(&run.answer_ns, 1.0),
        };
        table.row(vec![
            row.tenant.clone(),
            row.offered.to_string(),
            row.served.to_string(),
            row.throttled.to_string(),
            row.overloaded.to_string(),
            row.failed.to_string(),
            format!("{:.1}", row.ticket_p50_us),
            format!("{:.1}", row.answer_p50_us),
            format!("{:.1}", row.answer_p99_us),
        ]);
        rows.push(row);
    }
    table.print();

    let report = BenchServerReport {
        config: BenchServerConfig {
            tenants: specs
                .iter()
                .map(|(name, offered, hot)| TenantWorkloadSpec {
                    name: name.to_string(),
                    offered: *offered,
                    hot: *hot,
                })
                .collect(),
            seed,
            quick,
        },
        tenants: rows,
    };
    write_artifact(&out, &report, report.metrics());
    exit_on_failures("bench-server", &report.violations());
}

/// Builds a fresh index, registers `--scheme` over it (default
/// `default_scheme`) and writes the registry as one bundle: `save`, and
/// `build` with one Algorithm 1 shard.
fn cmd_save(flags: HashMap<String, String>, default_scheme: &str) {
    let out = required(&flags, "out");
    let index = build_index(&flags, 1024, 256);
    let registry = build_registry(&flags, &index, default_scheme);
    if registry.is_empty() {
        die("nothing to save: no schemes registered");
    }
    registry
        .save_bundle(&out)
        .unwrap_or_else(|e| die(&format!("cannot save {out}: {e}")));
    let size = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    println!(
        "saved: n = {}, d = {}, {} shard(s) → {out} ({size} bytes)",
        index.dataset().len(),
        index.dataset().dim(),
        registry.len()
    );
    for (name, label) in registry.listing() {
        println!("  shard {name}: {label}");
    }
}

fn cmd_load(flags: HashMap<String, String>) {
    let path = required(&flags, "store");
    let verify: usize = flag(&flags, "verify-queries", 4);
    let seed: u64 = flag(&flags, "seed", 99);
    let backend = store_backend_flag(&flags);
    let bundle = load_bundle_with(&path, backend);
    println!(
        "loaded {path} in {:.1} ms: {} shard(s), {} pooled index(es) [{}]",
        bundle.report.mount_ms,
        bundle.registry.len(),
        bundle.meta.indexes,
        bundle.meta.tool
    );
    println!(
        "  {backend} backend: {} / {} bytes read eagerly, rss {} KiB",
        bundle.report.eager_bytes,
        bundle.report.file_bytes,
        current_rss_bytes() / 1024
    );
    println!(
        "  manifest {}; {} section(s), {} skipped",
        if bundle.report.manifest_verified {
            "verified"
        } else {
            "absent (pre-manifest bundle)"
        },
        bundle.report.sections.len(),
        bundle.report.skipped.len()
    );
    // Version-skew debugging must not be blind: anything the loader
    // skipped is reported, not silently dropped.
    for digest in &bundle.report.skipped {
        println!(
            "  skipped {} {:>10} bytes (unknown tag; written by a newer build?)",
            digest.tag_string(),
            digest.len
        );
    }
    for (id, index) in bundle.indexes.iter().enumerate() {
        println!(
            "  index {id}: n = {}, d = {}, γ = {}, {} scales",
            index.dataset().len(),
            index.dataset().dim(),
            index.family().params().gamma,
            index.family().top() + 1
        );
    }
    for (name, label) in bundle.registry.listing() {
        println!("  shard {name}: {label}");
    }
    // Smoke-run a few queries per shard through the solo executor so a
    // load that *parses* but cannot serve is caught here, not in prod.
    // On the mmap backend this is also the first touch: it decodes (and
    // verifies) exactly the shards it queries.
    if verify > 0 {
        let index = bundle
            .indexes
            .first()
            .cloned()
            .or_else(|| bundle.registry.any_pooled_index());
        let Some(index) = index else {
            println!("no pooled index: skipping query verification");
            return;
        };
        verify_shard_budgets(&bundle.registry, &index, verify, seed);
    }
}

fn cmd_inspect(flags: HashMap<String, String>) {
    let path = required(&flags, "store");
    let store = anns_store::MappedStore::open(&path)
        .unwrap_or_else(|e| die(&format!("cannot open store {path}: {e}")));
    let header = *store.header();
    let kind_name = if header.kind == anns_store::KIND_BUNDLE {
        "bundle".to_string()
    } else {
        format!(
            "single-scheme ({})",
            anns_store::scheme_kind::name(header.kind)
        )
    };
    println!("store      : {path}");
    println!("format     : v{} {kind_name}", header.version);
    println!("sections   : {}", header.sections);
    // Verify every section through its latch, in file order; META yields
    // the shard directory without instantiating indexes.
    for idx in 0..store.section_count() {
        let section = store.section(idx).expect("index in range");
        let payload = section
            .bytes()
            .unwrap_or_else(|e| die(&format!("store damaged: {e}")));
        println!(
            "  {} {:>10} bytes  crc32 {:#010x}  ok",
            String::from_utf8_lossy(&section.tag()),
            payload.len(),
            section.crc()
        );
        if section.tag() == anns_store::section_tag::META {
            let meta = anns_engine::BundleMeta::from_bytes(payload)
                .unwrap_or_else(|e| die(&format!("bad META section: {e}")));
            println!("    tool   : {}", meta.tool);
            println!("    indexes: {}", meta.indexes);
            for shard in &meta.shards {
                println!(
                    "    shard  : {} [{}] {}",
                    shard.name,
                    anns_store::scheme_kind::name(shard.kind),
                    shard.label
                );
            }
        }
    }
    // The parser already verified the manifest against every prelude.
    if let Some(manifest) = store.manifest() {
        println!("    tool   : {}", manifest.tool);
        for digest in &manifest.sections {
            println!(
                "    covers : {} {:>10} bytes  crc32 {:#010x}",
                digest.tag_string(),
                digest.len,
                digest.crc
            );
        }
    }
}

/// Renders one suite's arms as the attack summary table, and returns the
/// headline deltas: `(undefended adaptive delta, defended adaptive
/// delta)` — each is the hill-climb failure rate minus the control
/// failure rate on that shard.
fn print_attack_summary(report: &RobustnessReport) -> (f64, f64) {
    let mut table = MarkdownTable::new(&[
        "shard",
        "scheme",
        "strategy",
        "failures",
        "rate",
        "final bucket",
        "curve",
        "replays",
        "mismatches",
    ]);
    for arm in &report.arms {
        table.row(vec![
            arm.shard.clone(),
            arm.scheme.clone(),
            arm.strategy.clone(),
            format!("{}/{}", arm.failures, arm.rounds),
            format!("{:.3}", arm.failure_rate()),
            format!("{:.3}", arm.final_bucket_rate()),
            format!("{:?}", arm.bucket_failures),
            arm.replay_repeats.to_string(),
            arm.replay_mismatches.to_string(),
        ]);
    }
    table.print();
    let undefended = report.adaptive_delta("lsh").unwrap_or(0.0);
    let defended = report.adaptive_delta("lsh-sub").unwrap_or(0.0);
    let attacked = report
        .arm("lsh", "hillclimb")
        .map_or(0.0, |a| a.failure_rate());
    let attacked_defended = report
        .arm("lsh-sub", "hillclimb")
        .map_or(0.0, |a| a.failure_rate());
    println!();
    println!(
        "attacked-vs-control   (lsh):     {undefended:+.4} adaptive delta (hillclimb {:.3} vs control {:.3})",
        attacked,
        report.arm("lsh", "control").map_or(0.0, |a| a.failure_rate()),
    );
    println!(
        "defended-vs-undefended (hillclimb): {:+.4} ({:.3} defended vs {:.3} undefended)",
        attacked_defended - attacked,
        attacked_defended,
        attacked
    );
    println!("defended adaptive delta (lsh-sub): {defended:+.4}");
    (undefended, defended)
}

/// Resolves `--scenario` + overrides into a config.
fn attack_config(flags: &HashMap<String, String>) -> ScenarioConfig {
    let seed: u64 = flag(flags, "seed", 42);
    let scenario = flags.get("scenario").map_or("quick", String::as_str);
    let mut config = match scenario {
        "tiny" => ScenarioConfig::tiny(seed),
        "quick" => ScenarioConfig::quick(seed),
        "full" => ScenarioConfig::full(seed),
        other => die(&format!("--scenario must be tiny|quick|full, got {other}")),
    };
    config.rounds = flag(flags, "rounds", config.rounds);
    config.bucket = flag(flags, "bucket", config.bucket);
    if config.rounds == 0 || config.bucket == 0 {
        die("--rounds and --bucket must be positive");
    }
    config
}

fn cmd_attack(flags: HashMap<String, String>) {
    let config = attack_config(&flags);
    let band: f64 = flag(&flags, "band", 0.05);
    println!(
        "attack: scenario {} (n={} d={} r={} γ={} boost={}, defense R={} K={}), {} rounds/arm, seed {}",
        config.name,
        config.n,
        config.d,
        config.r,
        config.gamma,
        config.boost,
        config.replicas,
        config.sample,
        config.rounds,
        config.seed
    );
    let report = run_suite(&config);
    let (_, defended_delta) = print_attack_summary(&report);
    if let Some(out) = flags.get("out") {
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write(out, json).unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
        println!("report written to {out}");
    }
    let mismatches: u64 = report.arms.iter().map(|a| a.replay_mismatches).sum();
    if mismatches > 0 {
        eprintln!("attack: FAIL — {mismatches} replayed queries answered differently (answer instability)");
        std::process::exit(1);
    }
    if defended_delta > band {
        eprintln!(
            "attack: FAIL — defended scheme degraded {defended_delta:+.4} under the adaptive attacker (band {band})"
        );
        std::process::exit(1);
    }
    println!("attack: pass (defended adaptive delta {defended_delta:+.4} within band {band})");
}

fn cmd_bench_attack(flags: HashMap<String, String>) {
    let seed: u64 = flag(&flags, "seed", 42);
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "BENCH_attack_quick.json".into());
    // Quick mode is the committed-artifact configuration; full mode is
    // the same geometry with 4× the adaptive rounds.
    let config = if quick_mode() {
        ScenarioConfig::quick(seed)
    } else {
        ScenarioConfig::full(seed)
    };
    println!(
        "bench-attack: scenario {} ({} rounds/arm, seed {seed}), two verification runs",
        config.name, config.rounds
    );
    let start = Instant::now();
    let first = run_suite(&config);
    let wall_ns = start.elapsed().as_nanos() as u64;
    let second = run_suite(&config);
    let replay_verified = first == second;
    print_attack_summary(&first);
    println!();
    println!(
        "replay_verified: {replay_verified} (two runs {}), suite wall {:.2}s",
        if replay_verified {
            "byte-identical"
        } else {
            "DIVERGED"
        },
        wall_ns as f64 / 1e9
    );
    let report = BenchAttackReport {
        scenario: first.scenario.clone(),
        arms: first.arms,
        replay_verified,
        wall_ns,
    };
    // Failure counts and fingerprints are pure functions of (scenario,
    // seed): any drift means the serving stack, a scheme or an attacker
    // changed behavior. Suite wall clock is machine dependent.
    let mut metrics = Vec::new();
    for arm in &report.arms {
        let arm_key = format!("attack.{}.{}", arm.shard, arm.strategy);
        metrics.push(Metric::exact(
            format!("{arm_key}.failures"),
            arm.failures as f64,
        ));
        metrics.push(Metric::exact(
            format!("{arm_key}.fingerprint"),
            f64::from(arm.fingerprint),
        ));
    }
    metrics.push(Metric::wall(
        "attack.suite_wall_ns",
        wall_ns as f64,
        Better::Lower,
        3.0,
    ));
    write_artifact(&out, &report, metrics);
    let mut failures = Vec::new();
    if !replay_verified {
        failures.push("identical configs produced different traces".to_string());
    }
    for arm in report.arms.iter().filter(|a| a.replay_mismatches > 0) {
        failures.push(format!(
            "{}/{} answered {} replayed query(ies) differently",
            arm.shard, arm.strategy, arm.replay_mismatches
        ));
    }
    exit_on_failures("bench-attack", &failures);
}

fn cmd_bench_gate(flags: HashMap<String, String>) {
    if let Some(other) = flags.keys().find(|k| *k != "current" && *k != "reference") {
        die(&format!(
            "bench-gate takes only --current and --reference, not --{other}: bands live in the reference's metric rows"
        ));
    }
    let read = |key: &str| gate::read_artifact(&required(&flags, key)).unwrap_or_else(|e| die(&e));
    let checks = gate::compare(&read("current"), &read("reference")).unwrap_or_else(|e| die(&e));
    print!("{}", gate::render(&checks));
    if checks.iter().any(|c| !c.ok) {
        std::process::exit(1);
    }
}

fn cmd_lpm(flags: HashMap<String, String>) {
    let sigma: u16 = flag(&flags, "sigma", 4);
    let m: usize = flag(&flags, "m", 8);
    let n: usize = flag(&flags, "n", 64);
    let k: u32 = flag(&flags, "k", 2);
    let queries: usize = flag(&flags, "queries", 32);
    let seed: u64 = flag(&flags, "seed", 5);
    let mut rng = StdRng::seed_from_u64(seed);
    let instance = LpmInstance::random(sigma, m, n, &mut rng);
    let trie = TrieLpm::build(instance.clone(), k);
    let mut probes = 0usize;
    let mut ok = 0usize;
    for _ in 0..queries {
        let q: Vec<u16> = (0..m).map(|_| rng.gen_range(0..sigma)).collect();
        let ((idx, lcp), ledger) = execute(&trie, &q);
        probes += ledger.total_probes();
        if instance.is_correct(&q, idx) && lcp == instance.solve(&q).1 {
            ok += 1;
        }
    }
    println!(
        "LPM(Σ={sigma}, m={m}, n={n}) at k={k} (τ={}): {ok}/{queries} correct, avg {:.1} probes",
        trie.tau(),
        probes as f64 / queries as f64
    );
}

fn cmd_lb(flags: HashMap<String, String>) {
    let n_log2: f64 = flag(&flags, "log2n", 1.3e24);
    let d_log2: f64 = flag(&flags, "log2d", 1.1e12);
    let gamma: f64 = flag(&flags, "gamma", 4.0);
    let k: u32 = flag(&flags, "k", 2);
    let honest = !flags.contains_key("relaxed");
    let params = if honest {
        ElimParams::paper()
    } else {
        ElimParams::relaxed()
    };
    let cert = certified_lower_bound(n_log2, d_log2, gamma, k, 1 << 44, &params);
    let form = lower_bound_form(d_log2, gamma, k);
    println!(
        "k = {k}: certified t > {cert} ({} constants); form (1/k)(log_γ d)^(1/k) = {form:.2}",
        if honest { "honest" } else { "relaxed" }
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        die("missing subcommand");
    };
    // `trace` takes a positional action (`inspect`) before its flags.
    if cmd == "trace" {
        return cmd_trace(&args[1..]);
    }
    let flags = parse_flags(&args[1..]);
    match cmd.as_str() {
        "build" => cmd_save(flags, "alg1"),
        "query" => cmd_query(flags),
        "lambda" => cmd_lambda(flags),
        "stats" => cmd_stats(flags),
        "save" => cmd_save(flags, "all"),
        "load" => cmd_load(flags),
        "inspect" => cmd_inspect(flags),
        "mount" => cmd_mount(flags),
        "swap" => cmd_swap(flags),
        "serve" => cmd_serve(flags),
        "server" => cmd_server(flags),
        "client" => cmd_client(flags),
        "attack" => cmd_attack(flags),
        "bench-attack" => cmd_bench_attack(flags),
        "bench-serve" => cmd_bench_serve(flags),
        "bench-server" => cmd_bench_server(flags),
        "bench-kernels" => cmd_bench_kernels(flags),
        "bench-obs" => cmd_bench_obs(flags),
        "bench-store" => cmd_bench_store(flags),
        "bench-gate" => cmd_bench_gate(flags),
        "lpm" => cmd_lpm(flags),
        "lb" => cmd_lb(flags),
        other => die(&format!("unknown subcommand {other}")),
    }
}
