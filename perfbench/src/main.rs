//! `perfbench` — the repeatable benchmark of urlid.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_hot|serve_batch|score_bulk --seed <n> --seconds <s> --trace 0|1
//! ```
//!
//! Builds the release `urlid` binary from the checkout, makes every input
//! from `--seed` with the program's own CLI (`urlid generate`, `train`,
//! `pack`) and `UrlGenerator::crawl_frontier_mix`, runs one workload,
//! checks the answers against the interpreted scoring oracle, and prints
//! one JSON result as the last line of standard output: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `perfbench/README.md` for the workloads and the metric map.

mod alloc;
mod check;
mod client;
mod layers;
mod load;
mod prep;
mod server;
mod stats;
mod trace;

use load::{Draw, Keep, Outcome, Traffic};
use prep::Pool;
use serde::Value;
use server::{ChildServer, Counters};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};
use trace::Tracer;
use urlid::{LanguageIdentifier, ModelSource};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Alternating untraced and traced slices of a traced run.
const TRACE_SLICES: u32 = 8;
/// URLs per `/identify_batch` body.
const BATCH: usize = 64;
/// URLs per `identify_batch` call on `score_bulk`: one frontier chunk.
const BULK_CHUNK: usize = 8192;
/// Pool tags: each workload draws its URLs from its own seeded stream.
const TAG_HOT: u64 = 1;
const TAG_BATCH: u64 = 2;
const TAG_BULK: u64 = 3;
const TAG_FILLER: u64 = 4;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    ServeHot,
    ServeBatch,
    ScoreBulk,
}

impl Workload {
    fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "serve_hot" => Ok(Workload::ServeHot),
            "serve_batch" => Ok(Workload::ServeBatch),
            "score_bulk" => Ok(Workload::ScoreBulk),
            other => Err(format!(
                "unknown workload {other:?} (serve_hot|serve_batch|score_bulk)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::ServeBatch => "serve_batch",
            Workload::ScoreBulk => "score_bulk",
        }
    }
}

struct Config {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: Sizes,
}

/// Input sizes and phase lengths. `--size tiny` exists for the
/// benchmark's own tests; its figures mean nothing.
struct Sizes {
    hot_pool: usize,
    batch_pool: usize,
    bulk_urls: usize,
    /// Segments of an untraced run. Each boots a fresh server (or loads
    /// the model afresh) and measures an equal share of `--seconds`;
    /// the run reports medians over segments, so that one unlucky
    /// process layout or thread placement does not set the figure.
    segments: usize,
    warm: Duration,
    /// Measured length of the in-process allocation-count phase.
    alloc_phase: Duration,
    /// Time each replayed layer is repeated for.
    replay_budget: Duration,
    /// Requests per connection recorded for the replay.
    record: usize,
}

impl Sizes {
    fn full() -> Sizes {
        Sizes {
            hot_pool: 2_000,
            batch_pool: 1 << 20,
            bulk_urls: 32 * BULK_CHUNK,
            segments: 7,
            warm: Duration::from_millis(500),
            alloc_phase: Duration::from_secs(1),
            replay_budget: Duration::from_millis(60),
            record: 1_000,
        }
    }

    fn tiny() -> Sizes {
        Sizes {
            hot_pool: 200,
            batch_pool: 20_000,
            bulk_urls: 2_048,
            segments: 2,
            warm: Duration::from_millis(100),
            alloc_phase: Duration::from_millis(200),
            replay_budget: Duration::from_millis(2),
            record: 20,
        }
    }
}

fn parse_args() -> Result<Config, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut traced, mut tiny) =
        (None, None, None, false, false);
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {}", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} is out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0|1)")),
                }
            }
            "--size" => {
                tiny = match value.as_str() {
                    "full" => false,
                    "tiny" => true,
                    _ => return Err(format!("bad --size {value} (full|tiny)")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: traced,
        sizes: if tiny { Sizes::tiny() } else { Sizes::full() },
    })
}

/// What a run prints: the result line and its provenance.
struct Report {
    failed: u64,
    attempted: u64,
    mismatches: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    provenance: Vec<(&'static str, Value)>,
}

impl Report {
    fn new(provenance: Vec<(&'static str, Value)>) -> Report {
        Report {
            failed: 0,
            attempted: 0,
            mismatches: 0,
            metrics: Vec::new(),
            provenance,
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn result_line(&self) -> String {
        let mut metrics = Value::object();
        for &(name, value, unit) in &self.metrics {
            let mut m = Value::object();
            m.insert("value", Value::Float(value));
            m.insert("unit", Value::Str(unit.to_owned()));
            metrics.insert(name, m);
        }
        let mut o = Value::object();
        o.insert("correct", Value::Bool(self.mismatches == 0));
        o.insert("attempted", Value::Uint(self.attempted.max(1)));
        o.insert("failed", Value::Uint(self.failed));
        o.insert("metrics", metrics);
        serde_json::to_string(&o).expect("result serialises")
    }
}

/// A per-run scratch directory under the checkout, removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&config) {
        Ok(report) => {
            let mut prov = Value::object();
            for (k, v) in &report.provenance {
                prov.insert(k, v.clone());
            }
            let mut line = Value::object();
            line.insert("provenance", prov);
            println!(
                "{}",
                serde_json::to_string(&line).expect("provenance serialises")
            );
            println!("{}", report.result_line());
            if report.mismatches == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} answers disagree with the oracle",
                    report.mismatches
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(config: &Config) -> Result<Report, String> {
    let root = prep::checkout_root();
    let urlid = prep::build_urlid(&root)?;
    let bench_dir = root.join(".bench_work");
    let work = WorkDir(bench_dir.join(format!(
        "run-{}-{}-{}",
        config.workload.name(),
        config.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("{}: {e}", work.0.display()))?;
    let model = prep::model(&urlid, &work.0, config.seed)?;
    let oracle = load_model(&model)?;
    let provenance = provenance(&root, config, &oracle);
    let mut report = Report::new(provenance);
    let mut tracer = Tracer::default();
    match config.workload {
        Workload::ServeHot | Workload::ServeBatch => {
            serve_workload(config, &urlid, &model, &oracle, &mut report, &mut tracer)?
        }
        Workload::ScoreBulk => {
            bulk_workload(config, &urlid, &model, &oracle, &mut report, &mut tracer)?
        }
    }
    if config.trace {
        let path = bench_dir.join(format!(
            "trace-{}-{}.csv",
            config.workload.name(),
            config.seed
        ));
        trace::write_csv(&tracer.spans, &path).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "perfbench: {} spans written to {}",
            tracer.spans.len(),
            path.display()
        );
    }
    Ok(report)
}

fn load_model(model: &Path) -> Result<LanguageIdentifier, String> {
    ModelSource::detect(model)
        .and_then(|source| source.load_identifier())
        .map_err(|e| format!("cannot load {}: {e}", model.display()))
}

/// Median seconds of `ModelSource::detect` + `load_identifier`.
fn model_load_s(model: &Path, times: usize) -> Result<f64, String> {
    let mut secs = Vec::new();
    for _ in 0..times {
        let started = Instant::now();
        std::hint::black_box(load_model(model)?);
        secs.push(started.elapsed().as_secs_f64());
    }
    Ok(stats::median(&secs))
}

fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Client connections (and threads): two, but never more than cores.
fn connections() -> usize {
    cores().min(2)
}

fn provenance(
    root: &Path,
    config: &Config,
    oracle: &LanguageIdentifier,
) -> Vec<(&'static str, Value)> {
    let command = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .current_dir(root)
            // A checkout that is not a repository must not report the
            // commit of one that encloses it.
            .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned())
    };
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned());
    let vocabulary = oracle
        .classifier_set()
        .plane()
        .and_then(|p| p.transform())
        .map_or(0, |t| t.dim());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let s = |v: &str| Value::Str(v.to_owned());
    vec![
        ("workload", s(config.workload.name())),
        ("seed", Value::Uint(config.seed)),
        ("seconds", Value::Float(config.seconds)),
        ("trace", Value::Bool(config.trace)),
        ("commit", s(&command("git", &["rev-parse", "HEAD"]))),
        ("nproc", Value::Uint(cores() as u64)),
        ("kernel", s(&kernel)),
        ("rustc", s(&command(&rustc, &["--version"]))),
        ("model_recipe", s(prep::RECIPE)),
        ("corpus_scale", s(prep::CORPUS_SCALE)),
        ("vocabulary", Value::Uint(vocabulary as u64)),
        ("connections", Value::Uint(connections() as u64)),
    ]
}

/// Check every kept answer against the oracle; each disagreeing
/// answer is one failed operation.
fn check_answers(oracle: &LanguageIdentifier, outcome: &Outcome, report: &mut Report) {
    for exchange in outcome.samples.iter().chain(&outcome.recorded) {
        if let Err(e) = check::served_body(oracle, &exchange.urls, &exchange.body) {
            if report.mismatches < 5 {
                eprintln!("perfbench: wrong answer: {e}");
            }
            report.mismatches += 1;
            report.failed += 1;
        }
    }
}

/// One measured serve phase against a booted server, and what the
/// server's counters and `/proc` entry say about it.
struct ServePhase {
    /// The untraced slices; the whole phase when not traced.
    plain: Outcome,
    /// The traced slices, when traced.
    traced: Option<Outcome>,
    hit_ratio: f64,
    queue_mean_us: f64,
    server_cpu_us: f64,
    rss_mib: f64,
}

impl ServePhase {
    fn requests(&self) -> f64 {
        let ok = |o: &Outcome| o.completions.len() as f64;
        ok(&self.plain) + self.traced.as_ref().map_or(0.0, ok)
    }

    fn client_cpu_us(&self) -> f64 {
        self.plain.client_cpu_us + self.traced.as_ref().map_or(0.0, |o| o.client_cpu_us)
    }
}

fn warm_up(
    conns: &mut [client::Conn],
    traffic: Traffic,
    warm: Duration,
    report: &mut Report,
) -> Result<(), String> {
    if matches!(traffic.draw, Draw::Random) {
        // Every pool URL once on every connection, so that each
        // reactor's cache shard set holds the whole pool.
        let mut request = Vec::new();
        for conn in conns.iter_mut() {
            for url in traffic.pool.iter() {
                let mut body = String::from("{\"url\":");
                client::push_json_string(&mut body, url);
                body.push('}');
                client::post_request(&mut request, "/identify", &body);
                let status = conn
                    .exchange(&request)
                    .map_err(|e| format!("warm-up: {e}"))?;
                report.count(1, u64::from(status != 200));
            }
        }
    }
    let outcome = load::run(conns, traffic, Keep::default(), warm);
    report.count(outcome.attempted, outcome.failed);
    Ok(())
}

fn serve_phase(
    server: &mut ChildServer,
    traffic: Traffic,
    config: &Config,
    measure: Duration,
    traced: bool,
    report: &mut Report,
) -> Result<ServePhase, String> {
    let mut conns =
        client::connect_spread(server.addr, connections()).map_err(|e| format!("connect: {e}"))?;
    warm_up(&mut conns, traffic, config.sizes.warm, report)?;
    let pid = server.pid().to_string();
    let stat = format!("/proc/{pid}/stat");
    let before = Counters::read(&server.json("/metrics")?)?;
    let cpu_before = server::cpu_us(&stat)?;
    // About 2,000 answers are checked per run, whatever the rate.
    let sample_every = if traffic.batch == 1 { 200 } else { 15 };
    let (plain, traced_half) = if traced {
        // Untraced and traced slices alternate, so that the tracing
        // overhead is not confused with a drift in machine speed.
        let (mut plain, mut traced) = (Outcome::default(), Outcome::default());
        for slice in 0..TRACE_SLICES {
            let keep = Keep {
                traced: true,
                record: if slice == 1 { config.sizes.record } else { 0 },
                sample_every,
                exclude_allocs: false,
            };
            if slice % 2 == 0 {
                plain.merge(load::run(
                    &mut conns,
                    traffic,
                    Keep::default(),
                    measure / TRACE_SLICES,
                ));
            } else {
                traced.merge(load::run(&mut conns, traffic, keep, measure / TRACE_SLICES));
            }
        }
        (plain, Some(traced))
    } else {
        let keep = Keep {
            sample_every,
            ..Keep::default()
        };
        (load::run(&mut conns, traffic, keep, measure), None)
    };
    let cpu_after = server::cpu_us(&stat)?;
    let after = Counters::read(&server.json("/metrics")?)?;
    server.check_alive()?;
    for outcome in std::iter::once(&plain).chain(&traced_half) {
        report.count(outcome.attempted, outcome.failed);
        for e in outcome.errors.iter().take(3) {
            eprintln!("perfbench: failed request: {e}");
        }
    }
    Ok(ServePhase {
        plain,
        traced: traced_half,
        hit_ratio: before.hit_ratio_until(&after),
        queue_mean_us: before.queue_mean_us_until(&after),
        server_cpu_us: cpu_after - cpu_before,
        rss_mib: server::peak_rss_mib(&pid)?,
    })
}

fn io_engine(server: &ChildServer, report: &mut Report) -> Result<(), String> {
    let health = server.json("/healthz")?;
    let engine = match health.get("io_backend") {
        Some(Value::Str(s)) => s.clone(),
        _ => "unknown".to_owned(),
    };
    report.provenance.push(("io_engine", Value::Str(engine)));
    Ok(())
}

fn serve_workload(
    config: &Config,
    urlid: &Path,
    model: &Path,
    oracle: &LanguageIdentifier,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let hot = config.workload == Workload::ServeHot;
    let pool = if hot {
        Pool::frontier(config.seed, TAG_HOT, config.sizes.hot_pool)
    } else {
        Pool::frontier(config.seed, TAG_BATCH, config.sizes.batch_pool)
    };
    let cursor = AtomicU64::new(stats::SplitMix::new(config.seed).below(pool.len() as u64));
    let traffic = Traffic {
        pool: &pool,
        batch: if hot { 1 } else { BATCH },
        draw: if hot {
            Draw::Random
        } else {
            Draw::InOrder(&cursor)
        },
        seed: config.seed,
    };
    let measure = Duration::from_secs_f64(config.seconds);
    if !config.trace {
        let segment = measure / config.sizes.segments as u32;
        let mut segments = Segments::default();
        for k in 0..config.sizes.segments {
            let (mut server, setup_s) = ChildServer::boot(urlid, model)?;
            if k == 0 {
                io_engine(&server, report)?;
            }
            let phase = serve_phase(&mut server, traffic, config, segment, false, report)?;
            drop(server);
            check_answers(oracle, &phase.plain, report);
            segments.add(&phase.plain, traffic.batch, segment, setup_s, phase.rss_mib);
        }
        segments.report(report);
        return Ok(());
    }
    let (mut server, _) = ChildServer::boot(urlid, model)?;
    io_engine(&server, report)?;
    let phase = serve_phase(&mut server, traffic, config, measure, true, report)?;
    drop(server);
    check_answers(oracle, phase.traced.as_ref().expect("traced"), report);
    let resident: Vec<String> = if hot {
        pool.iter().map(urlid_serve::normalize_url).collect()
    } else {
        Vec::new()
    };
    let traced = phase.traced.as_ref().expect("traced");
    let ops = (&phase.plain, traced);
    per_layer(
        config, model, oracle, &phase, &resident, traffic, ops, report, tracer,
    )
}

/// End-to-end figures gathered segment by segment.
#[derive(Default)]
struct Segments {
    urls_per_s: Vec<f64>,
    round_trips_ns: Vec<f64>,
    setup_s: Vec<f64>,
    rss_mib: Vec<f64>,
}

impl Segments {
    fn add(
        &mut self,
        outcome: &Outcome,
        urls_per_op: usize,
        measure: Duration,
        setup_s: f64,
        rss_mib: f64,
    ) {
        self.urls_per_s
            .push(load::urls_per_s(outcome, urls_per_op, measure, 10));
        self.round_trips_ns.extend(outcome.round_trips_ns());
        self.setup_s.push(setup_s);
        self.rss_mib.push(rss_mib);
    }

    fn report(mut self, report: &mut Report) {
        let rt = &mut self.round_trips_ns;
        if rt.is_empty() {
            rt.push(f64::NAN);
        }
        rt.sort_by(f64::total_cmp);
        report.metric("urls_per_s", stats::median(&self.urls_per_s), "URL/s");
        report.metric("latency_p50_ms", stats::quantile(rt, 0.50) / 1e6, "ms");
        report.metric("setup_s", stats::median(&self.setup_s), "s");
        report.metric("rss_mb", stats::median(&self.rss_mib), "MiB");
        eprintln!(
            "perfbench: {} operations timed ({} beyond p99); URL/s by segment {:?}",
            rt.len(),
            rt.len() / 100,
            self.urls_per_s
                .iter()
                .map(|r| r.round())
                .collect::<Vec<_>>()
        );
    }
}

/// Allocations per request of an in-process server (`urlid_serve::spawn`
/// with the CLI's defaults), counting every thread but the client's.
fn server_allocs_per_req(
    model: &Path,
    traffic: Traffic,
    config: &Config,
    report: &mut Report,
) -> Result<f64, String> {
    use urlid_serve::{server::default_reactors, spawn, ServeConfig, ServerState};
    let reactors = default_reactors();
    let state = std::sync::Arc::new(ServerState::with_topology(
        load_model(model)?,
        Some(model.to_path_buf()),
        layers::CACHE_CAPACITY,
        urlid_serve::ResultCache::DEFAULT_SHARDS,
        reactors,
        false,
    ));
    let serve_config = ServeConfig {
        reactors,
        ..ServeConfig::default()
    };
    let handle = spawn(&serve_config, state).map_err(|e| format!("in-process server: {e}"))?;
    let result = (|| {
        let mut conns = client::connect_spread(handle.addr(), connections())
            .map_err(|e| format!("connect: {e}"))?;
        warm_up(&mut conns, traffic, config.sizes.warm / 2, report)?;
        let keep = Keep {
            exclude_allocs: true,
            ..Keep::default()
        };
        alloc::exclude_this_thread(true);
        let before = alloc::allocations();
        let outcome = load::run(&mut conns, traffic, keep, config.sizes.alloc_phase);
        let counted = alloc::allocations() - before;
        alloc::exclude_this_thread(false);
        report.count(outcome.attempted, outcome.failed);
        Ok(counted as f64 / (outcome.completions.len().max(1)) as f64)
    })();
    handle.shutdown();
    result
}

/// The per-layer metrics of a traced run. `ops` are the run's untraced
/// and traced operations: requests on the serve workloads, and on
/// `score_bulk` the `identify_batch` calls, which replace the client
/// round trip there.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    config: &Config,
    model: &Path,
    oracle: &LanguageIdentifier,
    phase: &ServePhase,
    resident: &[String],
    traffic: Traffic,
    ops: (&Outcome, &Outcome),
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let traced = phase.traced.as_ref().expect("a traced phase");
    let filler: Vec<String> = {
        let recorded: std::collections::HashSet<String> = traced
            .recorded
            .iter()
            .flat_map(|e| e.urls.iter().map(|u| urlid_serve::normalize_url(u)))
            .chain(resident.iter().cloned())
            .collect();
        Pool::frontier(config.seed, TAG_FILLER, layers::CACHE_CAPACITY)
            .iter()
            .map(urlid_serve::normalize_url)
            .filter(|k| !recorded.contains(k))
            .collect()
    };
    let costs = layers::replay(
        oracle,
        &traced.recorded,
        &filler,
        resident,
        tracer,
        config.sizes.replay_budget,
    )?;
    let load_ms = model_load_s(model, 5)? * 1e3;
    let allocs_per_req = server_allocs_per_req(model, traffic, config, report)?;

    let (plain_ops, traced_ops) = ops;
    let plain_rtt_us = stats::mean(&plain_ops.round_trips_ns()) / 1e3;
    let rtt_us = stats::mean(&traced_ops.round_trips_ns()) / 1e3;
    let mut rt: Vec<f64> = [plain_ops, traced_ops]
        .iter()
        .flat_map(|o| o.round_trips_ns())
        .collect();
    rt.sort_by(f64::total_cmp);
    let layers_ns = if config.workload == Workload::ScoreBulk {
        // One call scores BULK_CHUNK URLs split over one worker per core.
        BULK_CHUNK as f64 * costs.score_all_ns_per_url / cores() as f64
    } else {
        // Every request is parsed, decoded, encoded and framed; every URL
        // normalised and looked up; every missed URL scored and inserted.
        let misses_per_req = costs.urls_per_req * (1.0 - phase.hit_ratio);
        costs.parse_ns_per_req
            + costs.decode_ns_per_req
            + costs.urls_per_req * (costs.normalize_ns_per_url + costs.get_ns_per_url)
            + misses_per_req * (costs.score_all_ns_per_url + costs.insert_ns_per_url)
            + costs.encode_ns_per_resp
            + costs.frame_ns_per_resp
    };
    eprintln!(
        "perfbench: replayed layers {:.2} us + remainder = mean round trip {rtt_us:.2} us",
        layers_ns / 1e3
    );
    let requests = phase.requests().max(1.0);
    let c = &costs;
    for (name, value, unit) in [
        ("tokenize.ns_per_url", c.tokenize_ns_per_url, "ns"),
        ("features.extract_ns_per_url", c.extract_ns_per_url, "ns"),
        ("classifiers.score_ns_per_url", c.score_ns_per_url, "ns"),
        (
            "classifiers.split_overhead_ratio",
            c.split_overhead_ratio,
            "ratio",
        ),
        ("classifiers.allocs_per_url", c.allocs_per_url, "count"),
        ("persistence.load_ms", load_ms, "ms"),
        ("http.parse_ns_per_req", c.parse_ns_per_req, "ns"),
        ("http.frame_ns_per_resp", c.frame_ns_per_resp, "ns"),
        ("json.decode_ns_per_req", c.decode_ns_per_req, "ns"),
        ("json.encode_ns_per_resp", c.encode_ns_per_resp, "ns"),
        ("cache.normalize_ns_per_url", c.normalize_ns_per_url, "ns"),
        ("cache.get_ns_per_url", c.get_ns_per_url, "ns"),
        ("cache.insert_ns_per_url", c.insert_ns_per_url, "ns"),
        ("cache.hit_ratio", phase.hit_ratio, "ratio"),
        ("server.queue_us_mean", phase.queue_mean_us, "us"),
        (
            "server.cpu_us_per_req",
            phase.server_cpu_us / requests,
            "us",
        ),
        (
            "client.cpu_us_per_req",
            phase.client_cpu_us() / requests,
            "us",
        ),
        ("server.allocs_per_req", allocs_per_req, "count"),
        // The p99 does not repeat within a tenth from run to run on a
        // shared 2-core machine: a diagnostic, not an end-to-end metric.
        ("latency_p99_ms", stats::quantile(&rt, 0.99) / 1e6, "ms"),
        ("client.rtt_us_mean", rtt_us, "us"),
        ("remainder.us_per_req", rtt_us - layers_ns / 1e3, "us"),
        ("trace.overhead_ratio", rtt_us / plain_rtt_us, "ratio"),
    ] {
        report.metric(name, value, unit);
    }
    tracer.spans.extend(traced.spans.iter().copied());
    Ok(())
}

/// `identify_batch` calls over the frontier, chunk by chunk, for
/// `measure`. About eight calls per run are checked in full against the
/// oracle, after the clock stops.
fn bulk_calls(
    identifier: &LanguageIdentifier,
    urls: &[&str],
    seed: u64,
    measure: Duration,
    mut tracer: Option<&mut Tracer>,
    oracle: &LanguageIdentifier,
    report: &mut Report,
) -> Outcome {
    let chunks = urls.len().div_ceil(BULK_CHUNK);
    let chunk = |i: usize| &urls[i * BULK_CHUNK..((i + 1) * BULK_CHUNK).min(urls.len())];
    let mut rng = stats::SplitMix::new(seed ^ 0x5EED);
    let mut next = rng.below(chunks as u64) as usize;
    let mut out = Outcome::default();
    let mut kept = Vec::new();
    let epoch = Instant::now();
    while epoch.elapsed() < measure {
        let urls = chunk(next);
        let started = epoch.elapsed().as_nanos() as u64;
        let decisions = match tracer.as_deref_mut() {
            Some(t) => {
                t.span("urlid.identify_batch", 0, urls.len() as u64, || {
                    identifier.identify_batch(urls)
                })
                .0
            }
            None => identifier.identify_batch(urls),
        };
        let done = epoch.elapsed().as_nanos() as u64;
        out.attempted += 1;
        out.completions.push((done, done - started));
        if out.attempted == 1 || rng.below(40) == 0 {
            kept.push((next, decisions));
        }
        next = (next + 1) % chunks;
    }
    for (i, decisions) in kept {
        if let Err(e) = check::decisions(oracle, chunk(i), &decisions) {
            if report.mismatches < 5 {
                eprintln!("perfbench: wrong decision: {e}");
            }
            report.mismatches += 1;
            out.failed += 1;
        }
    }
    out
}

/// Load the model and run one untimed pass over the frontier.
fn warm_identifier(model: &Path, urls: &[&str]) -> Result<LanguageIdentifier, String> {
    let identifier = load_model(model)?;
    for chunk in urls.chunks(BULK_CHUNK) {
        std::hint::black_box(identifier.identify_batch(chunk));
    }
    Ok(identifier)
}

fn bulk_workload(
    config: &Config,
    urlid: &Path,
    model: &Path,
    oracle: &LanguageIdentifier,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let pool = Pool::frontier(config.seed, TAG_BULK, config.sizes.bulk_urls);
    let urls: Vec<&str> = pool.iter().collect();
    let measure = Duration::from_secs_f64(config.seconds);
    if !config.trace {
        let segment = measure / config.sizes.segments as u32;
        let mut segments = Segments::default();
        for _ in 0..config.sizes.segments {
            let setup_s = model_load_s(model, 3)?;
            let identifier = warm_identifier(model, &urls)?;
            let outcome = bulk_calls(
                &identifier,
                &urls,
                config.seed,
                segment,
                None,
                oracle,
                report,
            );
            report.count(outcome.attempted, outcome.failed);
            let rss = server::peak_rss_mib("self")?;
            segments.add(&outcome, BULK_CHUNK.min(urls.len()), segment, setup_s, rss);
        }
        report
            .provenance
            .push(("io_engine", Value::Str("none (in-process)".to_owned())));
        segments.report(report);
        return Ok(());
    }
    let identifier = warm_identifier(model, &urls)?;
    let (mut plain, mut traced) = (Outcome::default(), Outcome::default());
    for slice in 0..TRACE_SLICES {
        let slice_tracer = (slice % 2 == 1).then_some(&mut *tracer);
        let traced_slice = slice_tracer.is_some();
        let calls = bulk_calls(
            &identifier,
            &urls,
            config.seed,
            measure / TRACE_SLICES,
            slice_tracer,
            oracle,
            report,
        );
        if traced_slice {
            traced.merge(calls);
        } else {
            plain.merge(calls);
        }
    }
    report.count(
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
    );
    let cursor = AtomicU64::new(stats::SplitMix::new(config.seed).below(pool.len() as u64));
    // score_bulk has no server: its serve-side figures describe serving
    // the same frontier as /identify_batch bodies, a quarter as long.
    let traffic = Traffic {
        pool: &pool,
        batch: BATCH,
        draw: Draw::InOrder(&cursor),
        seed: config.seed,
    };
    let (mut server, _) = ChildServer::boot(urlid, model)?;
    io_engine(&server, report)?;
    let phase = serve_phase(&mut server, traffic, config, measure / 4, true, report)?;
    drop(server);
    check_answers(oracle, phase.traced.as_ref().expect("traced"), report);
    per_layer(
        config,
        model,
        oracle,
        &phase,
        &[],
        traffic,
        (&plain, &traced),
        report,
        tracer,
    )
}
