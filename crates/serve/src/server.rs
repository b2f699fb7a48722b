//! Server state, request routing, and the engine spawn/shutdown API.
//!
//! ## Threading model
//!
//! `N` **reactor threads** (the internal `reactor` module) share the
//! accept load: each owns its own `SO_REUSEPORT` listener (the kernel
//! load-balances incoming connections across them; where `REUSEPORT`
//! is unavailable they accept-race clones of one listener), its own
//! connection slab, its own wake pipe, and its own result-cache shard
//! set. A connection is adopted by exactly one reactor and never
//! migrates — no hot-path state crosses reactor boundaries. Each
//! reactor feeds bytes into per-connection incremental parsers and
//! writes responses over non-blocking sockets multiplexed by a
//! level-triggered epoll instance (see [`crate::sys`]). `try_inline`
//! decodes, normalises and probes a parsed `POST /identify` against the
//! reactor's cache set on the reactor thread: a **hit** or a bad body is
//! answered right there, with no handoff. A **miss** is dispatched with
//! its normalised key to a small **scoring pool** (the internal `pool`
//! module) sized to the CPU count, where `route` scores, caches and
//! writes the result without decoding or probing again; every other
//! route (`/identify_batch`, health, metrics, admin, and `/identify`
//! bodies over `INLINE_BODY_MAX`) goes there too. The pool's threads
//! only ever run compute. Both scoring endpoints read their bodies with
//! the internal `body` scanner, which normalises URLs straight from the
//! body into a reusable key buffer, and both write results with
//! [`write_result`] straight into the response body — no JSON value tree
//! either way. A batch with fewer than `PARALLEL_THRESHOLD` misses is
//! scored one URL after another through the worker's own extraction
//! scratch, so a warm worker serves it with a constant handful of
//! allocations; a larger one fans out over all cores. Total thread
//! budget: `reactors + cores`,
//! independent of the number of open connections — thousands of
//! mostly-idle keep-alive clients cost slab slots, not threads. (The
//! previous engine parked one blocking worker thread per keep-alive
//! connection, capping concurrent connections at the pool size.)
//!
//! Each reactor also runs **admission control**: at most
//! [`ServeConfig::max_inflight`] requests per reactor may sit in the
//! scoring pool at once; the excess is answered `503` directly on the
//! reactor thread without ever crossing into the pool, so overload
//! sheds load instead of queueing it. Inline cache hits never enter
//! the pool, so they neither count against the cap nor get shed.
//!
//! ## Hot reload
//!
//! The model lives in a private `ModelSlot` behind an `RwLock`: request
//! handlers take a read lock just long enough to clone the
//! `Arc<LanguageIdentifier>` and the epoch, then score without any lock
//! held. `POST /admin/reload` loads the new model — JSON or the
//! zero-copy `.urlm` binary format, sniffed by magic — *before* taking the
//! write lock, so the lock is held only for the pointer swap — in-flight
//! requests finish on the model they started with and no request is ever
//! dropped. The epoch bump atomically invalidates the result cache (see
//! [`crate::cache`]).

use crate::body::{self, Keys, Shape};
use crate::cache::{CachedScores, ResultCache};
use crate::http::{Request, MAX_BODY_BYTES};
use crate::metrics::{Metrics, IO_BACKEND, WEIGHTS};
use crate::pool::{CompletionPort, ScoringPool};
use crate::reactor::Reactor;
use crate::sys::{WakePipe, Waker};
use serde::Value;
use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use urlid::{LanguageIdentifier, ModelFormat, ModelSource};
use urlid_classifiers::{LanguageClassifierSet, PARALLEL_THRESHOLD};
use urlid_features::ExtractScratch;
use urlid_lexicon::ALL_LANGUAGES;
use urlid_telemetry::{duration_micros, PromWriter, Stage};

/// Content type of every JSON response.
pub(crate) const CONTENT_TYPE_JSON: &str = "application/json";
/// Content type of the Prometheus text exposition (format 0.0.4).
const CONTENT_TYPE_PROM: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Default reactor count: one per core, capped at four. Past four
/// reactors the accept/parse/write load is spread thinner than the
/// scoring work that actually saturates the cores.
pub fn default_reactors() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// Server configuration (everything has serving-friendly defaults).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (tests, loadgen).
    pub addr: String,
    /// Reactor threads, each owning its own `SO_REUSEPORT` listener and
    /// connection slab; 0 means [`default_reactors`] (`min(cores, 4)`).
    pub reactors: usize,
    /// Scoring-pool threads; 0 means one per available core. These
    /// threads are pure compute — connections no longer pin threads, so
    /// there is nothing to over-provision.
    pub scoring_threads: usize,
    /// Per-reactor admission-control limit: at most this many requests
    /// from one reactor may be in the scoring pool at once; the excess
    /// is answered `503` on the reactor thread. `/identify` cache hits,
    /// answered on the reactor, are exempt. `0` disables the limit.
    pub max_inflight: usize,
    /// Number of cache shards (mutex stripes) *per shard set*; each
    /// reactor maps onto one set of the state's [`ResultCache`].
    pub cache_shards: usize,
    /// A connection with no bytes moving for this long is evicted by
    /// the reactor — mid-request (slowloris) and between requests
    /// alike. Connections whose request is in the scoring pool are
    /// exempt. An eviction costs a slab slot, never a thread, so this
    /// can be generous.
    pub idle_timeout: Duration,
    /// Maximum accepted `Content-Length`; larger declarations are
    /// answered with `413` before any body byte is buffered.
    pub max_body_bytes: usize,
    /// How long a graceful shutdown waits for in-flight requests to
    /// finish and flush before force-closing what remains.
    pub drain_timeout: Duration,
    /// Stage-span recording (per-stage histograms, the trace ring).
    /// Counters and the end-to-end latency histogram stay on even when
    /// this is off; turning it off exists for A/B overhead runs
    /// (`urlid serve --telemetry off`).
    pub telemetry: bool,
    /// Requests served by the scoring pool that are slower than this
    /// (end-to-end, microseconds) emit one rate-limited key=value line
    /// to stderr; `0` disables the slow log entirely. `/identify` cache
    /// hits, answered on the reactor with no queue and no scoring, are
    /// not logged.
    pub slow_request_micros: u64,
    /// Test hook: a reactor panics once it has accepted more than this
    /// many connections (`Some(0)` panics on the first accept). Used by
    /// the panic-hardening integration test to prove a dying reactor
    /// does not strand its siblings; `None` in any real configuration.
    pub fail_after_accepts: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            reactors: 0,
            scoring_threads: 0,
            max_inflight: 32,
            cache_shards: ResultCache::DEFAULT_SHARDS,
            idle_timeout: Duration::from_secs(5),
            max_body_bytes: MAX_BODY_BYTES,
            drain_timeout: Duration::from_secs(2),
            telemetry: true,
            slow_request_micros: 100_000,
            fail_after_accepts: None,
        }
    }
}

/// Per-request trace context threaded through [`route`]: which trace
/// stripe to record into, the request id, and the stage durations the
/// handlers measured (the scoring-pool worker reads these back for the
/// slow-request log line).
pub(crate) struct RequestTrace {
    /// Request id assigned at parse completion.
    pub request_id: u64,
    /// Trace-ring stripe of the recording thread (`1 + worker_index`).
    pub stripe: usize,
    /// Result-cache shard set of the dispatching reactor (set `0` for
    /// anything that scores outside a reactor context).
    pub cache_set: usize,
    /// Result-cache probe duration in microseconds (stays `0` on the
    /// pool for an `/identify` miss: its probe ran on the reactor).
    pub cache_us: u64,
    /// Feature-extraction duration in microseconds (cache miss only).
    pub extract_us: u64,
    /// Scoring duration in microseconds (cache miss only).
    pub score_us: u64,
}

impl RequestTrace {
    pub(crate) fn new(request_id: u64, stripe: usize) -> Self {
        RequestTrace {
            request_id,
            stripe,
            cache_set: 0,
            cache_us: 0,
            extract_us: 0,
            score_us: 0,
        }
    }
}

/// The hot-swappable model: identifier + epoch + provenance (the path
/// it came from, the persistence format it was decoded from, and how
/// long the load took).
struct ModelSlot {
    identifier: Arc<LanguageIdentifier>,
    epoch: u64,
    path: Option<PathBuf>,
    /// `None` for models built in memory (tests, library embedders).
    format: Option<ModelFormat>,
    /// Wall-clock milliseconds the load of this model took; `None` for
    /// in-memory models that were never loaded from disk.
    load_ms: Option<f64>,
}

/// A consistent read of the model slot: everything `/healthz`,
/// `/metrics` and reload responses report about the serving model,
/// captured under a single lock hold.
struct ModelStatus {
    identifier: Arc<LanguageIdentifier>,
    epoch: u64,
    path: Option<PathBuf>,
    format: Option<ModelFormat>,
    load_ms: Option<f64>,
}

/// What a successful reload swapped in (returned to the `/admin/reload`
/// handler so the response can report it without re-reading the slot).
pub struct ReloadReport {
    /// The post-swap cache epoch.
    pub epoch: u64,
    /// The persistence format the new model was decoded from.
    pub format: ModelFormat,
    /// Wall-clock milliseconds spent loading (file → ready identifier;
    /// the pointer swap is not included).
    pub load_ms: f64,
}

/// Everything the request handlers share: the model slot, the result
/// cache and the metrics. Constructed once and passed to [`spawn`] in an
/// `Arc`; tests reach the cache and metrics through it.
pub struct ServerState {
    slot: RwLock<ModelSlot>,
    cache: ResultCache,
    metrics: Metrics,
}

impl ServerState {
    /// Read the model slot, recovering from lock poisoning: the slot
    /// only ever holds fully swapped `Arc`s (the write section is three
    /// assignments), so a panic elsewhere must not cascade into every
    /// scoring worker that reads the model afterwards.
    fn read_slot(&self) -> std::sync::RwLockReadGuard<'_, ModelSlot> {
        self.slot
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// A serving state for a trained identifier. `model_path` is where
    /// `POST /admin/reload` reloads from when the request names no path
    /// (pass `None` for states built from in-memory models).
    pub fn new(
        identifier: LanguageIdentifier,
        model_path: Option<PathBuf>,
        cache_capacity: usize,
    ) -> Self {
        Self::with_topology(
            identifier,
            model_path,
            cache_capacity,
            ResultCache::DEFAULT_SHARDS,
            1,
            false,
        )
    }

    /// [`ServerState::new`] plus an explicit cache shard count and
    /// shard-set count. Size `cache_sets` to the reactor count you will
    /// serve with: reactor `r` probes only set `r % cache_sets`, so with
    /// one set per reactor no cache stripe is ever contended across
    /// reactors. The capacity is split evenly across the sets.
    ///
    /// The last parameter is removed: it chose a second weight type,
    /// which no longer exists. It stays only so existing callers keep
    /// compiling, and it must be `false`.
    ///
    /// # Panics
    /// Panics if the removed parameter is `true`.
    pub fn with_topology(
        identifier: LanguageIdentifier,
        model_path: Option<PathBuf>,
        cache_capacity: usize,
        cache_shards: usize,
        cache_sets: usize,
        removed_f32_weights: bool,
    ) -> Self {
        assert!(
            !removed_f32_weights,
            "the f32 weight lane was removed; every score is the exact f64 score"
        );
        Self {
            slot: RwLock::new(ModelSlot {
                identifier: Arc::new(identifier),
                epoch: 0,
                path: model_path,
                format: None,
                load_ms: None,
            }),
            cache: ResultCache::with_sets(cache_capacity, cache_shards, cache_sets),
            metrics: Metrics::new(),
        }
    }

    /// The current model and its epoch (consistent snapshot).
    pub fn model(&self) -> (Arc<LanguageIdentifier>, u64) {
        let slot = self.read_slot();
        (Arc::clone(&slot.identifier), slot.epoch)
    }

    /// The current cache epoch (what a cache probe compares entries
    /// against; cheaper than [`ServerState::model`], which also clones
    /// the identifier handle).
    pub fn epoch(&self) -> u64 {
        self.read_slot().epoch
    }

    /// Model, epoch *and* provenance under a single lock hold, so a
    /// concurrent reload can never produce a torn epoch/path/format
    /// pairing in `/healthz`, `/metrics` or reload responses.
    fn model_snapshot(&self) -> ModelStatus {
        let slot = self.read_slot();
        ModelStatus {
            identifier: Arc::clone(&slot.identifier),
            epoch: slot.epoch,
            path: slot.path.clone(),
            format: slot.format,
            load_ms: slot.load_ms,
        }
    }

    /// Record how the initially installed model was loaded (format and
    /// load latency), so `/healthz` and `/metrics` report provenance
    /// from the first request on. The CLI calls this right after
    /// constructing the state; states built from in-memory models skip
    /// it and report `null`.
    pub fn set_load_info(&self, format: ModelFormat, load_ms: f64) {
        let mut slot = self
            .slot
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        slot.format = Some(format);
        slot.load_ms = Some(load_ms);
    }

    /// The result cache (exposed for metrics and tests).
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// The serving metrics (exposed for tests).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Swap in a model loaded from `path` (or from the slot's stored
    /// path when `None`), auto-detecting the persistence format.
    /// Returns the new epoch. The old model keeps serving until the
    /// swap; on any error it keeps serving, period.
    pub fn reload(&self, path: Option<PathBuf>) -> Result<u64, String> {
        self.reload_from(path, "auto").map(|report| report.epoch)
    }

    /// [`ServerState::reload`] with an explicit format request:
    /// `"auto"` (or `""`) sniffs the `.urlm` magic, `"json"` and
    /// `"binary"` force a format. The identifier is built *outside* the
    /// write lock, so the lock is held only for the pointer swap.
    pub fn reload_from(&self, path: Option<PathBuf>, format: &str) -> Result<ReloadReport, String> {
        let path = match path.or_else(|| self.read_slot().path.clone()) {
            Some(p) => p,
            None => {
                return Err(
                    "no model path to reload from (start with --model or pass {\"path\": ...})"
                        .into(),
                )
            }
        };
        let source = ModelSource::resolve(&path, format)
            .map_err(|e| format!("cannot reload {}: {e}", path.display()))?;
        let started = Instant::now();
        let identifier = source
            .load_identifier()
            .map_err(|e| format!("cannot reload {}: {e}", path.display()))?;
        let load_ms = started.elapsed().as_secs_f64() * 1e3;
        let format = source.format();
        let identifier = Arc::new(identifier);
        let epoch = {
            let mut slot = self
                .slot
                .write()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            slot.identifier = identifier;
            slot.epoch += 1;
            slot.path = Some(path);
            slot.format = Some(format);
            slot.load_ms = Some(load_ms);
            slot.epoch
        };
        // The epoch bump already invalidates stale entries; clearing just
        // releases their memory promptly.
        self.cache.clear();
        self.metrics.reloads.fetch_add(1, Ordering::Relaxed);
        Ok(ReloadReport {
            epoch,
            format,
            load_ms,
        })
    }

    /// Score one normalised URL whose cache probe missed and cache the
    /// result. Scoring runs through the calling worker's reusable
    /// [`ExtractScratch`], so the extract-and-score path allocates
    /// nothing in steady state — the stage spans recorded along the way
    /// keep that property (atomic histogram bumps plus a copy into a
    /// pre-allocated trace slot). The insert uses the epoch of the model
    /// that scored, so a reload between the probe and here can never
    /// tag new scores with an old epoch.
    fn score_miss(
        &self,
        key: &str,
        scratch: &mut ExtractScratch,
        trace: &mut RequestTrace,
    ) -> CachedScores {
        let (identifier, epoch) = self.model();
        // With telemetry off the plain entry point runs — the timed
        // variant executes the exact same float operations (it shares
        // the extraction/scoring helpers), the split just reads the
        // clock between them.
        let scores = if self.metrics.telemetry_enabled() {
            let (scores, split) = identifier
                .classifier_set()
                .score_all_with_split(key, scratch);
            trace.extract_us = duration_micros(split.extract);
            trace.score_us = duration_micros(split.score);
            self.metrics.record_stage_end(
                trace.stripe,
                trace.request_id,
                Stage::Extract,
                trace.extract_us,
            );
            self.metrics.record_stage_end(
                trace.stripe,
                trace.request_id,
                Stage::Score,
                trace.score_us,
            );
            scores
        } else {
            identifier.classifier_set().score_all_with(key, scratch)
        };
        self.cache.insert_in(trace.cache_set, key, epoch, scores);
        scores
    }

    /// Score a batch of normalised URLs into `out.results`, one
    /// `(scores, cached)` per key: cache lookups first, each hashing its
    /// key once (the hash is kept for the insert), then the misses
    /// scored, then inserted. Fewer than [`PARALLEL_THRESHOLD`] misses
    /// are scored one after another through the worker's own `extract`
    /// scratch, so a warm `out` makes the whole pass allocation-free;
    /// from that many on, `score_batch` fans them out over all cores, so
    /// one client's large batch does not wait on a single thread. The
    /// batch records the lookups as one cache-stage span and the scoring
    /// as one score-stage span (extraction included).
    fn scores_cached_batch(
        &self,
        keys: &Keys,
        out: &mut BatchBuffers,
        extract: &mut ExtractScratch,
        trace: &mut RequestTrace,
    ) {
        let (identifier, epoch) = self.model();
        let set = trace.cache_set;
        out.clear();
        let cache_started = Instant::now();
        for key in keys.iter() {
            let hash = self.cache.hash(key);
            out.hashes.push(hash);
            out.results
                .push(match self.cache.get_hashed(set, hash, key, epoch) {
                    Some(scores) => (scores, true),
                    None => ([None; 5], false),
                });
        }
        trace.cache_us = duration_micros(cache_started.elapsed());
        self.metrics
            .record_stage_end(trace.stripe, trace.request_id, Stage::Cache, trace.cache_us);
        if out.results.iter().all(|&(_, cached)| cached) {
            return;
        }
        let classifiers = identifier.classifier_set();
        let score_started = Instant::now();
        let misses = out.results.iter().filter(|&&(_, cached)| !cached).count();
        if misses < PARALLEL_THRESHOLD {
            for (i, (scores, cached)) in out.results.iter_mut().enumerate() {
                if !*cached {
                    *scores = classifiers.score_all_with(keys.get(i), extract);
                }
            }
        } else {
            let urls: Vec<&str> = keys
                .iter()
                .zip(&out.results)
                .filter(|&(_, &(_, cached))| !cached)
                .map(|(key, _)| key)
                .collect();
            let scored = classifiers.score_batch(&urls);
            let missed = out.results.iter_mut().filter(|(_, cached)| !*cached);
            for ((scores, _), new) in missed.zip(scored) {
                *scores = new;
            }
        }
        trace.score_us = duration_micros(score_started.elapsed());
        self.metrics
            .record_stage_end(trace.stripe, trace.request_id, Stage::Score, trace.score_us);
        for (i, &(scores, cached)) in out.results.iter().enumerate() {
            if !cached {
                self.cache
                    .insert_hashed(set, out.hashes[i], keys.get(i), epoch, scores);
            }
        }
    }
}

/// What a scoring-pool worker keeps from one request to the next: the
/// extraction scratch, the decoded keys and the batch buffers. Warm,
/// they let a batch of misses be decoded, probed, scored and inserted
/// without allocating.
#[derive(Default)]
pub(crate) struct WorkerScratch {
    extract: ExtractScratch,
    keys: Keys,
    batch: BatchBuffers,
}

/// The per-key buffers of [`ServerState::scores_cached_batch`].
#[derive(Default)]
struct BatchBuffers {
    hashes: Vec<u64>,
    results: Vec<(CachedScores, bool)>,
}

impl BatchBuffers {
    /// Empty the buffers, keeping capacity for [`body::RETAINED_KEYS`]
    /// URLs: one large batch does not pin its memory to the worker.
    fn clear(&mut self) {
        self.hashes.clear();
        self.results.clear();
        self.hashes.shrink_to(body::RETAINED_KEYS);
        self.results.shrink_to(body::RETAINED_KEYS);
    }
}

// ---------------------------------------------------------------------
// Response building
// ---------------------------------------------------------------------

/// Serialise a `{"error": ...}` body (shared with the connection state
/// machine, which answers protocol violations without a handler).
pub(crate) fn error_body(message: &str) -> String {
    let mut out = String::with_capacity(message.len() + 12);
    out.push_str("{\"error\":");
    write_json_str(&mut out, message);
    out.push('}');
    out
}

/// Append `s` as a JSON string literal: the escaping `serde_json`
/// writes (`\"`, `\\`, `\n`, `\r`, `\t`, `\u00XX` for the other
/// control characters, everything else verbatim), copied in runs
/// between the bytes that need it.
fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, &byte) in s.as_bytes().iter().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // `byte` is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append a score the way `serde_json` writes a float: Rust's shortest
/// round-trip form (`{:?}`), or `null` when missing or not finite.
fn write_json_score(out: &mut String, score: Option<f64>) {
    match score {
        Some(x) if x.is_finite() => {
            let _ = write!(out, "{x:?}");
        }
        _ => out.push_str("null"),
    }
}

/// Append one URL's result object (shared by `/identify` and
/// `/identify_batch`):
/// `{"url":…,"best":…,"accepted":[…],"scores":{…},"cached":…}`.
///
/// The bytes are exactly those `serde_json::to_string` writes for the
/// equivalent `Value` tree (a property test pins this down), without
/// building the tree. Decisions and the best language are derived from
/// the scores alone (sign convention), which is what makes score-only
/// caching sufficient.
pub fn write_result(out: &mut String, key: &str, scores: &CachedScores, cached: bool) {
    out.push_str("{\"url\":");
    write_json_str(out, key);
    out.push_str(",\"best\":");
    match LanguageClassifierSet::best_of(scores) {
        Some(lang) => write_json_str(out, lang.iso_code()),
        None => out.push_str("null"),
    }
    out.push_str(",\"accepted\":[");
    let mut first = true;
    for lang in ALL_LANGUAGES {
        // The sign convention (decision == score > 0) is proptested for
        // every algorithm, so decisions are free given the scores.
        if scores[lang.index()].is_some_and(|s| s > 0.0) {
            if !first {
                out.push(',');
            }
            first = false;
            write_json_str(out, lang.iso_code());
        }
    }
    out.push_str("],\"scores\":{");
    for (i, lang) in ALL_LANGUAGES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_str(out, lang.iso_code());
        out.push(':');
        write_json_score(out, scores[lang.index()]);
    }
    out.push_str("},\"cached\":");
    out.push_str(if cached { "true" } else { "false" });
    out.push('}');
}

/// Append the `/identify_batch` envelope,
/// `{"count":…,"cache_hits":…,"results":[…]}`, with one
/// [`write_result`] object per key.
pub fn write_batch(out: &mut String, keys: &[String], results: &[(CachedScores, bool)]) {
    write_batch_of(out, keys.iter().map(String::as_str), results);
}

/// [`write_batch`] over keys from any source (the server's come from a
/// [`Keys`] buffer).
fn write_batch_of<'k>(
    out: &mut String,
    keys: impl ExactSizeIterator<Item = &'k str>,
    results: &[(CachedScores, bool)],
) {
    let hits = results.iter().filter(|(_, cached)| *cached).count();
    let _ = write!(
        out,
        "{{\"count\":{},\"cache_hits\":{hits},\"results\":[",
        keys.len()
    );
    for (i, (key, (scores, cached))) in keys.zip(results).enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_result(out, key, scores, *cached);
    }
    out.push_str("]}");
}

fn model_value(status: &ModelStatus) -> Value {
    let identifier = &status.identifier;
    let config = identifier.config();
    let mut o = Value::object();
    o.insert(
        "algorithm",
        Value::Str(config.algorithm.abbrev().to_owned()),
    );
    // Models loaded from a bundle are always compiled; the flag makes
    // the serving representation observable in /healthz and /metrics.
    o.insert(
        "compiled",
        Value::Bool(identifier.classifier_set().is_compiled()),
    );
    o.insert(
        "features",
        Value::Str(config.feature_set.short_label().to_owned()),
    );
    o.insert("epoch", Value::Uint(status.epoch));
    o.insert("weights", Value::Str(WEIGHTS.to_owned()));
    // Persistence provenance: which on-disk format the model was
    // decoded from ("json" | "binary"), how long that load took, and
    // whether the compiled plane still serves straight out of the
    // mapped file. All `null`/`false` for in-memory models.
    o.insert(
        "format",
        match status.format {
            Some(f) => Value::Str(f.as_str().to_owned()),
            None => Value::Null,
        },
    );
    o.insert(
        "load_ms",
        match status.load_ms {
            Some(ms) => Value::Float(ms),
            None => Value::Null,
        },
    );
    o.insert(
        "mapped",
        Value::Bool(
            identifier
                .classifier_set()
                .plane()
                .is_some_and(|p| p.is_mapped()),
        ),
    );
    o.insert(
        "path",
        match &status.path {
            Some(p) => Value::Str(p.display().to_string()),
            None => Value::Null,
        },
    );
    o
}

// ---------------------------------------------------------------------
// Request handlers
// ---------------------------------------------------------------------

fn parse_json(body: &str) -> Result<Value, String> {
    serde_json::from_str::<Value>(body).map_err(|e| format!("invalid JSON body: {e}"))
}

/// Most bytes [`write_result`] adds around its key, plus a separating
/// comma: field names, the two-letter codes and five scores of at most
/// 24 characters each (the longest `{x:?}` of an `f64`). A body sized
/// with it is written without regrowing, unless keys need escaping.
const RESULT_OVERHEAD: usize = 240;

/// Most bytes of the `/identify_batch` envelope around its results.
const BATCH_ENVELOPE: usize = 80;

/// Largest `POST /identify` body the reactor decodes itself. A plain
/// `{"url": "..."}` stays far below it; a larger body goes to the pool
/// whole, under admission control, so no decode on a reactor thread
/// ever takes long enough to stall that reactor's other connections.
pub(crate) const INLINE_BODY_MAX: usize = 8 * 1024;

/// What probing a `POST /identify` body decided.
pub(crate) enum Identify {
    /// Answered with this status and body: a cache hit (`200`) or a
    /// body that deserves a `400`.
    Answered(u16, String),
    /// The normalised key missed the cache; [`route`] scores it.
    Miss(String),
}

/// The front half of `POST /identify`: scan the body into `keys`,
/// normalising its URL, and probe the cache once. A hit or a bad body
/// is answered; a miss hands its key on to [`handle_identify`], which
/// never probes again, so `cache.hits + cache.misses` counts each
/// request once.
fn identify_probe(
    state: &ServerState,
    body: &str,
    keys: &mut Keys,
    trace: &mut RequestTrace,
) -> Identify {
    if let Err(message) = body::scan(body, Shape::One, keys) {
        return Identify::Answered(400, error_body(&message));
    }
    let key = keys.get(0);
    let epoch = state.epoch();
    let cache_started = Instant::now();
    let hit = state.cache.get_in(trace.cache_set, key, epoch);
    trace.cache_us = duration_micros(cache_started.elapsed());
    state
        .metrics
        .record_stage_end(trace.stripe, trace.request_id, Stage::Cache, trace.cache_us);
    match hit {
        Some(scores) => {
            let mut body = String::with_capacity(RESULT_OVERHEAD + key.len());
            write_result(&mut body, key, &scores, true);
            state.metrics.identify.fetch_add(1, Ordering::Relaxed);
            Identify::Answered(200, body)
        }
        None => Identify::Miss(key.to_owned()),
    }
}

/// `POST /identify` on the pool: score, cache and write a miss the
/// reactor already probed (`miss_key`), or run the whole request for a
/// body the reactor left alone (one over [`INLINE_BODY_MAX`]).
fn handle_identify(
    state: &ServerState,
    req: &Request,
    miss_key: Option<&str>,
    scratch: &mut WorkerScratch,
    trace: &mut RequestTrace,
) -> (u16, String) {
    let probed;
    let key = match miss_key {
        Some(key) => key,
        None => match identify_probe(state, &req.body, &mut scratch.keys, trace) {
            Identify::Answered(status, body) => return (status, body),
            Identify::Miss(key) => {
                probed = key;
                &probed
            }
        },
    };
    let scores = state.score_miss(key, &mut scratch.extract, trace);
    let mut body = String::with_capacity(RESULT_OVERHEAD + key.len());
    write_result(&mut body, key, &scores, false);
    state.metrics.identify.fetch_add(1, Ordering::Relaxed);
    (200, body)
}

fn handle_identify_batch(
    state: &ServerState,
    req: &Request,
    scratch: &mut WorkerScratch,
    trace: &mut RequestTrace,
) -> (u16, String) {
    let keys = &mut scratch.keys;
    if let Err(message) = body::scan(&req.body, Shape::Batch, keys) {
        return (400, error_body(&message));
    }
    state.scores_cached_batch(keys, &mut scratch.batch, &mut scratch.extract, trace);
    let mut body =
        String::with_capacity(BATCH_ENVELOPE + keys.text_len() + keys.len() * RESULT_OVERHEAD);
    write_batch_of(&mut body, keys.iter(), &scratch.batch.results);
    state.metrics.identify_batch.fetch_add(1, Ordering::Relaxed);
    state
        .metrics
        .batch_urls
        .fetch_add(keys.len() as u64, Ordering::Relaxed);
    (200, body)
}

fn handle_healthz(state: &ServerState) -> (u16, String) {
    state.metrics.healthz.fetch_add(1, Ordering::Relaxed);
    let status = state.model_snapshot();
    let mut o = Value::object();
    o.insert("status", Value::Str("ok".to_owned()));
    o.insert("uptime_secs", Value::Float(state.metrics.uptime_secs()));
    o.insert("io_backend", Value::Str(IO_BACKEND.to_owned()));
    o.insert("model", model_value(&status));
    (200, serde_json::to_string(&o).expect("response serialises"))
}

/// Does this `Accept` header ask for the Prometheus text exposition?
/// JSON stays the default: only an explicit `text/plain` (what
/// Prometheus sends) or an OpenMetrics media type switches formats.
fn wants_prometheus(accept: Option<&str>) -> bool {
    let Some(accept) = accept else {
        return false;
    };
    let accept = accept.to_ascii_lowercase();
    accept.contains("text/plain") || accept.contains("application/openmetrics-text")
}

fn handle_metrics(state: &ServerState, req: &Request) -> (u16, &'static str, String) {
    state.metrics.metrics.fetch_add(1, Ordering::Relaxed);
    if wants_prometheus(req.accept.as_deref()) {
        return (200, CONTENT_TYPE_PROM, prometheus_text(state));
    }
    let status = state.model_snapshot();
    let mut cache = Value::object();
    cache.insert("hits", Value::Uint(state.cache.hits()));
    cache.insert("misses", Value::Uint(state.cache.misses()));
    cache.insert("hit_rate", Value::Float(state.cache.hit_rate()));
    cache.insert("entries", Value::Uint(state.cache.len() as u64));
    cache.insert("capacity", Value::Uint(state.cache.capacity() as u64));
    let mut model = model_value(&status);
    model.insert(
        "reloads",
        Value::Uint(state.metrics.reloads.load(Ordering::Relaxed)),
    );
    let mut o = Value::object();
    o.insert("uptime_secs", Value::Float(state.metrics.uptime_secs()));
    o.insert("requests", state.metrics.requests_value());
    o.insert("connections", state.metrics.connections_value());
    o.insert("threads", state.metrics.threads_value());
    o.insert("reactors", state.metrics.reactors_value());
    o.insert("cache", cache);
    o.insert("latency", state.metrics.latency_value());
    o.insert("stages", state.metrics.stages_value());
    o.insert("model", model);
    (
        200,
        CONTENT_TYPE_JSON,
        serde_json::to_string(&o).expect("response serialises"),
    )
}

/// Render every serving metric as Prometheus text exposition 0.0.4.
/// The body is rebuilt per scrape from the same atomics the JSON view
/// reads; `urlid_telemetry::prometheus::lint` accepts it (enforced by
/// a test in `tests/server_http.rs`).
pub fn prometheus_text(state: &ServerState) -> String {
    let m = &state.metrics;
    let status = state.model_snapshot();
    let identifier = &status.identifier;
    let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
    let mut w = PromWriter::new();

    w.gauge(
        "urlid_uptime_seconds",
        "Seconds since the server started.",
        m.uptime_secs(),
    );
    w.family(
        "urlid_requests_total",
        "counter",
        "Requests served, by endpoint.",
    );
    for (endpoint, counter) in [
        ("identify", &m.identify),
        ("identify_batch", &m.identify_batch),
        ("healthz", &m.healthz),
        ("metrics", &m.metrics),
    ] {
        w.sample(
            "urlid_requests_total",
            &[("endpoint", endpoint)],
            load(counter) as f64,
        );
    }
    w.counter(
        "urlid_batch_urls_total",
        "URLs scored through /identify_batch.",
        load(&m.batch_urls),
    );
    w.counter(
        "urlid_errors_total",
        "Requests answered with a 4xx/5xx status (protocol rejects included).",
        load(&m.errors),
    );
    w.counter(
        "urlid_reloads_total",
        "Successful model hot-reloads.",
        load(&m.reloads),
    );
    w.counter(
        "urlid_connections_accepted_total",
        "Connections accepted since start, summed across reactors.",
        m.connections_accepted_total(),
    );
    w.counter(
        "urlid_connections_timed_out_total",
        "Connections evicted by the idle timeout, summed across reactors.",
        m.connections_timed_out_total(),
    );
    let open = m.connections_open_total();
    let busy = m.connections_busy_total();
    w.gauge(
        "urlid_connections_open",
        "Connections currently registered across all reactors.",
        open as f64,
    );
    w.gauge(
        "urlid_connections_idle",
        "Open connections with no request in the scoring pool.",
        open.saturating_sub(busy) as f64,
    );
    w.counter(
        "urlid_admission_rejects_total",
        "Requests answered 503 by per-reactor admission control.",
        m.admission_rejects_total(),
    );
    w.gauge(
        "urlid_reactors_failed",
        "Reactor threads that died on a panic (nonzero means draining toward a nonzero exit).",
        load(&m.reactors_failed) as f64,
    );
    let reactor_stats = m.reactor_stats();
    // Per-reactor families carry the I/O engine as an `io` label, kept
    // so existing scrapers and dashboards still match.
    let io = IO_BACKEND;
    w.family(
        "urlid_reactor_connections_open",
        "gauge",
        "Connections currently registered, by reactor.",
    );
    for (i, r) in reactor_stats.iter().enumerate() {
        let label = i.to_string();
        w.sample(
            "urlid_reactor_connections_open",
            &[("reactor", label.as_str()), ("io", io)],
            r.open.load(Ordering::Relaxed) as f64,
        );
    }
    w.family(
        "urlid_reactor_connections_accepted_total",
        "counter",
        "Connections accepted since start, by reactor.",
    );
    for (i, r) in reactor_stats.iter().enumerate() {
        let label = i.to_string();
        w.sample(
            "urlid_reactor_connections_accepted_total",
            &[("reactor", label.as_str()), ("io", io)],
            r.accepted.load(Ordering::Relaxed) as f64,
        );
    }
    w.family(
        "urlid_reactor_connections_timed_out_total",
        "counter",
        "Idle-timeout evictions, by reactor.",
    );
    for (i, r) in reactor_stats.iter().enumerate() {
        let label = i.to_string();
        w.sample(
            "urlid_reactor_connections_timed_out_total",
            &[("reactor", label.as_str()), ("io", io)],
            r.timed_out.load(Ordering::Relaxed) as f64,
        );
    }
    let scoring = load(&m.scoring_threads);
    w.family("urlid_threads", "gauge", "Server threads, by role.");
    w.sample(
        "urlid_threads",
        &[("role", "reactor")],
        m.reactor_count() as f64,
    );
    w.sample("urlid_threads", &[("role", "scoring")], scoring as f64);

    w.counter(
        "urlid_cache_hits_total",
        "Result-cache hits.",
        state.cache.hits(),
    );
    w.counter(
        "urlid_cache_misses_total",
        "Result-cache misses.",
        state.cache.misses(),
    );
    w.gauge(
        "urlid_cache_entries",
        "Result-cache entries currently stored.",
        state.cache.len() as f64,
    );
    w.gauge(
        "urlid_cache_capacity",
        "Result-cache capacity.",
        state.cache.capacity() as f64,
    );

    let config = identifier.config();
    w.family(
        "urlid_model_info",
        "gauge",
        "Model identity as labels; the value is always 1.",
    );
    let epoch_str = status.epoch.to_string();
    let path_str = status
        .path
        .as_ref()
        .map(|p| p.display().to_string())
        .unwrap_or_default();
    w.sample(
        "urlid_model_info",
        &[
            ("algorithm", config.algorithm.abbrev()),
            ("features", config.feature_set.short_label()),
            ("weights", WEIGHTS),
            (
                "format",
                status.format.map(|f| f.as_str()).unwrap_or("none"),
            ),
            ("epoch", epoch_str.as_str()),
            ("path", path_str.as_str()),
        ],
        1.0,
    );
    if let Some(load_ms) = status.load_ms {
        w.gauge(
            "urlid_model_load_seconds",
            "Wall-clock load time of the serving model (file to ready identifier).",
            load_ms / 1e3,
        );
    }

    w.family(
        "urlid_request_latency_seconds",
        "histogram",
        "End-to-end latency of /identify and /identify_batch (rejects included).",
    );
    w.histogram_series(
        "urlid_request_latency_seconds",
        &[],
        &m.latency.snapshot(),
        1e-6,
    );
    w.family(
        "urlid_stage_duration_seconds",
        "histogram",
        "Per-stage request pipeline durations.",
    );
    for stage in Stage::ALL {
        w.histogram_series(
            "urlid_stage_duration_seconds",
            &[("stage", stage.name())],
            &m.stage_snapshot(stage),
            1e-6,
        );
    }
    w.finish()
}

/// `GET /admin/trace`: the last buffered stage spans, oldest first,
/// with request-id correlation — enough to reconstruct where any
/// recent request spent its time.
fn handle_trace(state: &ServerState) -> (u16, String) {
    let spans = state.metrics.trace_snapshot();
    let items: Vec<Value> = spans
        .iter()
        .map(|s| {
            let mut o = Value::object();
            o.insert("request_id", Value::Uint(s.request_id));
            o.insert("stage", Value::Str(s.stage.name().to_owned()));
            o.insert("start_us", Value::Uint(s.start_micros));
            o.insert("duration_us", Value::Uint(s.duration_micros));
            o
        })
        .collect();
    let mut o = Value::object();
    o.insert("count", Value::Uint(items.len() as u64));
    o.insert("telemetry", Value::Bool(state.metrics.telemetry_enabled()));
    o.insert("spans", Value::Array(items));
    (200, serde_json::to_string(&o).expect("response serialises"))
}

fn handle_reload(state: &ServerState, req: &Request) -> (u16, String) {
    // Body grammar: `{}` / empty reloads the stored path with format
    // auto-detection; `{"path": "..."}` names a file; `{"format":
    // "auto|json|binary"}` overrides the magic sniffing. Empty bodies
    // stay accepted for backward compatibility.
    let (path, format) = if req.body.trim().is_empty() {
        (None, "auto".to_owned())
    } else {
        match parse_json(&req.body) {
            Ok(v) => {
                let path = match v.get("path") {
                    Some(Value::Str(p)) => Some(PathBuf::from(p)),
                    Some(_) => return (400, error_body("path must be a string")),
                    None => None,
                };
                let format = match v.get("format") {
                    Some(Value::Str(f)) => f.clone(),
                    Some(_) => {
                        return (
                            400,
                            error_body("format must be \"auto\", \"json\" or \"binary\""),
                        )
                    }
                    None => "auto".to_owned(),
                };
                (path, format)
            }
            Err(e) => return (400, error_body(&e)),
        }
    };
    match state.reload_from(path, &format) {
        Ok(report) => {
            let status = state.model_snapshot();
            let mut o = Value::object();
            o.insert("reloaded", Value::Bool(true));
            o.insert("format", Value::Str(report.format.as_str().to_owned()));
            o.insert("weights", Value::Str(WEIGHTS.to_owned()));
            o.insert("load_ms", Value::Float(report.load_ms));
            o.insert("model", model_value(&status));
            (200, serde_json::to_string(&o).expect("response serialises"))
        }
        Err(message) => (500, error_body(&message)),
    }
}

/// The reactor's share of the routing: a `POST /identify` whose body
/// is at most [`INLINE_BODY_MAX`] bytes is decoded, normalised and
/// probed on the calling reactor thread. `Some(Answered)` is a hit or a
/// `400` to write back right away; `Some(Miss)` and `None` go to the
/// pool, where [`route`] takes the miss's key. Everything else —
/// `/identify_batch`, health, metrics, admin, oversized bodies — is
/// `None`.
pub(crate) fn try_inline(
    state: &ServerState,
    req: &Request,
    keys: &mut Keys,
    trace: &mut RequestTrace,
) -> Option<Identify> {
    if req.method != "POST" || req.path != "/identify" || req.body.len() > INLINE_BODY_MAX {
        return None;
    }
    let probed = identify_probe(state, &req.body, keys, trace);
    if matches!(probed, Identify::Answered(status, _) if status >= 400) {
        state.metrics.errors.fetch_add(1, Ordering::Relaxed);
    }
    Some(probed)
}

/// Route one request to its handler (runs on a scoring-pool thread;
/// `trace` is the stage-span context for this request). `miss_key` is
/// the key of a `POST /identify` that [`try_inline`] already probed;
/// `scratch` holds the worker's reusable buffers. Returns status,
/// content type, and body.
pub(crate) fn route(
    state: &ServerState,
    req: &Request,
    miss_key: Option<&str>,
    scratch: &mut WorkerScratch,
    trace: &mut RequestTrace,
) -> (u16, &'static str, String) {
    let (status, content_type, body) = match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/identify") => {
            let (status, body) = handle_identify(state, req, miss_key, scratch, trace);
            (status, CONTENT_TYPE_JSON, body)
        }
        ("POST", "/identify_batch") => {
            let (status, body) = handle_identify_batch(state, req, scratch, trace);
            (status, CONTENT_TYPE_JSON, body)
        }
        ("GET", "/healthz") => {
            let (status, body) = handle_healthz(state);
            (status, CONTENT_TYPE_JSON, body)
        }
        ("GET", "/metrics") => handle_metrics(state, req),
        ("GET", "/admin/trace") => {
            let (status, body) = handle_trace(state);
            (status, CONTENT_TYPE_JSON, body)
        }
        ("POST", "/admin/reload") => {
            let (status, body) = handle_reload(state, req);
            (status, CONTENT_TYPE_JSON, body)
        }
        (
            _,
            "/identify" | "/identify_batch" | "/healthz" | "/metrics" | "/admin/trace"
            | "/admin/reload",
        ) => (405, CONTENT_TYPE_JSON, error_body("method not allowed")),
        _ => (404, CONTENT_TYPE_JSON, error_body("not found")),
    };
    if status >= 400 {
        state.metrics.errors.fetch_add(1, Ordering::Relaxed);
    }
    (status, content_type, body)
}

/// Whether a request counts into the end-to-end latency histogram: the
/// scoring endpoints do, `/healthz`-style bookkeeping does not.
pub(crate) fn records_latency(req: &Request) -> bool {
    matches!(req.path.as_str(), "/identify" | "/identify_batch")
}

// ---------------------------------------------------------------------
// Engine spawn / shutdown
// ---------------------------------------------------------------------

/// A running server: its address, its shared state, and the handles
/// needed to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    shutdown: Arc<AtomicBool>,
    wakers: Vec<Arc<Waker>>,
    reactors: Vec<JoinHandle<()>>,
    pool: ScoringPool,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real port; with
    /// `SO_REUSEPORT` every reactor's listener shares this address).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared serving state.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Serve until every reactor exits (the CLI path). Returns the
    /// number of reactors that died on a panic — `0` is a clean exit;
    /// anything else means the server drained early because a reactor
    /// failed, and the process should exit nonzero.
    pub fn join(mut self) -> usize {
        for reactor in self.reactors.drain(..) {
            let _ = reactor.join();
        }
        self.pool.join();
        self.state.metrics().reactors_failed.load(Ordering::Relaxed) as usize
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests
    /// (bounded by the configured drain timeout), stop the pool, and
    /// return. Every reactor is woken through its self-pipe — no
    /// throwaway connection involved.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for waker in &self.wakers {
            waker.wake();
        }
        // The reactors exiting drop the job senders; the workers drain
        // their queues and exit.
        let _ = self.join();
    }
}

/// Bind one listener per reactor. With more than one reactor the
/// listeners share the port through `SO_REUSEPORT` so the kernel
/// load-balances accepts; where that fails (old kernels), fall back to
/// accept-racing `try_clone`s of a single listener — the losers of each
/// race see `WouldBlock` and move on. Returns the listeners and whether
/// the reuseport path was taken.
fn bind_listeners(addr: &str, reactors: usize) -> io::Result<(Vec<TcpListener>, bool)> {
    if reactors <= 1 {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        return Ok((vec![listener], false));
    }
    let reuseport = (|| -> io::Result<Vec<TcpListener>> {
        use std::net::ToSocketAddrs;
        let resolved = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?;
        let first = crate::sys::bind_reuseport(resolved)?;
        // Port 0 resolves on the first bind; the siblings must join the
        // *resolved* port or each would get its own ephemeral one.
        let actual = first.local_addr()?;
        let mut listeners = vec![first];
        for _ in 1..reactors {
            listeners.push(crate::sys::bind_reuseport(actual)?);
        }
        Ok(listeners)
    })();
    match reuseport {
        Ok(listeners) => Ok((listeners, true)),
        Err(_) => {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            let mut listeners = Vec::with_capacity(reactors);
            for _ in 1..reactors {
                listeners.push(listener.try_clone()?);
            }
            listeners.push(listener);
            Ok((listeners, false))
        }
    }
}

/// Start the server: bind the per-reactor listeners, spawn the reactor
/// threads and the scoring pool, and return immediately with a
/// [`ServerHandle`].
///
/// A reactor that panics does not strand its siblings: the panic is
/// caught at the thread boundary, `reactors_failed` is bumped, and the
/// shared shutdown flag is raised so every surviving reactor drains
/// gracefully. [`ServerHandle::join`] reports the failure count.
pub fn spawn(config: &ServeConfig, state: Arc<ServerState>) -> io::Result<ServerHandle> {
    let reactors = if config.reactors == 0 {
        default_reactors()
    } else {
        config.reactors
    };
    let (listeners, reuseport) = bind_listeners(&config.addr, reactors)?;
    let addr = listeners[0].local_addr()?;
    let scoring_threads = if config.scoring_threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        config.scoring_threads
    };
    let metrics = state.metrics();
    metrics.set_telemetry_enabled(config.telemetry);
    metrics.reuseport.store(reuseport, Ordering::Relaxed);
    metrics
        .max_inflight
        .store(config.max_inflight as u64, Ordering::Relaxed);
    // 250ms minimum gap between slow-log lines: a pathological burst
    // costs at most four stderr lines per second.
    metrics.slow.configure(config.slow_request_micros, 250_000);
    metrics.reset_reactors();

    // Per-reactor plumbing: wake pipe, completion channel, pending
    // counter, stats handle. The ports vector hands the pool one
    // completion route per reactor.
    let mut plumbing = Vec::with_capacity(reactors);
    let mut wakers = Vec::with_capacity(reactors);
    let mut ports = Vec::with_capacity(reactors);
    for _ in 0..reactors {
        let (wake_pipe, waker) = WakePipe::new()?;
        let waker = Arc::new(waker);
        let (completion_tx, completion_rx) = mpsc::channel();
        let pending = Arc::new(std::sync::atomic::AtomicI64::new(0));
        ports.push(CompletionPort {
            completions: completion_tx,
            pending: Arc::clone(&pending),
            waker: Arc::clone(&waker),
        });
        plumbing.push((wake_pipe, completion_rx, pending));
        wakers.push(waker);
    }
    let (mut pool, job_tx) = ScoringPool::spawn(scoring_threads, &state, ports)?;
    metrics
        .scoring_threads
        .store(pool.threads() as u64, Ordering::Relaxed);

    let shutdown = Arc::new(AtomicBool::new(false));
    // Built before any reactor thread starts so a panicking reactor can
    // wake every sibling, including ones spawned after it.
    let all_wakers: Arc<Vec<Arc<Waker>>> = Arc::new(wakers.clone());

    let mut built = Vec::with_capacity(reactors);
    for (index, (listener, (wake_pipe, completion_rx, pending))) in
        listeners.into_iter().zip(plumbing).enumerate()
    {
        let stats = metrics.register_reactor();
        let reactor = Reactor::new(
            index,
            listener,
            wake_pipe,
            job_tx.clone(),
            completion_rx,
            pending,
            stats,
            Arc::clone(&state),
            Arc::clone(&shutdown),
            config,
        );
        match reactor {
            Ok(reactor) => built.push(reactor),
            Err(e) => {
                // No reactor thread is running yet: dropping the job
                // senders is enough to let the workers drain out.
                drop(built);
                drop(job_tx);
                pool.join();
                return Err(e);
            }
        }
    }

    let mut reactor_threads = Vec::with_capacity(reactors);
    for (index, reactor) in built.into_iter().enumerate() {
        let thread_state = Arc::clone(&state);
        let thread_shutdown = Arc::clone(&shutdown);
        let thread_wakers = Arc::clone(&all_wakers);
        let thread = std::thread::Builder::new()
            .name(format!("urlid-serve-reactor-{index}"))
            .spawn(move || {
                let result =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reactor.run()));
                if result.is_err() {
                    // This reactor is gone; mark it and drain the
                    // siblings instead of stranding their connections
                    // behind a half-dead server.
                    thread_state
                        .metrics()
                        .reactors_failed
                        .fetch_add(1, Ordering::Relaxed);
                    thread_shutdown.store(true, Ordering::Release);
                    for waker in thread_wakers.iter() {
                        waker.wake();
                    }
                }
            });
        match thread {
            Ok(handle) => reactor_threads.push(handle),
            Err(e) => {
                // This reactor never started: drain what did start.
                shutdown.store(true, Ordering::Relaxed);
                for waker in all_wakers.iter() {
                    waker.wake();
                }
                for handle in reactor_threads {
                    let _ = handle.join();
                }
                pool.join();
                return Err(e);
            }
        }
    }

    Ok(ServerHandle {
        addr,
        state,
        shutdown,
        wakers,
        reactors: reactor_threads,
        pool,
    })
}
