//! The scoring pool: a small fixed set of CPU-bound worker threads.
//!
//! The reactors hand over fully parsed requests ([`Job`]) that they did
//! not answer themselves (`server::try_inline` decides which): cache
//! *misses*, which arrive with their normalised key so the worker only
//! scores, inserts and writes the result, and every other route
//! (`/identify_batch`, health, metrics, admin, oversized `/identify`
//! bodies). A worker passes the job to `server::route` (scoring, cache,
//! metrics, reload — all in `server.rs`), serialises the response, and
//! pushes a [`Completion`] back to the **originating reactor's**
//! completion port for it to write. (Keeping the socket writes on the
//! reactor preserves write batching: the reactor drains a whole burst
//! of completions in one scheduling quantum, where per-worker direct
//! writes measured *slower* on few-core boxes — each write immediately
//! woke its client and shredded the batch.)
//!
//! One job channel feeds every worker, and any worker serves any
//! reactor. The pool is work-conserving: a traffic imbalance between
//! reactors (the kernel balances *connections*, not *requests*) never
//! strands CPU behind an idle reactor. The shared channel's mutex is
//! the one cross-reactor lock in the system, and it sits on the *pool*
//! side of the dispatch boundary, after the reactor has already handed
//! the request off.
//!
//! A reactor is woken through its self-pipe, but the wake syscall is
//! **elided for all but the first completion of a burst**: workers
//! send-then-increment the reactor's pending counter and only wake when
//! it was zero, pairing with the reactor's swap(0)-then-drain — every
//! completion the swap observed is already visible to the drain, and an
//! increment landing after the swap sees zero and issues its own wake,
//! so nothing strands. The pool is sized to the CPU count — its threads
//! only ever run compute, never block on sockets, so there is no reason
//! to over-provision past the cores.

use crate::http::{self, Request};
use crate::server::{records_latency, route, RequestTrace, ServerState, WorkerScratch};
use crate::sys::Waker;
use std::io;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use urlid_telemetry::Stage;

/// A parsed request bound for the scoring pool, tagged with the
/// connection token the response must come back to.
pub(crate) struct Job {
    /// Reactor connection token (slot index + generation).
    pub token: u64,
    /// Index of the reactor that dispatched the job — selects the
    /// completion port the response goes back through, the result-cache
    /// shard set, and the `X-Urlid-Reactor` header value.
    pub reactor: usize,
    /// The reactor's result-cache shard set (`reactor % cache.sets()`,
    /// precomputed on the reactor).
    pub cache_set: usize,
    /// The parsed request.
    pub request: Request,
    /// The normalised key of a `POST /identify` whose cache probe on
    /// the reactor missed (`server::try_inline`); [`route`] scores it
    /// without a second decode or probe. `None` for everything else.
    pub miss_key: Option<String>,
    /// Request id assigned at parse completion (span correlation).
    pub request_id: u64,
    /// When the reactor took the request up (the end-to-end latency
    /// clock, which includes the reactor's decode and probe).
    pub started: Instant,
    /// When the reactor sent the job (the queue-wait span start).
    pub dispatched_at: Instant,
}

/// A finished response on its way back to a reactor.
pub(crate) struct Completion {
    /// The token of the connection the request came from. May be stale
    /// by the time the reactor sees it (the connection died while the
    /// request was scored) — the reactor checks the generation.
    pub token: u64,
    /// Serialised response bytes, ready for the wire.
    pub response: Vec<u8>,
    /// Whether the connection should stay open afterwards.
    pub keep_alive: bool,
    /// Request id (the write-stage span needs it on the reactor side).
    pub request_id: u64,
    /// [`Job::started`], echoed back so the reactor can record the
    /// end-to-end latency without any side table.
    pub started: Instant,
    /// Whether this request counts into the latency histogram (the
    /// scoring endpoints do; `/healthz`-style bookkeeping does not —
    /// same scope the histogram had before the stage-tracing refactor).
    pub record_latency: bool,
}

/// One reactor's side of the completion hand-back: the channel the
/// response travels on plus the wake-elision pair for that reactor's
/// self-pipe.
pub(crate) struct CompletionPort {
    /// Completion channel into the reactor.
    pub completions: Sender<Completion>,
    /// The reactor's pending-completion counter (wake elision).
    pub pending: Arc<AtomicI64>,
    /// The reactor's self-pipe write end.
    pub waker: Arc<Waker>,
}

/// Handles to the running workers (join on shutdown).
pub(crate) struct ScoringPool {
    workers: Vec<JoinHandle<()>>,
}

impl ScoringPool {
    /// Spawn `threads` workers (at least one) serving the reactors
    /// behind `ports`. Returns the pool and the job sender every
    /// reactor clones; workers exit once every clone is dropped (the
    /// reactors exiting).
    pub(crate) fn spawn(
        threads: usize,
        state: &Arc<ServerState>,
        ports: Vec<CompletionPort>,
    ) -> io::Result<(ScoringPool, Sender<Job>)> {
        let ports = Arc::new(ports);
        let (job_tx, job_rx) = std::sync::mpsc::channel::<Job>();
        let job_rx: Arc<Mutex<Receiver<Job>>> = Arc::new(Mutex::new(job_rx));
        let workers = (0..threads.max(1))
            .map(|i| spawn_worker(i, &job_rx, state, &ports))
            .collect::<io::Result<Vec<_>>>()?;
        Ok((ScoringPool { workers }, job_tx))
    }

    /// How many worker threads are running.
    pub(crate) fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Wait for every worker to finish (call after the reactors exited,
    /// which drops the job senders and lets the workers drain out).
    pub(crate) fn join(&mut self) {
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// One worker thread: pull jobs, route, serialise, hand the completion
/// back to the dispatching reactor's port.
fn spawn_worker(
    index: usize,
    job_rx: &Arc<Mutex<Receiver<Job>>>,
    state: &Arc<ServerState>,
    ports: &Arc<Vec<CompletionPort>>,
) -> io::Result<JoinHandle<()>> {
    let job_rx = Arc::clone(job_rx);
    let state = Arc::clone(state);
    let ports = Arc::clone(ports);
    std::thread::Builder::new()
        .name(format!("urlid-serve-score-{index}"))
        .spawn(move || {
            // Each worker owns its scratch buffers for its whole
            // lifetime: after warm-up, decoding, scoring and caching a
            // batch of misses allocates nothing.
            let mut scratch = WorkerScratch::default();
            loop {
                // A poisoned lock or closed channel both mean the
                // server is coming down — exit quietly, no panic
                // cascade.
                let received = match job_rx.lock() {
                    Ok(rx) => rx.recv(),
                    Err(_) => return,
                };
                let Ok(job) = received else { return };
                let metrics = state.metrics();
                let picked_up = Instant::now();
                let queue_micros = urlid_telemetry::duration_micros(
                    picked_up.saturating_duration_since(job.dispatched_at),
                );
                let mut trace = RequestTrace::new(job.request_id, 1 + (index % 7));
                trace.cache_set = job.cache_set;
                metrics.record_stage_end(
                    trace.stripe,
                    trace.request_id,
                    Stage::Queue,
                    queue_micros,
                );
                let (status, content_type, body) = route(
                    &state,
                    &job.request,
                    job.miss_key.as_deref(),
                    &mut scratch,
                    &mut trace,
                );
                let total_micros =
                    queue_micros + urlid_telemetry::duration_micros(picked_up.elapsed());
                if metrics.slow.should_log(total_micros, metrics.now_micros()) {
                    // Off the steady-state path by construction
                    // (threshold + rate limit); key=value so the
                    // line greps and splits mechanically.
                    eprintln!(
                        "slow_request request_id={} method={} path={} status={} \
                         queue_us={} cache_us={} extract_us={} score_us={} total_us={}",
                        trace.request_id,
                        job.request.method,
                        job.request.path,
                        status,
                        queue_micros,
                        trace.cache_us,
                        trace.extract_us,
                        trace.score_us,
                        total_micros,
                    );
                }
                let keep_alive = job.request.keep_alive;
                let completion = Completion {
                    token: job.token,
                    response: http::response_bytes_from_reactor(
                        status,
                        content_type,
                        &body,
                        keep_alive,
                        job.reactor as u64,
                    ),
                    keep_alive,
                    request_id: job.request_id,
                    started: job.started,
                    record_latency: records_latency(&job.request),
                };
                let Some(port) = ports.get(job.reactor) else {
                    continue; // a mis-tagged job has nowhere to go
                };
                if port.completions.send(completion).is_err() {
                    // That reactor is gone; its sibling ports may still
                    // be alive, so keep serving.
                    continue;
                }
                // Send-then-increment pairs with the reactor's
                // swap(0)-then-drain (see module docs): only the first
                // completion of a burst pays the wake syscall.
                if port.pending.fetch_add(1, Ordering::AcqRel) == 0 {
                    port.waker.wake();
                }
            }
        })
}
