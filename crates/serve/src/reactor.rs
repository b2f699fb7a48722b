//! The reactor: one thread multiplexing its share of the connections.
//!
//! Each of the server's `N` reactors is a single event loop owning its
//! own listening socket (an `SO_REUSEPORT` sibling — see
//! `server::bind_listeners`), its own wake pipe, and its own slab of
//! [`Conn`] state machines, all registered in one epoll [`Poller`] (see
//! [`crate::sys`]). The loop blocks in `wait` until something is ready,
//! drives exactly the connections the kernel names, answers
//! `POST /identify` cache hits on the spot, hands every other fully
//! parsed request to the scoring pool, and writes finished responses
//! back.
//! An idle keep-alive connection therefore costs one slab slot and one
//! kernel registration — not a thread: thousands of mostly-idle
//! crawl-frontier clients are served by `reactors + cores` threads
//! total. A connection adopted by one reactor lives and dies on that
//! reactor — no slab slot, poller registration, or gauge is ever
//! touched from a sibling's thread.
//!
//! ## The hit path
//!
//! Every parsed request first goes through `server::try_inline`, which
//! decodes, normalises and probes a `POST /identify` against this
//! reactor's cache set right here. A hit, or a body that deserves a
//! `400`, is answered through [`Conn::complete`] without touching the
//! pool — no handoff, no queue wait, no wake-up. A miss goes to the
//! pool carrying its key, so the worker neither decodes nor probes
//! again. Bodies over `server::INLINE_BODY_MAX` (8 KiB, far above any
//! `{"url": ...}`) are not decoded here: they go to the pool whole,
//! like every other route, so one large body never stalls this
//! reactor's other connections.
//!
//! ## Latency
//!
//! The end-to-end latency sample of an `/identify` or `/identify_batch`
//! request is recorded once its response is ready and *before*
//! [`Conn::complete`] writes it, whether this thread or the pool
//! produced the answer. A client that has read its response and then
//! scrapes `/metrics` therefore always finds its request counted. The
//! socket write is timed separately, as the `write` stage.
//!
//! ## Admission control
//!
//! Each reactor caps how many of its requests may sit in the scoring
//! pool at once (`ServeConfig::max_inflight`). A dispatch over the cap
//! is answered `503` right here on the reactor thread — the request
//! never crosses into the pool, so overload sheds work at the cheapest
//! possible point instead of queueing it into ever-worse latency.
//! Inline answers are exempt: a cache hit never enters the pool, so it
//! neither counts against the cap nor is shed by it — `/identify` hits
//! keep getting `200`s while misses get `503`s. A shed miss has paid
//! for its (at most 8 KiB) decode and probe; an oversized body is shed
//! before any decode.
//!
//! ## Tokens and generations
//!
//! Every registration carries a `u64` token: slab index in the low 32
//! bits, a per-slot generation in the high 32. A completion that comes
//! back from the pool after its connection died (flood kill, write
//! error) carries a stale generation and is dropped instead of being
//! written to whatever connection reuses the slot.
//!
//! ## Shutdown
//!
//! The server handle flips the shutdown flag and writes the wake pipe
//! (no more throwaway `TcpStream::connect` to unblock an accept loop).
//! The reactor then stops accepting, closes idle connections at request
//! boundaries, lets in-flight requests finish and flush, and force
//! closes whatever remains at the drain deadline.

use crate::body::Keys;
use crate::conn::{Conn, Step};
use crate::http::{self, ParserLimits, Request};
use crate::metrics::{ReactorStats, TRACE_STRIPES};
use crate::pool::{Completion, Job};
use crate::server::{
    try_inline, Identify, RequestTrace, ServeConfig, ServerState, CONTENT_TYPE_JSON,
};
use crate::sys::{Event, Interest, Poller, WakePipe};
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Token of the listening socket.
const LISTENER: u64 = u64::MAX;
/// Token of the wake pipe's read end.
const WAKE: u64 = u64::MAX - 1;

/// One slab slot: the connection (when occupied), its registration
/// generation, and the interest set currently registered in the poller
/// (so interest changes only touch the kernel when they really change).
struct Slot {
    gen: u32,
    conn: Option<Conn>,
    interest: Interest,
}

/// The event loop (see module docs). Constructed by `server::spawn`,
/// consumed by [`Reactor::run`] on the reactor thread.
pub(crate) struct Reactor {
    /// This reactor's index in the server's reactor set (the
    /// `X-Urlid-Reactor` value, the completion-port index, and the
    /// trace-stripe selector).
    index: usize,
    poller: Poller,
    listener: TcpListener,
    wake: WakePipe,
    slots: Vec<Slot>,
    free: Vec<u32>,
    open: usize,
    jobs: Sender<Job>,
    completions: Receiver<Completion>,
    /// Completion backlog estimate shared with the workers (they elide
    /// the wake syscall when it says the reactor will look anyway).
    pending: Arc<AtomicI64>,
    /// This reactor's private gauge/histogram plane (exposition sums
    /// across reactors; nothing here is written by a sibling).
    stats: Arc<ReactorStats>,
    state: Arc<ServerState>,
    shutdown: Arc<AtomicBool>,
    limits: ParserLimits,
    idle_timeout: Duration,
    drain_timeout: Duration,
    /// Requests currently dispatched to the scoring pool from this
    /// reactor (plain field — only this thread touches it).
    inflight: usize,
    /// Admission-control cap on `inflight` (`usize::MAX` = unlimited).
    max_inflight: usize,
    /// The result-cache shard set this reactor's requests probe
    /// (`index % cache.sets()`, precomputed).
    cache_set: usize,
    /// The decoded key of the `/identify` body being probed, reused
    /// request after request.
    keys: Keys,
    /// Test hook: panic once `accepted` exceeds this (see
    /// `ServeConfig::fail_after_accepts`).
    fail_after_accepts: Option<u64>,
    draining: bool,
    drain_deadline: Instant,
    next_evict: Instant,
    /// Set when a persistent accept failure (EMFILE) parked the
    /// listener; the tick re-registers it after this instant.
    accept_paused_until: Option<Instant>,
}

impl Reactor {
    /// Wire up a reactor over an already-bound, non-blocking listener.
    /// (One argument per collaborating half — channels, wake pipe,
    /// stats, shared state — bundling them into a struct would just
    /// move the same names one level down.)
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        index: usize,
        listener: TcpListener,
        wake: WakePipe,
        jobs: Sender<Job>,
        completions: Receiver<Completion>,
        pending: Arc<AtomicI64>,
        stats: Arc<ReactorStats>,
        state: Arc<ServerState>,
        shutdown: Arc<AtomicBool>,
        config: &ServeConfig,
    ) -> std::io::Result<Reactor> {
        let mut poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), LISTENER, Interest::READ)?;
        poller.add(wake.fd(), WAKE, Interest::READ)?;
        let now = Instant::now();
        let cache_set = index % state.cache().sets();
        Ok(Reactor {
            index,
            poller,
            listener,
            wake,
            slots: Vec::new(),
            free: Vec::new(),
            open: 0,
            jobs,
            completions,
            pending,
            stats,
            state,
            shutdown,
            limits: ParserLimits {
                max_header_bytes: crate::http::MAX_HEADER_BYTES,
                max_body_bytes: config.max_body_bytes,
            },
            idle_timeout: config.idle_timeout,
            drain_timeout: config.drain_timeout,
            inflight: 0,
            max_inflight: if config.max_inflight == 0 {
                usize::MAX
            } else {
                config.max_inflight
            },
            cache_set,
            keys: Keys::default(),
            fail_after_accepts: config.fail_after_accepts,
            draining: false,
            drain_deadline: now,
            next_evict: now,
            accept_paused_until: None,
        })
    }

    /// How often to scan for idle connections: often enough that an
    /// eviction is at most ~25% late, bounded to stay cheap.
    fn evict_period(&self) -> Duration {
        (self.idle_timeout / 4).clamp(Duration::from_millis(5), Duration::from_millis(250))
    }

    /// The event loop. Returns when shutdown has drained every
    /// connection (or hit the drain deadline).
    pub(crate) fn run(mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(1024);
        loop {
            events.clear();
            let timeout = self.evict_period();
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                // A broken poller cannot multiplex anything; treat it
                // like an immediate shutdown.
                self.shutdown.store(true, Ordering::Relaxed);
            }
            let now = Instant::now();
            let mut accept_ready = false;
            for event in events.iter().copied() {
                match event.token {
                    LISTENER => accept_ready = true,
                    WAKE => self.wake.drain(),
                    token => self.drive(token, event.readable, event.writable, now),
                }
            }
            self.drain_completions(now);
            if accept_ready {
                self.accept_ready(now);
            }
            if !self.draining && self.shutdown.load(Ordering::Relaxed) {
                self.start_drain(now);
            }
            self.maybe_resume_accepting(now);
            if now >= self.next_evict {
                self.evict_idle(now);
                self.next_evict = now + self.evict_period();
            }
            if self.draining && (self.open == 0 || now >= self.drain_deadline) {
                self.close_all();
                return;
            }
        }
    }

    fn token_of(&self, idx: usize) -> u64 {
        ((self.slots[idx].gen as u64) << 32) | idx as u64
    }

    /// Resolve a token to its slot index, rejecting stale generations.
    fn resolve(&self, token: u64) -> Option<usize> {
        let idx = (token & u32::MAX as u64) as usize;
        let gen = (token >> 32) as u32;
        match self.slots.get(idx) {
            Some(slot) if slot.gen == gen && slot.conn.is_some() => Some(idx),
            _ => None,
        }
    }

    /// Drive one connection for one readiness event.
    fn drive(&mut self, token: u64, readable: bool, writable: bool, now: Instant) {
        let Some(idx) = self.resolve(token) else {
            return; // closed earlier this same loop iteration
        };
        if readable {
            let step = self.slots[idx]
                .conn
                .as_mut()
                .expect("resolved")
                .on_readable(now);
            self.apply(idx, step, now);
        }
        if writable {
            let Some(slot) = self.slots.get_mut(idx) else {
                return;
            };
            let Some(conn) = slot.conn.as_mut() else {
                return;
            };
            let step = conn.on_writable(now);
            self.apply(idx, step, now);
        }
    }

    /// Apply a state-machine step: answer an `/identify` inline, register
    /// a dispatch (or shed it on the admission cap), sync interest, or
    /// tear the connection down. A loop because an inline answer may
    /// surface the *next* pipelined request as a fresh dispatch.
    fn apply(&mut self, idx: usize, step: Step, now: Instant) {
        let mut step = step;
        loop {
            match step {
                Step::Continue => return self.sync_interest(idx),
                Step::Dispatch(request, request_id) => {
                    let started = Instant::now();
                    // The hit path (see module docs).
                    let mut trace = RequestTrace::new(request_id, self.index % TRACE_STRIPES);
                    trace.cache_set = self.cache_set;
                    let miss_key =
                        match try_inline(&self.state, &request, &mut self.keys, &mut trace) {
                            Some(Identify::Answered(status, body)) => {
                                step = self.answer_inline(
                                    idx, status, &body, &request, request_id, started,
                                );
                                continue;
                            }
                            Some(Identify::Miss(key)) => Some(key),
                            None => None,
                        };
                    if self.inflight >= self.max_inflight {
                        // Over the cap: answer 503 on this thread and
                        // drop the parsed request without ever queueing
                        // it — the whole point of admission control.
                        step = self.slots[idx]
                            .conn
                            .as_mut()
                            .expect("resolved")
                            .reject_overload(request.keep_alive, now);
                        continue;
                    }
                    self.stats.busy.fetch_add(1, Ordering::Relaxed);
                    self.inflight += 1;
                    let job = Job {
                        token: self.token_of(idx),
                        reactor: self.index,
                        cache_set: self.cache_set,
                        request,
                        miss_key,
                        request_id,
                        started,
                        dispatched_at: Instant::now(),
                    };
                    if self.jobs.send(job).is_err() {
                        // Scoring pool gone — only possible mid-teardown.
                        self.stats.busy.fetch_sub(1, Ordering::Relaxed);
                        self.inflight -= 1;
                        return self.close_conn(idx);
                    }
                    return self.sync_interest(idx);
                }
                Step::Close => return self.close_conn(idx),
            }
        }
    }

    /// Write a response answered on this thread into the connection, the
    /// way [`Reactor::drain_completions`] delivers a pool completion, and
    /// return the connection's next step. The latency is recorded before
    /// the write, as there (see [`Reactor::drain_completions`]).
    fn answer_inline(
        &mut self,
        idx: usize,
        status: u16,
        body: &str,
        request: &Request,
        request_id: u64,
        started: Instant,
    ) -> Step {
        let response = http::response_bytes_from_reactor(
            status,
            CONTENT_TYPE_JSON,
            body,
            request.keep_alive,
            self.index as u64,
        );
        self.state
            .metrics()
            .record_latency(urlid_telemetry::duration_micros(started.elapsed()));
        self.slots[idx].conn.as_mut().expect("resolved").complete(
            response,
            request.keep_alive && !self.draining,
            request_id,
            started,
        )
    }

    /// Push every finished response into its connection (stale tokens —
    /// the connection died while its request was scored — only settle
    /// the busy gauge).
    fn drain_completions(&mut self, now: Instant) {
        // Zero the wake-elision counter *before* draining. Workers send
        // first and increment second, so every completion this swap
        // observed is already visible to the try_recv loop below; an
        // increment that lands after the swap sees zero and issues its
        // own wake — no completion can get stranded until the tick.
        self.pending.swap(0, Ordering::AcqRel);
        while let Ok(completion) = self.completions.try_recv() {
            self.stats.busy.fetch_sub(1, Ordering::Relaxed);
            self.inflight = self.inflight.saturating_sub(1);
            let Some(idx) = self.resolve(completion.token) else {
                continue;
            };
            // End-to-end: reactor pick-up → response ready to write.
            // Recorded *before* `complete` runs the write pass, so a
            // client that has read its response can never scrape
            // `/metrics` ahead of its own request's sample; the socket
            // write itself is timed by the `write` stage. `saturating`
            // because the completion may land within the same loop
            // iteration as its dispatch.
            if completion.record_latency {
                self.state
                    .metrics()
                    .record_latency(urlid_telemetry::duration_micros(
                        Instant::now().saturating_duration_since(completion.started),
                    ));
            }
            let keep_alive = completion.keep_alive && !self.draining;
            let step = self.slots[idx].conn.as_mut().expect("resolved").complete(
                completion.response,
                keep_alive,
                completion.request_id,
                now,
            );
            self.apply(idx, step, now);
        }
    }

    /// Accept every connection the backlog holds.
    fn accept_ready(&mut self, now: Instant) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.draining {
                        continue; // dropped: shutting down
                    }
                    self.adopt(stream, now);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Persistent accept failure (EMFILE/ENFILE being the
                // realistic one): a level-triggered listener with an
                // unconsumed backlog would make every `wait` return
                // instantly, pegging the reactor. Deregister the
                // listener and let the tick re-arm it once the pause
                // elapses (fd pressure eases when connections close).
                Err(_) => {
                    let _ = self.poller.remove(self.listener.as_raw_fd());
                    self.accept_paused_until = Some(now + Duration::from_millis(100));
                    return;
                }
            }
        }
    }

    /// Re-register a listener parked by an accept failure once its
    /// pause has elapsed (never during a drain — the drain already
    /// removed the listener for good).
    fn maybe_resume_accepting(&mut self, now: Instant) {
        let Some(resume_at) = self.accept_paused_until else {
            return;
        };
        if self.draining {
            self.accept_paused_until = None;
            return;
        }
        if now >= resume_at
            && self
                .poller
                .add(self.listener.as_raw_fd(), LISTENER, Interest::READ)
                .is_ok()
        {
            self.accept_paused_until = None;
        }
    }

    /// Register a freshly accepted stream as a connection.
    fn adopt(&mut self, stream: std::net::TcpStream, now: Instant) {
        let conn = Conn::new(
            stream,
            self.limits,
            Arc::clone(&self.state),
            Arc::clone(&self.stats),
            self.index,
            now,
        );
        let Ok(conn) = conn else {
            return;
        };
        let idx = match self.free.pop() {
            Some(idx) => idx as usize,
            None => {
                self.slots.push(Slot {
                    gen: 0,
                    conn: None,
                    interest: Interest::READ,
                });
                self.slots.len() - 1
            }
        };
        let interest = conn.interest();
        let fd = conn.stream().as_raw_fd();
        self.slots[idx].conn = Some(conn);
        self.slots[idx].interest = interest;
        let token = self.token_of(idx);
        if self.poller.add(fd, token, interest).is_err() {
            self.slots[idx].conn = None;
            self.free.push(idx as u32);
            return;
        }
        self.open += 1;
        let accepted = self.stats.accepted.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats.open.fetch_add(1, Ordering::Relaxed);
        if let Some(limit) = self.fail_after_accepts {
            if accepted > limit {
                // Test hook: die *after* the accept so the sibling
                // reactors must absorb the fallout (see
                // `ServeConfig::fail_after_accepts`).
                panic!("injected reactor failure after {accepted} accepts");
            }
        }
    }

    /// Update the poller when a connection's interest set changed.
    fn sync_interest(&mut self, idx: usize) {
        let token = self.token_of(idx);
        let slot = &mut self.slots[idx];
        let Some(conn) = slot.conn.as_ref() else {
            return;
        };
        let desired = conn.interest();
        if desired != slot.interest {
            let fd = conn.stream().as_raw_fd();
            if self.poller.modify(fd, token, desired).is_ok() {
                self.slots[idx].interest = desired;
            }
        }
    }

    /// Deregister and drop a connection; the slot's generation bump
    /// invalidates any in-flight completion for it.
    fn close_conn(&mut self, idx: usize) {
        let slot = &mut self.slots[idx];
        let Some(conn) = slot.conn.take() else {
            return;
        };
        let _ = self.poller.remove(conn.stream().as_raw_fd());
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx as u32);
        self.open -= 1;
        self.stats.open.fetch_sub(1, Ordering::Relaxed);
        drop(conn);
    }

    /// Evict connections idle past the timeout. In-flight connections
    /// are exempt (their clock is on the scoring pool, not the peer);
    /// everything else — silent keep-alives, slowloris drips, stalled
    /// response readers — is fair game.
    fn evict_idle(&mut self, now: Instant) {
        for idx in 0..self.slots.len() {
            let Some(conn) = self.slots[idx].conn.as_ref() else {
                continue;
            };
            if conn.in_flight() {
                continue;
            }
            if now.duration_since(conn.last_activity()) > self.idle_timeout {
                self.stats.timed_out.fetch_add(1, Ordering::Relaxed);
                self.close_conn(idx);
            }
        }
    }

    /// Begin the graceful drain: stop accepting, close idle
    /// connections, let in-flight work finish within the deadline.
    fn start_drain(&mut self, now: Instant) {
        self.draining = true;
        self.drain_deadline = now + self.drain_timeout;
        let _ = self.poller.remove(self.listener.as_raw_fd());
        for idx in 0..self.slots.len() {
            let Some(conn) = self.slots[idx].conn.as_mut() else {
                continue;
            };
            if conn.begin_drain() {
                self.close_conn(idx);
            }
        }
    }

    /// Force-close whatever is left (drain deadline or clean exit).
    fn close_all(&mut self) {
        for idx in 0..self.slots.len() {
            if self.slots[idx].conn.is_some() {
                self.close_conn(idx);
            }
        }
    }
}
