//! Closed-loop load from one process: one thread per connection, each
//! sending its next request only after the previous answer arrived.

use crate::alloc;
use crate::client::{self, Conn};
use crate::prep::Pool;
use crate::server;
use crate::stats::SplitMix;
use crate::trace::{self, Span, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// What each connection sends.
#[derive(Clone, Copy)]
pub struct Traffic<'a> {
    pub pool: &'a Pool,
    /// URLs per request: 1 sends `POST /identify`, more send
    /// `POST /identify_batch`.
    pub batch: usize,
    pub draw: Draw<'a>,
    pub seed: u64,
}

/// How requests pick their URLs.
#[derive(Clone, Copy)]
pub enum Draw<'a> {
    /// Uniformly at random from the pool (`serve_hot`).
    Random,
    /// In pool order, all connections sharing one cursor that persists
    /// across phases, from a seeded start: nothing repeats within a
    /// cache's reach (`serve_batch`).
    InOrder(&'a AtomicU64),
}

/// What one phase should keep besides timings.
#[derive(Clone, Copy, Default)]
pub struct Keep {
    /// Record spans around every send and wait.
    pub traced: bool,
    /// Keep the first `record` requests' bytes and answers, per thread,
    /// for the in-process replay of the layers.
    pub record: usize,
    /// Keep about one in `sample_every` answers for the correctness check.
    pub sample_every: u64,
    /// Leave the client threads' allocations out of the counting allocator.
    pub exclude_allocs: bool,
}

/// One answered request kept for checking or replay.
pub struct Exchange {
    pub urls: Vec<String>,
    pub request: Vec<u8>,
    pub body: String,
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(completion time since the phase started, round trip)`, in ns.
    pub completions: Vec<(u64, u64)>,
    pub samples: Vec<Exchange>,
    pub recorded: Vec<Exchange>,
    pub spans: Vec<Span>,
    /// CPU time of the client threads, in µs.
    pub client_cpu_us: f64,
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.completions.extend(other.completions);
        self.samples.extend(other.samples);
        self.recorded.extend(other.recorded);
        self.spans.extend(other.spans);
        self.client_cpu_us += other.client_cpu_us;
        self.errors.extend(other.errors);
    }

    pub fn round_trips_ns(&self) -> Vec<f64> {
        self.completions.iter().map(|&(_, rt)| rt as f64).collect()
    }
}

/// Drive every connection for `duration`, one thread each.
pub fn run(conns: &mut [Conn], traffic: Traffic, keep: Keep, duration: Duration) -> Outcome {
    let epoch = Instant::now();
    let deadline = epoch + duration;
    let mut total = Outcome::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(t, conn)| {
                scope.spawn(move || {
                    if keep.exclude_allocs {
                        alloc::exclude_this_thread(true);
                    }
                    drive(conn, traffic, keep, t, epoch, deadline)
                })
            })
            .collect();
        for handle in handles {
            total.merge(handle.join().expect("client thread panicked"));
        }
    });
    total
}

fn drive(
    conn: &mut Conn,
    traffic: Traffic,
    keep: Keep,
    thread: usize,
    epoch: Instant,
    deadline: Instant,
) -> Outcome {
    let mut out = Outcome::default();
    let mut rng =
        SplitMix::new(traffic.seed ^ (thread as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    let pool_len = traffic.pool.len() as u64;
    let mut tracer = Tracer::default();
    let (path, field) = if traffic.batch == 1 {
        ("/identify", "url")
    } else {
        ("/identify_batch", "urls")
    };
    let mut indices = Vec::with_capacity(traffic.batch);
    let mut body = String::new();
    let mut request = Vec::new();
    let cpu_before = server::cpu_us("/proc/thread-self/stat").unwrap_or(0.0);
    while Instant::now() < deadline {
        indices.clear();
        match traffic.draw {
            Draw::Random => {
                indices.extend((0..traffic.batch).map(|_| rng.below(pool_len) as usize));
            }
            Draw::InOrder(cursor) => {
                let first = cursor.fetch_add(traffic.batch as u64, Ordering::Relaxed);
                indices
                    .extend((0..traffic.batch as u64).map(|k| ((first + k) % pool_len) as usize));
            }
        }
        body.clear();
        body.push_str("{\"");
        body.push_str(field);
        body.push_str("\":");
        if traffic.batch > 1 {
            body.push('[');
        }
        for (k, &i) in indices.iter().enumerate() {
            if k > 0 {
                body.push(',');
            }
            client::push_json_string(&mut body, traffic.pool.get(i));
        }
        if traffic.batch > 1 {
            body.push(']');
        }
        body.push('}');
        client::post_request(&mut request, path, &body);

        out.attempted += 1;
        let started = epoch.elapsed().as_nanos() as u64;
        let result = if keep.traced {
            let id = tracer.next_id();
            let span_start = trace::now_ns();
            let sent = conn.send(&request);
            let sent_at = trace::now_ns();
            let result = sent.and_then(|()| conn.receive());
            let done = trace::now_ns();
            for (name, start_ns, end_ns) in [
                ("client.send", span_start, sent_at),
                ("client.wait", sent_at, done),
            ] {
                let child = tracer.next_id();
                tracer.record(Span {
                    id: child,
                    parent: id,
                    name,
                    start_ns,
                    end_ns,
                    items: 1,
                });
            }
            tracer.record(Span {
                id,
                parent: 0,
                name: "client.request",
                start_ns: span_start,
                end_ns: done,
                items: traffic.batch as u64,
            });
            result
        } else {
            conn.exchange(&request)
        };
        let done = epoch.elapsed().as_nanos() as u64;
        match result {
            Ok(200) => {
                out.completions.push((done, done - started));
                let sampled = keep.sample_every > 0 && rng.below(keep.sample_every) == 0;
                let recorded = out.recorded.len() < keep.record;
                if sampled || recorded {
                    let exchange = Exchange {
                        urls: indices
                            .iter()
                            .map(|&i| traffic.pool.get(i).to_owned())
                            .collect(),
                        request: request.clone(),
                        body: String::from_utf8_lossy(conn.body()).into_owned(),
                    };
                    if recorded {
                        out.recorded.push(exchange);
                    } else {
                        out.samples.push(exchange);
                    }
                }
            }
            Ok(status) => {
                out.failed += 1;
                out.errors.push(format!("{path} answered {status}"));
            }
            Err(e) => {
                // The connection is unusable after a transport error.
                out.failed += 1;
                out.errors.push(format!("{path}: {e}"));
                break;
            }
        }
    }
    out.client_cpu_us = server::cpu_us("/proc/thread-self/stat").unwrap_or(0.0) - cpu_before;
    out.spans = tracer.spans;
    out
}

/// Median over equal time slices of the URLs answered per second. A
/// slice's rate is taken between its first and last completion, so it
/// is not rounded to whole operations per slice.
pub fn urls_per_s(outcome: &Outcome, urls_per_op: usize, duration: Duration, slices: usize) -> f64 {
    let slice_ns = duration.as_nanos() as u64 / slices as u64;
    let mut done: Vec<u64> = outcome.completions.iter().map(|&(d, _)| d).collect();
    done.sort_unstable();
    let mut rates = Vec::new();
    for s in 0..slices as u64 {
        let lo = done.partition_point(|&d| d < s * slice_ns);
        let hi = done.partition_point(|&d| d < (s + 1) * slice_ns);
        if hi - lo >= 2 && done[hi - 1] > done[lo] {
            let ops = (hi - lo - 1) as f64;
            rates.push(ops * urls_per_op as f64 / ((done[hi - 1] - done[lo]) as f64 / 1e9));
        }
    }
    if rates.is_empty() {
        return f64::NAN;
    }
    crate::stats::median(&rates)
}
