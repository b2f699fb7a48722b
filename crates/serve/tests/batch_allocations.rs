//! Allocation counts of the `/identify_batch` miss path, under a
//! counting global allocator. Warm, a batch costs the same constant
//! number of allocations whatever its size (the request's own strings
//! and the response buffers, never one per URL), and inserting into a
//! full result cache evicts without allocating.
//!
//! One test function only: every thread of this binary is counted
//! except the one that opts out (the client), so a second test running
//! alongside would pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use urlid::prelude::*;
use urlid_serve::http;
use urlid_serve::server::{spawn, ServeConfig, ServerState};
use urlid_serve::ResultCache;

/// Wraps the system allocator; `alloc`, `alloc_zeroed` and `realloc`
/// on any thread that has not opted out bump one counter.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` and `Drop`-free, so reading it never allocates.
    static EXCLUDED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if !EXCLUDED.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// relaxed statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator; the
        // caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Server-side allocations while `run` executes on this (excluded)
/// thread, counted from a settled server to a settled server.
fn counted(run: impl FnOnce()) -> u64 {
    let settle = || std::thread::sleep(Duration::from_millis(50));
    settle();
    let before = allocations();
    run();
    settle();
    allocations() - before
}

/// Requests per measured phase: a multiple of 31, the block size of
/// std's channels, so each phase crosses the same number of channel
/// block boundaries (one block allocation each) whatever its offset.
const REQUESTS: usize = 62;

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_url: usize,
}

impl Client {
    /// One `/identify_batch` of `size` URLs never sent before, so every
    /// lookup misses.
    fn miss_batch(&mut self, size: usize) {
        let urls: Vec<String> = (0..size)
            .map(|i| {
                let n = self.next_url + i;
                format!("\"http://www.wetter-{n}.de/berlin/nachrichten?seite={i}\"")
            })
            .collect();
        self.next_url += size;
        let body = format!("{{\"urls\": [{}]}}", urls.join(", "));
        http::write_request(&mut self.writer, "POST", "/identify_batch", Some(&body))
            .expect("write request");
        let (status, response) = http::read_response(&mut self.reader).expect("read response");
        assert_eq!(status, 200, "{response}");
        assert!(response.contains("\"cache_hits\":0"), "all misses");
    }
}

#[test]
fn warm_miss_batches_allocate_a_constant_and_full_caches_evict_without_allocating() {
    EXCLUDED.with(|e| e.set(true));
    let mut generator = UrlGenerator::new(5);
    let odp = odp_dataset(&mut generator, CorpusScale::tiny());
    let identifier = LanguageIdentifier::train_paper_best(&odp.train);
    // Small enough that the warm-up fills it: the measured batches
    // evict on every insert.
    let capacity = 512;
    let state = Arc::new(ServerState::new(identifier, None, capacity));
    // One reactor and one scoring worker, whatever the host's core
    // count: the warm-up then warms the only buffers the measured
    // batches can reach.
    let config = ServeConfig {
        reactors: 1,
        scoring_threads: 1,
        ..ServeConfig::default()
    };
    let server = spawn(&config, Arc::clone(&state)).expect("bind");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut client = Client {
        writer: stream.try_clone().expect("clone stream"),
        reader: BufReader::new(stream),
        next_url: 0,
    };

    // Warm-up: the large size first, so the buffers reach their
    // measured size.
    for size in [64, 8] {
        for _ in 0..REQUESTS {
            client.miss_batch(size);
        }
    }
    // Full: every set the connection's reactor probes has filled up.
    assert!(state.cache().len() >= capacity / state.cache().sets());

    let small = counted(|| (0..REQUESTS).for_each(|_| client.miss_batch(8)));
    let large = counted(|| (0..REQUESTS).for_each(|_| client.miss_batch(64)));
    assert_eq!(
        small, large,
        "8-URL and 64-URL miss batches must cost the same allocations"
    );
    let per_request = small as f64 / REQUESTS as f64;
    assert!(
        per_request <= 8.0,
        "{per_request} allocations per warm miss batch"
    );
    server.shutdown();

    // The cache alone, on this thread: inserts into a full cache evict
    // in place.
    EXCLUDED.with(|e| e.set(false));
    let cache = ResultCache::new(64, 4);
    let keys: Vec<String> = (0..1024)
        .map(|i| format!("http://www.seite-{i}.de/pfad"))
        .collect();
    let scores = [Some(1.0), Some(-1.0), None, Some(0.5), Some(-0.5)];
    for key in &keys[..512] {
        cache.insert(key, 0, scores);
    }
    let before = allocations();
    for key in &keys[512..] {
        cache.insert(key, 0, scores);
        assert_eq!(cache.get(key, 0), Some(scores));
    }
    assert_eq!(allocations() - before, 0, "evicting inserts allocated");
    assert_eq!(cache.len(), 64);
}
