//! Per-layer costs, measured from outside: the requests and answers a
//! run recorded are replayed in-process through each layer's public
//! function, one batch loop per pass, with a span around every pass.

use crate::alloc;
use crate::load::Exchange;
use crate::trace::{self, Tracer};
use serde::Value;
use std::hint::black_box;
use std::time::{Duration, Instant};
use urlid::features::{CompiledTransform, ExtractScratch};
use urlid::LanguageIdentifier;
use urlid_serve::cache::{CachedScores, ResultCache};
use urlid_serve::http::{response_bytes, ParserLimits, RequestParser};
use urlid_serve::normalize_url;

/// The server's default result-cache capacity (`--cache-capacity`).
pub const CACHE_CAPACITY: usize = 65_536;

/// Median cost per item of each layer, over the replayed inputs.
#[derive(Debug, Default, Clone)]
pub struct LayerCosts {
    pub parse_ns_per_req: f64,
    pub decode_ns_per_req: f64,
    pub normalize_ns_per_url: f64,
    pub get_ns_per_url: f64,
    pub insert_ns_per_url: f64,
    pub tokenize_ns_per_url: f64,
    /// `extract_into` minus tokenizing (self time).
    pub extract_ns_per_url: f64,
    /// `score_all_with` minus `extract_into` (self time).
    pub score_ns_per_url: f64,
    /// All of `score_all_with`: tokenize + extract + score.
    pub score_all_ns_per_url: f64,
    pub split_overhead_ratio: f64,
    pub allocs_per_url: f64,
    pub encode_ns_per_resp: f64,
    pub frame_ns_per_resp: f64,
    pub urls_per_req: f64,
}

/// Replays `recorded` through every layer. `filler` fills the cache to
/// capacity with other URLs before lookups and inserts are timed;
/// `resident` URLs are cached on top of it, as the run's warm-up left
/// them (the `serve_hot` pool).
pub fn replay(
    identifier: &LanguageIdentifier,
    recorded: &[Exchange],
    filler: &[String],
    resident: &[String],
    tracer: &mut Tracer,
    budget: Duration,
) -> Result<LayerCosts, String> {
    if recorded.is_empty() {
        return Err("no recorded requests to replay".to_owned());
    }
    let root = tracer.next_id();
    let root_start = trace::now_ns();
    let mut t = Timer {
        tracer,
        parent: root,
        budget,
    };
    let mut c = LayerCosts::default();
    let requests = recorded.len() as f64;

    let wire: Vec<&[u8]> = recorded.iter().map(|e| e.request.as_slice()).collect();
    let parse = |wire: &[&[u8]]| -> Vec<String> {
        wire.iter()
            .map(|bytes| {
                let mut parser = RequestParser::new(ParserLimits::default());
                parser.feed(bytes);
                match parser.next_request() {
                    Ok(Some(request)) => request.body,
                    other => panic!("recorded request does not parse: {other:?}"),
                }
            })
            .collect()
    };
    c.parse_ns_per_req = t.per_item("http.RequestParser", requests, || {
        black_box(parse(&wire));
    });
    let bodies = parse(&wire);

    let decode = || -> Vec<Value> {
        bodies
            .iter()
            .map(|b| serde_json::from_str::<Value>(b).expect("recorded body is JSON"))
            .collect()
    };
    c.decode_ns_per_req = t.per_item("serde_json.from_str", requests, || {
        black_box(decode());
    });
    let mut urls = Vec::new();
    for value in decode() {
        match (value.get("url"), value.get("urls")) {
            (Some(Value::Str(url)), _) => urls.push(url.clone()),
            (_, Some(Value::Array(items))) => {
                for item in items {
                    if let Value::Str(url) = item {
                        urls.push(url.clone());
                    }
                }
            }
            _ => return Err("recorded body names no URL".to_owned()),
        }
    }
    let n = urls.len() as f64;
    c.urls_per_req = n / requests;

    c.normalize_ns_per_url = t.per_item("cache.normalize_url", n, || {
        for url in &urls {
            black_box(normalize_url(url));
        }
    });
    let keys: Vec<String> = urls.iter().map(|u| normalize_url(u)).collect();

    let set = identifier.classifier_set();
    let Some(transform) = set.plane().and_then(|p| p.transform()) else {
        return Err("the model has no compiled feature transform".to_owned());
    };
    let tokenizer = match transform {
        CompiledTransform::Words { tokenizer, .. } => tokenizer,
        CompiledTransform::Trigrams { tokenizer, .. } => tokenizer,
    };
    // The four nested entry points run in interleaved rounds, and each
    // self time is the median of its per-round difference, so that a
    // drift in machine speed between two loops cannot show up as a
    // layer's cost.
    let mut buf = String::new();
    let mut scratch = ExtractScratch::new();
    let names = [
        "tokenize.for_each_token",
        "features.extract_into",
        "classifiers.score_all_with",
        "classifiers.score_all_with_split",
    ];
    let rounds = t.rounds(&names, n, |layer| match layer {
        0 => {
            for key in &keys {
                tokenizer.for_each_token(key, &mut buf, |tok| {
                    black_box(tok);
                });
            }
        }
        1 => {
            for key in &keys {
                transform.extract_into(key, &mut scratch);
                black_box(&scratch.vector);
            }
        }
        2 => {
            for key in &keys {
                black_box(set.score_all_with(key, &mut scratch));
            }
        }
        _ => {
            for key in &keys {
                black_box(set.score_all_with_split(key, &mut scratch));
            }
        }
    });
    let per_round = |f: &dyn Fn(&[f64]) -> f64| -> f64 {
        crate::stats::median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    c.tokenize_ns_per_url = per_round(&|r| r[0]);
    c.extract_ns_per_url = per_round(&|r| r[1] - r[0]);
    c.score_ns_per_url = per_round(&|r| r[2] - r[1]);
    c.score_all_ns_per_url = per_round(&|r| r[2]);
    c.split_overhead_ratio = per_round(&|r| r[3] / r[2]);

    // Steady-state allocations: scratch buffers are warm from above.
    let before = alloc::allocations();
    for key in &keys {
        black_box(set.score_all_with(key, &mut scratch));
    }
    c.allocs_per_url = (alloc::allocations() - before) as f64 / n;

    let scores: Vec<CachedScores> = keys
        .iter()
        .map(|k| set.score_all_with(k, &mut scratch))
        .collect();
    let filled = |extra: &[String]| {
        let cache = ResultCache::new(CACHE_CAPACITY, ResultCache::DEFAULT_SHARDS);
        for key in filler.iter().chain(extra) {
            cache.insert(key, 0, [None; 5]);
        }
        cache
    };
    let lookups = filled(resident);
    c.get_ns_per_url = t.per_item("cache.get_in", n, || {
        for key in &keys {
            black_box(lookups.get_in(0, key, 0));
        }
    });
    // Inserts into a full cache, each evicting, as on the miss path.
    let mut unique: Vec<(&String, CachedScores)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (key, s) in keys.iter().zip(&scores) {
        if seen.insert(key) {
            unique.push((key, *s));
        }
    }
    c.insert_ns_per_url = t.per_item_fresh(
        "cache.insert_in",
        unique.len() as f64,
        || filled(&[]),
        |cache: &ResultCache| {
            for (key, s) in &unique {
                cache.insert_in(0, key, 0, *s);
            }
        },
    );

    let answers: Vec<Value> = recorded
        .iter()
        .map(|e| serde_json::from_str(&e.body).map_err(|e| format!("bad recorded answer: {e}")))
        .collect::<Result<_, _>>()?;
    c.encode_ns_per_resp = t.per_item("serde_json.to_string", requests, || {
        for answer in &answers {
            black_box(serde_json::to_string(answer).expect("serialises"));
        }
    });
    c.frame_ns_per_resp = t.per_item("http.response_bytes", requests, || {
        for e in recorded {
            black_box(response_bytes(200, &e.body, true));
        }
    });

    let end_ns = trace::now_ns();
    t.tracer.record(trace::Span {
        id: root,
        parent: 0,
        name: "replay",
        start_ns: root_start,
        end_ns,
        items: recorded.len() as u64,
    });
    Ok(c)
}

struct Timer<'a> {
    tracer: &'a mut Tracer,
    parent: u64,
    budget: Duration,
}

impl Timer<'_> {
    /// Run `pass(0..names.len())` in rounds, one pass of each layer per
    /// round, until the budget for all of them is spent (at least 5
    /// rounds, after one untimed warm-up round). Returns the ns per item
    /// of every pass, round by round.
    fn rounds(
        &mut self,
        names: &[&'static str],
        items: f64,
        mut pass: impl FnMut(usize),
    ) -> Vec<Vec<f64>> {
        (0..names.len()).for_each(&mut pass);
        let budget = self.budget * names.len() as u32;
        let started = Instant::now();
        let mut rounds = Vec::new();
        while rounds.len() < 5 || (started.elapsed() < budget && rounds.len() < 1000) {
            let round = names
                .iter()
                .enumerate()
                .map(|(layer, &name)| {
                    let ((), span) = self
                        .tracer
                        .span(name, self.parent, items as u64, || pass(layer));
                    span.duration_ns() as f64 / items.max(1.0)
                })
                .collect();
            rounds.push(round);
        }
        rounds
    }

    /// Median ns per item of `pass`, repeated until the budget is spent
    /// (at least 5 passes, after one untimed warm-up pass).
    fn per_item(&mut self, name: &'static str, items: f64, mut pass: impl FnMut()) -> f64 {
        self.per_item_fresh(name, items, || (), |_: &()| pass())
    }

    /// [`Timer::per_item`] with untimed per-pass state from `setup`.
    fn per_item_fresh<S>(
        &mut self,
        name: &'static str,
        items: f64,
        mut setup: impl FnMut() -> S,
        mut pass: impl FnMut(&S),
    ) -> f64 {
        pass(&setup());
        let started = Instant::now();
        let mut per_item = Vec::new();
        while per_item.len() < 5 || (started.elapsed() < self.budget && per_item.len() < 1000) {
            let state = setup();
            let ((), span) = self
                .tracer
                .span(name, self.parent, items as u64, || pass(&state));
            // `state` is dropped here, outside the span.
            per_item.push(span.duration_ns() as f64 / items.max(1.0));
        }
        crate::stats::median(&per_item)
    }
}
