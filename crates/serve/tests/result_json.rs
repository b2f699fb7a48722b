//! The direct result writer is byte-identical to the value-tree
//! serialiser it replaced: `write_result` and `write_batch` against a
//! reference that builds the same `serde::Value` tree and passes it
//! through `serde_json::to_string`, over generated, edge-case and
//! escape-heavy keys and over missing, signed-zero, subnormal,
//! huge-exponent and non-finite scores.

use proptest::prelude::*;
use serde::Value;
use urlid::classifiers::LanguageClassifierSet;
use urlid::lexicon::ALL_LANGUAGES;
use urlid_serve::cache::CachedScores;
use urlid_serve::server::{write_batch, write_result};

/// The reference: one result as a `Value` tree, in the documented key
/// order `url, best, accepted, scores{…}, cached`.
fn reference_value(key: &str, scores: &CachedScores, cached: bool) -> Value {
    let mut score_map = Value::object();
    let mut accepted = Vec::new();
    for lang in ALL_LANGUAGES {
        let score = scores[lang.index()];
        score_map.insert(
            lang.iso_code(),
            match score {
                Some(s) => Value::Float(s),
                None => Value::Null,
            },
        );
        if score.is_some_and(|s| s > 0.0) {
            accepted.push(Value::Str(lang.iso_code().to_owned()));
        }
    }
    let mut o = Value::object();
    o.insert("url", Value::Str(key.to_owned()));
    o.insert(
        "best",
        match LanguageClassifierSet::best_of(scores) {
            Some(lang) => Value::Str(lang.iso_code().to_owned()),
            None => Value::Null,
        },
    );
    o.insert("accepted", Value::Array(accepted));
    o.insert("scores", score_map);
    o.insert("cached", Value::Bool(cached));
    o
}

fn reference_result(key: &str, scores: &CachedScores, cached: bool) -> String {
    serde_json::to_string(&reference_value(key, scores, cached)).unwrap()
}

fn reference_batch(keys: &[String], results: &[(CachedScores, bool)]) -> String {
    let items: Vec<Value> = keys
        .iter()
        .zip(results)
        .map(|(key, (scores, cached))| reference_value(key, scores, *cached))
        .collect();
    let hits = results.iter().filter(|(_, cached)| *cached).count();
    let mut o = Value::object();
    o.insert("count", Value::Uint(items.len() as u64));
    o.insert("cache_hits", Value::Uint(hits as u64));
    o.insert("results", Value::Array(items));
    serde_json::to_string(&o).unwrap()
}

fn written_result(key: &str, scores: &CachedScores, cached: bool) -> String {
    // A non-empty buffer: the writer appends, it never clears.
    let mut out = String::from("prefix");
    write_result(&mut out, key, scores, cached);
    out.split_off("prefix".len())
}

/// Scores the JSON writer has to get exactly right.
const EDGE_SCORES: [Option<f64>; 16] = [
    None,
    Some(0.0),
    Some(-0.0),
    Some(f64::MIN_POSITIVE),
    Some(5e-324),
    Some(-2.2250738585072e-308),
    Some(1e300),
    Some(-1.7976931348623157e308),
    Some(f64::MAX),
    Some(1e16),
    Some(1e-7),
    Some(0.1),
    Some(-1.5),
    Some(f64::INFINITY),
    Some(f64::NEG_INFINITY),
    Some(f64::NAN),
];

/// One score: an edge case, an ordinary value, or arbitrary bits
/// (NaN payloads and subnormals included).
fn score_strategy() -> impl Strategy<Value = Option<f64>> {
    (
        0u8..3,
        0usize..EDGE_SCORES.len(),
        -40.0f64..40.0,
        0u64..u64::MAX,
    )
        .prop_map(|(kind, edge, plain, bits)| match kind {
            0 => EDGE_SCORES[edge],
            1 => Some(plain),
            _ => Some(f64::from_bits(bits)),
        })
}

fn scores_strategy() -> impl Strategy<Value = CachedScores> {
    proptest::collection::vec(score_strategy(), 5..6).prop_map(|v| {
        let mut scores = [None; 5];
        scores.copy_from_slice(&v);
        scores
    })
}

/// Characters that stress the escaper: quotes, backslashes, control
/// characters, DEL, a line separator and multi-byte text.
const ESCAPE_HEAVY: [char; 14] = [
    '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', '\u{2028}', 'é',
    '中', '🎉',
];

/// A key: generated URL-like text, escape-heavy text, or arbitrary
/// code points.
fn key_strategy() -> impl Strategy<Value = String> {
    (
        0u8..3,
        "(http://)?www\\.[a-z0-9-]{1,12}\\.[a-z]{2,3}(/[a-z0-9._~%-]{0,10}){0,3}",
        proptest::collection::vec((0u8..3, 0usize..ESCAPE_HEAVY.len(), 0u32..0x11_0000), 0..24),
    )
        .prop_map(|(kind, url, picks)| match kind {
            0 => url,
            _ => picks
                .into_iter()
                .map(|(source, special, code)| match (kind, source) {
                    (1, 0 | 1) => ESCAPE_HEAVY[special],
                    (1, _) => char::from(b'a' + (code % 26) as u8),
                    _ => char::from_u32(code).unwrap_or('\u{fffd}'),
                })
                .collect(),
        })
}

#[test]
fn edge_case_keys_and_scores_write_identical_bytes() {
    let mut keys: Vec<String> = vec![
        String::new(),
        "\"".into(),
        "\\".into(),
        "\\\"".into(),
        "http://www.wetterbericht.de/berlin".into(),
        "a\u{0}b\u{1}c\u{1f}d\u{7f}".into(),
        "\r\n\t\u{8}\u{c}".into(),
        "ü-€-中-🎉-\u{2028}-\u{fffd}".into(),
    ];
    keys.push((0u8..0x80).map(char::from).collect());
    for (i, key) in keys.iter().enumerate() {
        for cached in [false, true] {
            // Slide a window over the edge scores so every one of them
            // lands in every language slot.
            for start in 0..EDGE_SCORES.len() {
                let mut scores = [None; 5];
                for (slot, score) in scores.iter_mut().enumerate() {
                    *score = EDGE_SCORES[(start + slot * (i + 1)) % EDGE_SCORES.len()];
                }
                assert_eq!(
                    written_result(key, &scores, cached),
                    reference_result(key, &scores, cached),
                    "key {key:?} scores {scores:?}"
                );
            }
        }
    }
}

#[test]
fn an_empty_batch_writes_the_same_envelope() {
    let mut out = String::new();
    write_batch(&mut out, &[], &[]);
    assert_eq!(out, reference_batch(&[], &[]));
    assert_eq!(out, "{\"count\":0,\"cache_hits\":0,\"results\":[]}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn write_result_matches_the_value_tree(
        key in key_strategy(),
        scores in scores_strategy(),
        cached in 0u8..2,
    ) {
        let cached = cached == 1;
        prop_assert_eq!(
            written_result(&key, &scores, cached),
            reference_result(&key, &scores, cached)
        );
    }

    #[test]
    fn write_batch_matches_the_value_tree(
        items in proptest::collection::vec((key_strategy(), scores_strategy(), 0u8..2), 0..12),
    ) {
        let keys: Vec<String> = items.iter().map(|(key, _, _)| key.clone()).collect();
        let results: Vec<(CachedScores, bool)> =
            items.iter().map(|(_, scores, cached)| (*scores, *cached == 1)).collect();
        let mut out = String::new();
        write_batch(&mut out, &keys, &results);
        prop_assert_eq!(out, reference_batch(&keys, &results));
    }
}
