//! The request-body scanner of the two scoring endpoints.
//!
//! `POST /identify` takes `{"url": "..."}` and `POST /identify_batch`
//! takes `{"urls": ["...", ...]}`. [`scan`] reads either body in one
//! pass, without building a JSON value tree, and leaves the normalised
//! cache keys in a reusable [`Keys`] buffer:
//!
//! * a URL without escapes is normalised straight from its slice of the
//!   body; an escaped one is decoded into the buffer's scratch string
//!   first;
//! * every key is appended to one text buffer, with its end offset
//!   recorded, so a warm buffer takes a whole batch without allocating;
//! * every other field, and every value after the first occurrence of
//!   the wanted one, is validated and skipped by an iterative loop whose
//!   depth is bounded by `serde_json::RECURSION_LIMIT`;
//! * strings and numbers are read by `serde_json::lex`, the lexer of the
//!   parser itself, so escapes, surrogate pairs and number syntax, and
//!   their messages, have one implementation; the structural messages
//!   (a missing `,` or bracket, trailing characters, the nesting limit)
//!   come from the same module.
//!
//! The scanner accepts exactly the bodies that decoding with
//! `serde_json` and reading the first `url`/`urls` field accepts, and it
//! rejects the others with the same message: a syntax error reads
//! `invalid JSON body: ` plus the message `serde_json` gives at the same
//! offset, and it wins over any shape error (a non-string URL, an empty
//! key), as it does when the whole body is decoded first. A
//! differential property test in this module holds the two to that.

use crate::cache::normalize_into;
use serde_json::{lex, RECURSION_LIMIT};

/// Which body shape a request must have.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Shape {
    /// `POST /identify`: `{"url": "..."}`.
    One,
    /// `POST /identify_batch`: `{"urls": ["...", ...]}`.
    Batch,
}

impl Shape {
    /// The field that carries the URL(s).
    fn field(self) -> &'static str {
        match self {
            Shape::One => "url",
            Shape::Batch => "urls",
        }
    }

    /// The message of a body that is JSON but not this shape.
    fn wrong_shape(self) -> &'static str {
        match self {
            Shape::One => "body must be {\"url\": \"...\"}",
            Shape::Batch => "body must be {\"urls\": [\"...\", ...]}",
        }
    }

    /// The message of a URL that normalises to an empty key.
    fn empty_url(self) -> &'static str {
        match self {
            Shape::One => "empty url",
            Shape::Batch => "empty url in batch",
        }
    }
}

/// The normalised keys of one request body: the key texts back to back,
/// the end offset of each, and the scratch string escaped strings are
/// decoded into. Kept by each reactor and scoring worker and reused
/// request after request, so a warm one allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct Keys {
    text: String,
    ends: Vec<usize>,
    unescaped: String,
}

/// Keys' worth of capacity the per-thread batch buffers keep between
/// requests: a batch this size reuses them, and one large batch does not
/// pin its memory to the thread for good. Batches with this many misses
/// are fanned out over the cores and allocate anyway.
pub(crate) const RETAINED_KEYS: usize = urlid_classifiers::PARALLEL_THRESHOLD;

/// Bytes of key text a [`Keys`] keeps between requests: [`RETAINED_KEYS`]
/// URLs of 64 bytes, about a typical crawl URL.
const RETAINED_BYTES: usize = RETAINED_KEYS * 64;

impl Keys {
    /// Number of keys.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Key `i`.
    pub(crate) fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    /// Every key, in body order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Total bytes of all keys.
    pub(crate) fn text_len(&self) -> usize {
        self.text.len()
    }

    /// Empty the buffers, giving back memory past [`RETAINED_BYTES`].
    fn clear(&mut self) {
        self.text.clear();
        self.ends.clear();
        self.unescaped.clear();
        self.text.shrink_to(RETAINED_BYTES);
        self.ends.shrink_to(RETAINED_KEYS);
        self.unescaped.shrink_to(RETAINED_BYTES);
    }
}

/// Scan a body of the given shape into `keys` (cleared first). On
/// success `keys` holds one key for `Shape::One`, and one per array
/// entry for `Shape::Batch`; on failure the `400` message.
pub(crate) fn scan(body: &str, shape: Shape, keys: &mut Keys) -> Result<(), String> {
    keys.clear();
    let mut cursor = Cursor {
        text: body,
        pos: 0,
        depth: 0,
    };
    let mut shape_error = None;
    cursor
        .body(shape, keys, &mut shape_error)
        .map_err(|e| format!("invalid JSON body: {e}"))?;
    match shape_error {
        Some(message) => Err(message.to_owned()),
        None => Ok(()),
    }
}

/// The read position in a body, and the arrays and objects open there.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Cursor<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(lex::expected(b, self.pos).to_string())
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    /// Open an array or object at `pos`, or fail at the nesting limit.
    fn enter(&mut self) -> Result<(), String> {
        if self.depth == RECURSION_LIMIT {
            return Err(lex::recursion_limit(self.pos).to_string());
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    /// The whole body: the top-level value, its wanted field, and
    /// nothing but whitespace after it. A shape error is recorded in
    /// `shape_error` and scanning goes on, so that a later syntax error
    /// still takes precedence.
    fn body(
        &mut self,
        shape: Shape,
        keys: &mut Keys,
        shape_error: &mut Option<&'static str>,
    ) -> Result<(), String> {
        self.skip_ws();
        let mut found = false;
        if self.peek() == Some(b'{') {
            self.enter()?;
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
            } else {
                loop {
                    self.skip_ws();
                    let key = self.string(&mut keys.unescaped)?;
                    let wanted = !found && key == shape.field();
                    self.skip_ws();
                    self.expect(b':')?;
                    if wanted {
                        found = true;
                        self.field(shape, keys, shape_error)?;
                    } else {
                        self.skip_value(&mut keys.unescaped)?;
                    }
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            break;
                        }
                        _ => return Err(lex::expected_separator(b'}', self.pos).to_string()),
                    }
                }
            }
            self.depth -= 1;
        } else {
            self.skip_value(&mut keys.unescaped)?;
        }
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(lex::trailing_characters(self.pos).to_string());
        }
        if !found {
            *shape_error = Some(shape.wrong_shape());
        }
        Ok(())
    }

    /// The value of the wanted field: one URL string, or an array of
    /// them.
    fn field(
        &mut self,
        shape: Shape,
        keys: &mut Keys,
        shape_error: &mut Option<&'static str>,
    ) -> Result<(), String> {
        self.skip_ws();
        match (shape, self.peek()) {
            (Shape::One, Some(b'"')) => self.url(shape, keys, shape_error),
            (Shape::Batch, Some(b'[')) => {
                self.enter()?;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    if self.peek() == Some(b'"') {
                        self.url(shape, keys, shape_error)?;
                    } else {
                        self.skip_value(&mut keys.unescaped)?;
                        shape_error.get_or_insert("urls must all be strings");
                    }
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            self.depth -= 1;
                            return Ok(());
                        }
                        _ => return Err(lex::expected_separator(b']', self.pos).to_string()),
                    }
                }
            }
            _ => {
                self.skip_value(&mut keys.unescaped)?;
                *shape_error = Some(shape.wrong_shape());
                Ok(())
            }
        }
    }

    /// One URL string: decoded, normalised and appended to `keys` (no
    /// more keys are kept once the body is known to be rejected).
    fn url(
        &mut self,
        shape: Shape,
        keys: &mut Keys,
        shape_error: &mut Option<&'static str>,
    ) -> Result<(), String> {
        let url = self.string(&mut keys.unescaped)?;
        if shape_error.is_some() {
            return Ok(());
        }
        let start = keys.text.len();
        normalize_into(url, &mut keys.text);
        if keys.text.len() == start {
            *shape_error = Some(shape.empty_url());
        }
        keys.ends.push(keys.text.len());
        Ok(())
    }

    /// A string literal at `pos`: its slice of the body when it holds no
    /// escape, else its contents decoded into `scratch`.
    fn string<'s>(&mut self, scratch: &'s mut String) -> Result<&'s str, String>
    where
        'a: 's,
    {
        lex::string(self.text, &mut self.pos, scratch).map_err(|e| e.to_string())
    }

    /// Skip one value of any kind, without recursion: the open
    /// containers are a bit stack (1 = object), at most
    /// `RECURSION_LIMIT` deep.
    fn skip_value(&mut self, scratch: &mut String) -> Result<(), String> {
        let base = self.depth;
        let mut objects: u128 = 0;
        loop {
            // One value starts here.
            self.skip_ws();
            match self.peek() {
                Some(b'n') if self.eat_keyword("null") => {}
                Some(b't') if self.eat_keyword("true") => {}
                Some(b'f') if self.eat_keyword("false") => {}
                Some(b'"') => {
                    self.string(scratch)?;
                }
                Some(open @ (b'[' | b'{')) => {
                    self.enter()?;
                    let bit = 1u128 << (self.depth - base - 1);
                    self.skip_ws();
                    if open == b'{' {
                        objects |= bit;
                        if self.peek() != Some(b'}') {
                            self.member_key(scratch)?;
                            continue;
                        }
                    } else {
                        objects &= !bit;
                        if self.peek() != Some(b']') {
                            continue;
                        }
                    }
                    // An empty container: closed right away.
                    self.pos += 1;
                    self.depth -= 1;
                }
                Some(c) if c == b'-' || c.is_ascii_digit() => {
                    lex::number(self.text, &mut self.pos).map_err(|e| e.to_string())?;
                }
                other => return Err(lex::unexpected(other, self.pos).to_string()),
            }
            // A value ended: close every container it completes, and
            // stop at the next member or at the outermost end.
            loop {
                if self.depth == base {
                    return Ok(());
                }
                let object = (objects >> (self.depth - base - 1)) & 1 == 1;
                self.skip_ws();
                match (self.peek(), object) {
                    (Some(b','), _) => {
                        self.pos += 1;
                        if object {
                            self.member_key(scratch)?;
                        }
                        break;
                    }
                    (Some(b']'), false) | (Some(b'}'), true) => {
                        self.pos += 1;
                        self.depth -= 1;
                    }
                    (_, false) => return Err(lex::expected_separator(b']', self.pos).to_string()),
                    (_, true) => return Err(lex::expected_separator(b'}', self.pos).to_string()),
                }
            }
        }
    }

    /// An object member's key and colon; its value comes next.
    fn member_key(&mut self, scratch: &mut String) -> Result<(), String> {
        self.skip_ws();
        self.string(scratch)?;
        self.skip_ws();
        self.expect(b':')
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::normalize_url;
    use crate::http::{ParserLimits, RequestParser};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use serde::Value;

    /// The decoder the scanner replaced, kept as its reference: decode
    /// the whole body with `serde_json`, then read the first `url` or
    /// `urls` field and normalise.
    fn reference(body: &str, shape: Shape) -> Result<Vec<String>, String> {
        let parsed =
            serde_json::from_str::<Value>(body).map_err(|e| format!("invalid JSON body: {e}"))?;
        let mut keys = Vec::new();
        let mut push = |url: &str| {
            let key = normalize_url(url);
            if key.is_empty() {
                return Err(shape.empty_url().to_owned());
            }
            keys.push(key);
            Ok(())
        };
        match (shape, parsed.get(shape.field())) {
            (Shape::One, Some(Value::Str(url))) => push(url)?,
            (Shape::Batch, Some(Value::Array(items))) => {
                for item in items {
                    match item {
                        Value::Str(url) => push(url)?,
                        _ => return Err("urls must all be strings".to_owned()),
                    }
                }
            }
            _ => return Err(shape.wrong_shape().to_owned()),
        }
        Ok(keys)
    }

    fn scanned(body: &str, shape: Shape, keys: &mut Keys) -> Result<Vec<String>, String> {
        scan(body, shape, keys)?;
        Ok(keys.iter().map(str::to_owned).collect())
    }

    fn assert_agrees(body: &str, keys: &mut Keys) {
        for shape in [Shape::One, Shape::Batch] {
            assert_eq!(
                scanned(body, shape, keys),
                reference(body, shape),
                "{shape:?} body {body:?}"
            );
        }
    }

    #[test]
    fn edge_bodies_agree_with_the_reference() {
        let mut keys = Keys::default();
        for body in [
            r##"{"url": "HTTP://WWW.Example.DE/Pfad#frag"}"##,
            r##"{"urls": ["http://a.de/", " HTTP://B.FR/x ", "c.it?Q=1"]}"##,
            r##"  {"urls":[]}  "##,
            r##"{"url":"http:\/\/a.de\/étÉ"}"##,
            r##"{"url":"http://a.de/😀"}"##,
            r##"{"url":"http://a.de/", "url": 3}"##,
            r##"{"url": 3, "url": "http://a.de/"}"##,
            r##"{"urls": ["http://a.de/"], "urls": 7}"##,
            r##"{"other": {"url": "x", "deep": [[{"a": [1, -2.5e3, null]}]]}, "urls": ["a"]}"##,
            r##"{"urls": ["a", 3, "b"]}"##,
            r##"{"urls": ["a", "", "b"]}"##,
            r##"{"urls": ["a", 3, ""]}"##,
            r##"{"urls": ["", 3]}"##,
            r##"{"urls": ["#only-a-fragment"]}"##,
            r##"{"url": "   "}"##,
            r##"{"urls": ["a", 3] , "x": tru}"##,
            r##"{"urls": ["a"]} x"##,
            r##"{"urls": ["a",]}"##,
            r##"{"urls": ["a"],}"##,
            r##"{"urls" ["a"]}"##,
            r##"{"url": "a\qb"}"##,
            r##"{"url": "a\u12"}"##,
            r##"{"url": "a\u+041"}"##,
            r##"{"url": "a\ud800"}"##,
            r##"{"url": "a\ud800A"}"##,
            r##"{"url": "a\udc00"}"##,
            r##"{"url": "a
b"}"##,
            r##"{"x": -, "url": "a"}"##,
            r##"{"x": 1.2.3, "url": "a"}"##,
            r##"{"x": 99999999999999999999999, "url": "a"}"##,
            r##"{"x": nul, "url": "a"}"##,
            r##"["url", "a"]"##,
            r##""url""##,
            "",
            "   ",
            "{",
            r##"{"url": "a""##,
            r##"{"url""##,
        ] {
            assert_agrees(body, &mut keys);
        }
    }

    #[test]
    fn nesting_is_bounded_like_the_reference() {
        let mut keys = Keys::default();
        let nested = |depth: usize| {
            format!(
                "{{\"urls\": [\"a\"], \"x\": {}{}}}",
                "[".repeat(depth),
                "]".repeat(depth)
            )
        };
        // The top-level object is one level, so `RECURSION_LIMIT - 1`
        // more fit and one past that fails.
        assert_agrees(&nested(RECURSION_LIMIT - 1), &mut keys);
        assert!(scan(&nested(RECURSION_LIMIT - 1), Shape::Batch, &mut keys).is_ok());
        assert_agrees(&nested(RECURSION_LIMIT), &mut keys);
        let err = scan(&nested(RECURSION_LIMIT), Shape::Batch, &mut keys).unwrap_err();
        assert!(err.contains("recursion limit exceeded"), "{err}");
        // A megabyte of nesting is rejected without recursing.
        let deep = format!("{{\"x\": {}", "[{\"k\":".repeat(1 << 17));
        assert_agrees(&deep, &mut keys);
    }

    #[test]
    fn unescaped_urls_are_normalised_without_touching_the_scratch() {
        let mut keys = Keys::default();
        scan(
            r#"{"urls": ["HTTP://A.DE/X", "b.fr"]}"#,
            Shape::Batch,
            &mut keys,
        )
        .unwrap();
        assert_eq!(keys.iter().collect::<Vec<_>>(), ["http://a.de/X", "b.fr"]);
        assert!(keys.unescaped.is_empty());
        scan(r#"{"url": "http:\/\/a.de\/"}"#, Shape::One, &mut keys).unwrap();
        assert_eq!(keys.get(0), "http://a.de/");
        assert_eq!(keys.len(), 1);
    }

    /// Whitespace as JSON allows it, or none.
    fn ws(rng: &mut StdRng) -> &'static str {
        ["", "", " ", "\n", "\t ", "\r\n  "][rng.random_range(0..6usize)]
    }

    /// A JSON string literal for `text`, with characters escaped at
    /// random in every way JSON allows (and, rarely, in ways it does
    /// not).
    fn literal(rng: &mut StdRng, text: &str) -> String {
        let mut out = String::from("\"");
        for c in text.chars() {
            let pick = rng.random_range(0..20);
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '/' if pick < 4 => out.push_str("\\/"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c if pick < 2 => {
                    let mut units = [0u16; 2];
                    for unit in c.encode_utf16(&mut units) {
                        if rng.random_bool(0.5) {
                            out.push_str(&format!("\\u{unit:04X}"));
                        } else {
                            out.push_str(&format!("\\u{unit:04x}"));
                        }
                    }
                }
                c => out.push(c),
            }
        }
        if rng.random_bool(0.03) {
            let bad = [
                "\\x",
                "\\u12",
                "\\uZZZZ",
                "\\ud800",
                "\\ud800\\u0041",
                "\\udfff",
                "\u{1}",
            ];
            out.push_str(bad[rng.random_range(0..bad.len())]);
        }
        out.push('"');
        out
    }

    /// A URL-like string, sometimes padded, fragment-only or empty.
    fn url_text(rng: &mut StdRng) -> String {
        const SCHEMES: &[&str] = &["http://", "HTTPS://", "", "ftp://"];
        const HOSTS: &[&str] = &["WWW.Example.DE", "a.fr", "Café.ES", "中文.cn", "", "x"];
        const PATHS: &[&str] = &[
            "/Pfad/Seite.html",
            "?Q=Mixed",
            "/a b",
            "",
            "/\"q\"\\",
            "/\u{1f600}",
        ];
        const TAILS: &[&str] = &["", "", "#frag", "#", "?x#y"];
        const PADS: &[&str] = &["", "", " ", "\t", "\u{a0}", "\n"];
        match rng.random_range(0..12) {
            0 => String::new(),
            1 => "   ".to_owned(),
            2 => "#only".to_owned(),
            _ => format!(
                "{}{}{}{}{}{}",
                PADS[rng.random_range(0..PADS.len())],
                SCHEMES[rng.random_range(0..SCHEMES.len())],
                HOSTS[rng.random_range(0..HOSTS.len())],
                PATHS[rng.random_range(0..PATHS.len())],
                TAILS[rng.random_range(0..TAILS.len())],
                PADS[rng.random_range(0..PADS.len())],
            ),
        }
    }

    /// Any JSON value, nested at most `depth` deep, with a few invalid
    /// scalars among the valid ones.
    fn value(rng: &mut StdRng, depth: usize) -> String {
        match rng.random_range(0..if depth == 0 { 4 } else { 6 }) {
            0 | 1 => {
                const SCALARS: &[&str] = &[
                    "0", "-12", "1.5e3", "2E-2", "-0.0", "007", "true", "false", "null",
                ];
                const INVALID: &[&str] = &["1e", "-", "1.2.3", "nul", "truex"];
                if rng.random_bool(0.05) {
                    INVALID[rng.random_range(0..INVALID.len())].to_owned()
                } else {
                    SCALARS[rng.random_range(0..SCALARS.len())].to_owned()
                }
            }
            2 | 3 => {
                let text = url_text(rng);
                literal(rng, &text)
            }
            4 => {
                let items: Vec<String> = (0..rng.random_range(0..4))
                    .map(|_| format!("{}{}{}", ws(rng), value(rng, depth - 1), ws(rng)))
                    .collect();
                format!("[{}]", items.join(","))
            }
            _ => {
                let members: Vec<String> = (0..rng.random_range(0..4))
                    .map(|_| member(rng, depth - 1))
                    .collect();
                format!("{{{}{}}}", members.join(","), ws(rng))
            }
        }
    }

    /// One object member: a key (sometimes the wanted one, sometimes
    /// escaped) and a value shaped for it.
    fn member(rng: &mut StdRng, depth: usize) -> String {
        const KEYS: &[&str] = &["url", "urls", "u\\u0072l", "ur\\u006cs", "other", "", "URL"];
        // The wanted fields come up often enough that most bodies carry
        // one, and a good share carry it twice.
        let key = if rng.random_bool(0.4) {
            ["url", "urls"][rng.random_range(0..2usize)]
        } else {
            KEYS[rng.random_range(0..KEYS.len())]
        };
        let value = match (key, rng.random_range(0..5)) {
            ("urls" | "ur\\u006cs", 0..=3) => {
                let items: Vec<String> = (0..rng.random_range(0..6))
                    .map(|_| {
                        let item = if rng.random_bool(0.85) {
                            let text = url_text(rng);
                            literal(rng, &text)
                        } else {
                            value(rng, depth.min(2))
                        };
                        format!("{}{item}{}", ws(rng), ws(rng))
                    })
                    .collect();
                format!("[{}]", items.join(","))
            }
            ("url" | "u\\u0072l", 0..=3) => {
                let text = url_text(rng);
                literal(rng, &text)
            }
            _ => value(rng, depth.min(3)),
        };
        format!("{}\"{key}\"{}:{}{value}", ws(rng), ws(rng), ws(rng))
    }

    /// A request body: mostly an object of members, sometimes another
    /// value, sometimes cut short or with a stray byte spliced in.
    fn body(rng: &mut StdRng) -> String {
        let mut body = if rng.random_bool(0.9) {
            let members: Vec<String> = (0..rng.random_range(0..5))
                .map(|_| member(rng, 3))
                .collect();
            format!("{}{{{}{}}}{}", ws(rng), members.join(","), ws(rng), ws(rng))
        } else {
            value(rng, 3)
        };
        match rng.random_range(0..10) {
            0 => {
                let mut cut = rng.random_range(0..=body.len());
                while !body.is_char_boundary(cut) {
                    cut -= 1;
                }
                body.truncate(cut);
            }
            1 => {
                let mut at = rng.random_range(0..=body.len());
                while !body.is_char_boundary(at) {
                    at -= 1;
                }
                let stray = [",", "]", "}", "\"", "\\", ":", "x", "\u{1}", "[", "{"];
                body.insert_str(at, stray[rng.random_range(0..stray.len())]);
            }
            _ => {}
        }
        body
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Generated bodies (whitespace, `\/` and `\uXXXX` escapes,
        /// surrogate pairs, extra and nested fields, duplicate keys,
        /// non-string entries, empty URLs, truncations) scan to the
        /// reference's result: the same accept or reject, the same
        /// message, the same normalised keys.
        #[test]
        fn scanner_agrees_with_the_serde_json_reference(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let body = body(&mut rng);
            let mut keys = Keys::default();
            assert_agrees(&body, &mut keys);
        }

        /// The request parser's fragmentation property, carried through
        /// to the scanner: a batch request fed in arbitrary pieces scans
        /// to the same keys as its body does whole.
        #[test]
        fn fragmented_requests_scan_like_whole_bodies(
            seed in 0u64..u64::MAX,
            cut in proptest::collection::vec(0usize..4096, 0..6),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let body = body(&mut rng);
            let wire = format!(
                "POST /identify_batch HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            let mut cuts: Vec<usize> = cut.iter().map(|c| c % wire.len()).collect();
            cuts.sort_unstable();
            let mut parser = RequestParser::new(ParserLimits::default());
            let mut prev = 0;
            for c in cuts.into_iter().chain([wire.len()]) {
                parser.feed(&wire.as_bytes()[prev..c]);
                prev = c;
            }
            let request = parser.next_request().unwrap().expect("complete request");
            let mut keys = Keys::default();
            prop_assert_eq!(
                scanned(&request.body, Shape::Batch, &mut keys),
                reference(&body, Shape::Batch)
            );
        }
    }
}
