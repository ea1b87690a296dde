//! A minimal JSON value, writer helpers, and recursive-descent parser.
//!
//! The build environment is offline (no serde); the exporters hand-emit
//! JSON and this module closes the loop so tests and the `trace_check`
//! tool can parse what was emitted and validate its shape.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Objects preserve no duplicate keys (last wins).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Parse `src` as one JSON document (trailing whitespace allowed).
    pub fn parse(src: &str) -> Result<Json, String> {
        Parser::new(src, None).document().map(|(v, _)| v)
    }

    /// [`Json::parse`] for a document whose top-level object carries one
    /// large string member, `key`: its value stays out of the tree and
    /// comes back beside it, borrowed from `src` when it holds no escape,
    /// so a caller decodes it where it lies instead of from a copy.
    /// Everything else answers as `parse` does: the same errors, and the
    /// member is lifted only when its last occurrence (the one `get` would
    /// see) is a string, so a value of another type stays in the tree.
    pub fn parse_lifting<'a>(
        src: &'a str,
        key: &str,
    ) -> Result<(Json, Option<Cow<'a, str>>), String> {
        Parser::new(src, Some(key)).document()
    }
}

/// Escape `s` for embedding in a JSON string literal (no quotes added).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Format `v` as a JSON number: finite shortest-repr, non-finite as 0
/// (JSON has no Infinity/NaN). For scalars of reports and events
/// (`wall_seconds`, histogram quantiles) only: arrays of values cross the
/// wire as bits (`spdistal_client::proto`, `vals_b64`), so a non-finite
/// *result* is never printed through here.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

struct Parser<'a, 'k> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// The top-level member to lift ([`Json::parse_lifting`]); taken by the
    /// first value parsed, so no nested object sees it.
    lift: Option<&'k str>,
    lifted: Option<Cow<'a, str>>,
}

/// Length of the run of `bytes` before its first `"` or `\` (all of
/// `bytes` if it has neither), 32 bytes per step while no word of the step
/// holds one, then 8: a SWAR zero-byte test of each word XOR each target. A
/// borrow can flag a byte only above a true zero, so the lowest flagged
/// byte is exact; a byte >= 0x80 keeps its high bit under the XOR and is
/// never flagged.
fn plain_run(bytes: &[u8]) -> usize {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    const QUOTES: u64 = u64::from_le_bytes([b'"'; 8]);
    const BACKSLASHES: u64 = u64::from_le_bytes([b'\\'; 8]);
    let hits = |w: &[u8; 8]| {
        let w = u64::from_le_bytes(*w);
        let (q, b) = (w ^ QUOTES, w ^ BACKSLASHES);
        ((q.wrapping_sub(ONES) & !q) | (b.wrapping_sub(ONES) & !b)) & HIGHS
    };
    let mut run = 0;
    for step in bytes.as_chunks::<32>().0 {
        if step
            .as_chunks::<8>()
            .0
            .iter()
            .fold(0, |any, w| any | hits(w))
            != 0
        {
            break;
        }
        run += 32;
    }
    let (words, rest) = bytes[run..].as_chunks::<8>();
    for w in words {
        let hit = hits(w);
        if hit != 0 {
            return run + hit.trailing_zeros() as usize / 8;
        }
        run += 8;
    }
    run + rest
        .iter()
        .position(|&b| b == b'"' || b == b'\\')
        .unwrap_or(rest.len())
}

impl<'a, 'k> Parser<'a, 'k> {
    fn new(src: &'a str, lift: Option<&'k str>) -> Parser<'a, 'k> {
        Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            lift,
            lifted: None,
        }
    }

    fn document(mut self) -> Result<(Json, Option<Cow<'a, str>>), String> {
        self.skip_ws();
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing garbage at byte {}", self.pos));
        }
        Ok((v, self.lifted))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        let lift = self.lift.take();
        match self.peek() {
            Some(b'{') => self.object(lift),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.num(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn num(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }

    /// A string literal's value: borrowed from the source when it is one
    /// plain run (no escape), else unescaped into an owned copy.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        // A run stops only at a quote or a backslash, both ASCII, so it
        // starts and ends on char boundaries of the `&str` this parser was
        // handed and is already valid UTF-8.
        let start = self.pos;
        self.pos += plain_run(&self.bytes[start..]);
        let run = &self.src[start..self.pos];
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(run));
        }
        let mut out = run.to_string();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not needed by our own
                            // emitter; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or backslash
                    // (the end of every escape is ASCII too).
                    let run = plain_run(&self.bytes[self.pos..]);
                    out.push_str(&self.src[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    /// An object; `lift` names the member to keep out of it (the top-level
    /// object's only).
    fn object(&mut self, lift: Option<&str>) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let lifting = lift == Some(&*key);
            if lifting && self.peek() == Some(b'"') {
                // Whichever occurrence comes last wins, lifted or not.
                self.lifted = Some(self.string()?);
                map.remove(&*key);
            } else {
                if lifting {
                    self.lifted = None;
                }
                let val = self.value()?;
                map.insert(key.into_owned(), val);
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = Json::parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny"}, "d": true, "e": null}"#)
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.get("e"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "\"unterminated", "[1] extra", ""] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "he said \"hi\"\n\tpath\\to\u{1}";
        let doc = format!("{{\"k\": \"{}\"}}", escape(nasty));
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn string_runs_keep_escapes_and_multi_byte_scalars_on_their_boundaries() {
        // Every run boundary case: escape, `\u` escape and 2-, 3- and 4-byte
        // scalars directly before and after a plain run, and back to back.
        let nasty = "é\"run\"é\\€run\u{1}𝄞\n𝄞run€\té";
        let doc = format!("[\"{}\", \"\\u00e9x\\u20acé\\u0041\"]", escape(nasty));
        let v = Json::parse(&doc).unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_str(), Some(nasty));
        assert_eq!(items[1].as_str(), Some("éx€éA"));
        assert!(Json::parse("\"é").is_err(), "unterminated after a run");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Was quadratic: the remaining input was re-validated per character
        // (1 141 ms for this document in release, 0.3 ms now).
        let body = "abcdefghijklmnop".repeat(16 * 1024);
        let doc = format!("{{\"k\":\"{body}\"}}");
        let t0 = std::time::Instant::now();
        let v = Json::parse(&doc).unwrap();
        let took = t0.elapsed();
        assert_eq!(v.get("k").unwrap().as_str().map(str::len), Some(256 * 1024));
        assert!(took.as_millis() < 20, "256 KiB string took {took:?}");
    }

    #[test]
    fn the_word_scan_stops_at_the_first_quote_or_backslash() {
        // Fill bytes include 0xA2 and 0xDC: '"' and '\' with the high bit
        // set, which a scan that ignored bit 7 would stop at.
        let fills = [b'a', 0xA2, 0xDC, 0xC3, 0xFF, 0x00];
        for len in 0..=40 {
            for &fill in &fills {
                let mut bytes = vec![fill; len];
                assert_eq!(plain_run(&bytes), len, "{len} x {fill:#x}");
                for at in 0..len {
                    for target in [b'"', b'\\'] {
                        bytes.fill(fill);
                        bytes[at] = target;
                        // A second hit later must not move the answer.
                        if at + 3 < len {
                            bytes[at + 3] = b'"' ^ b'\\' ^ target;
                        }
                        assert_eq!(plain_run(&bytes), at, "{len} x {fill:#x}, hit at {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn quotes_and_backslashes_at_every_offset_parse_as_before() {
        // A '"' and a '\' at every offset 0..=24 of a run, beside 2-, 3- and
        // 4-byte scalars and beside escapes: the parsed value is the
        // string that was escaped.
        let neighbours = ["\u{e9}", "\u{201c}", "\u{1f600}", "\n", "\u{1}", "plain"];
        for off in 0..=24 {
            for target in ['"', '\\'] {
                for n in neighbours {
                    let before = format!("{}{n}{target}{n}x", "y".repeat(off));
                    let after = format!("{n}{}{target}{target}{n}", "y".repeat(off));
                    let spaced =
                        format!("{}{target}{}{n}", "\u{e9}".repeat(off / 2), "z".repeat(off));
                    for text in [before, after, spaced] {
                        let doc = format!("[\"{}\",\"{}\"]", escape(&text), escape(n));
                        let v = Json::parse(&doc).unwrap();
                        let items = v.as_arr().unwrap();
                        assert_eq!(items[0].as_str(), Some(text.as_str()));
                        assert_eq!(items[1].as_str(), Some(n));
                    }
                }
            }
        }
    }

    #[test]
    fn a_lifted_member_answers_what_parse_answers() {
        let docs = [
            r#"{"type":"result","stmt":0,"v":"AAAA+D8="}"#,
            r#"{"v":"plain","v":"esc\"aped"}"#,
            r#"{"v":"first","v":[1.5]}"#,
            r#"{"v":[1.5],"v":"last"}"#,
            r#"{"v":3, "n":{"v":"nested"}}"#,
            r#"[{"v":"in an array"}]"#,
            r#""v""#,
            r#"{ "v" : "spaced" , "w" : "x" }"#,
            r#"{"v":"unterminated}"#,
            r#"{"v":"ok" trailing}"#,
            r#"{"v":"ok"} x"#,
        ];
        for doc in docs {
            let parsed = Json::parse(doc);
            match Json::parse_lifting(doc, "v") {
                Err(e) => assert_eq!(parsed, Err(e), "{doc}"),
                Ok((mut tree, lifted)) => {
                    if let (Json::Obj(map), Some(text)) = (&mut tree, &lifted) {
                        assert!(!map.contains_key("v"), "{doc}");
                        map.insert("v".to_string(), Json::Str(text.to_string()));
                    }
                    assert_eq!(Ok(tree), parsed, "{doc}");
                    // Borrowed from the document unless it had to unescape.
                    let escaped = lifted.as_deref().is_some_and(|t| t.contains('"'));
                    assert_eq!(matches!(lifted, Some(Cow::Owned(_))), escaped, "{doc}");
                }
            }
        }
        // Only the top-level object's member is lifted.
        let (tree, lifted) = Json::parse_lifting(r#"{"n":{"v":"nested"}}"#, "v").unwrap();
        assert!(lifted.is_none());
        assert_eq!(
            tree.get("n").unwrap().get("v").unwrap().as_str(),
            Some("nested")
        );
    }

    #[test]
    fn numbers_never_emit_non_finite() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(f64::INFINITY), "0");
        assert!(Json::parse(&number(1e300)).is_ok());
    }
}
