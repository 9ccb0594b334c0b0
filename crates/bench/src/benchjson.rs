//! The repo's JSON document model: one emitter, one parser, one schema
//! check.
//!
//! Scenario documents, `um-sweep --json` point grids, the `um-serve`
//! API, `um-tidy --json` reports and the end-to-end benchmark's output
//! (`crates/bench/e2e`) all go through this module:
//!
//! - [`Json`] is a minimal ordered document model (objects preserve key
//!   order, so emitted files are deterministic without sorted maps).
//! - [`Json::render`] pretty-prints it; [`Json::parse`] reads it back.
//!   Round-tripping is exact — see the module tests — so committed
//!   documents cannot drift from what the emitter produces.
//! - [`validate_bench`] enforces the point-grid envelope: a `bench`
//!   name, a `scale`, and a non-empty homogeneous `points` array.
//!   `um-sweep --json` checks every document it writes against it.
//!
//! The model is deliberately tiny (no serde in the dependency tree):
//! numbers are `f64`, strings support the standard single-character
//! escapes, and that is all the envelope needs.

/// One JSON value. Objects are ordered key/value lists, so equal
/// documents render identically and rendering is deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number ([`Json::render`] panics on NaN/infinity).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Builds an object from `&str` keys (sugar for the emitters).
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Rounds to `decimals` fractional digits, so emitted reals carry
/// figure precision instead of 17 significant digits.
pub fn rounded(v: f64, decimals: u32) -> f64 {
    let scale = 10f64.powi(decimals as i32);
    (v * scale).round() / scale
}

impl Json {
    /// Looks up a key in an object (`None` for non-objects too).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number behind this value, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string behind this value, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements behind this value, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs behind this value, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Pretty-prints the document (2-space indent, trailing newline).
    ///
    /// # Panics
    ///
    /// Panics on non-finite numbers: JSON has no spelling for them, and
    /// a bench that produced one has a bug worth aborting on.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                assert!(n.is_finite(), "cannot render non-finite number {n}");
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    out.push_str(&format!("{n:.0}"));
                } else {
                    // `{}` on f64 is the shortest representation that
                    // parses back to the same bits, so render/parse
                    // round-trips exactly.
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    push_indent(out, indent + 1);
                    item.render_into(out, indent + 1);
                    out.push_str(if i + 1 == items.len() { "\n" } else { ",\n" });
                }
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in pairs.iter().enumerate() {
                    push_indent(out, indent + 1);
                    render_string(key, out);
                    out.push_str(": ");
                    value.render_into(out, indent + 1);
                    out.push_str(if i + 1 == pairs.len() { "\n" } else { ",\n" });
                }
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first violation.
    /// The accepted grammar matches what [`Json::render`] emits plus
    /// arbitrary whitespace; `\uXXXX` escapes outside the BMP are the
    /// one JSON feature deliberately not supported.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected '{word}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(format!("unterminated string at byte {start}")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| format!("unterminated escape at byte {start}"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("truncated \\u escape at byte {start}"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {start}"))?;
                            self.pos += 4;
                            // from_u32 rejects surrogates, so unpaired
                            // halves fail here rather than round-trip.
                            out.push(char::from_u32(code).ok_or_else(|| {
                                format!("unsupported \\u escape at byte {start}")
                            })?);
                        }
                        other => {
                            return Err(format!(
                                "unknown escape '\\{}' at byte {start}",
                                other as char
                            ))
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input came from &str,
                    // so boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
                    let c = rest.chars().next().expect("peeked a byte");
                    if (c as u32) < 0x20 {
                        return Err(format!("raw control character at byte {start}"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Checks the shared point-grid envelope:
///
/// - the document is an object with a non-empty string `bench` and a
///   `scale` of `"quick"` or `"full"`;
/// - `points` is a non-empty array of objects;
/// - every point carries exactly the same keys, in the same order, as
///   the first point (so a new field cannot appear in only some rows);
/// - point values are numbers or strings (the envelope is flat);
/// - when present, `headline` is an object.
///
/// # Errors
///
/// Returns a description of the first violated clause.
pub fn validate_bench(doc: &Json) -> Result<(), String> {
    doc.as_obj().ok_or("document is not an object")?;
    let bench = doc
        .get("bench")
        .and_then(Json::as_str)
        .ok_or("missing string field 'bench'")?;
    if bench.is_empty() {
        return Err("'bench' is empty".to_string());
    }
    let scale = doc
        .get("scale")
        .and_then(Json::as_str)
        .ok_or("missing string field 'scale'")?;
    if scale != "quick" && scale != "full" {
        return Err(format!("'scale' must be quick or full, got '{scale}'"));
    }
    if let Some(headline) = doc.get("headline") {
        headline.as_obj().ok_or("'headline' is not an object")?;
    }
    let points = doc
        .get("points")
        .and_then(Json::as_arr)
        .ok_or("missing array field 'points'")?;
    if points.is_empty() {
        return Err("'points' is empty".to_string());
    }
    let keys = |p: &Json| -> Option<Vec<String>> {
        p.as_obj()
            .map(|pairs| pairs.iter().map(|(k, _)| k.clone()).collect())
    };
    let expected = keys(&points[0]).ok_or("point 0 is not an object")?;
    for (i, point) in points.iter().enumerate() {
        let got = keys(point).ok_or_else(|| format!("point {i} is not an object"))?;
        if got != expected {
            return Err(format!(
                "point {i} keys {got:?} differ from point 0 keys {expected:?}"
            ));
        }
        for (key, value) in point.as_obj().expect("checked above") {
            if !matches!(value, Json::Num(_) | Json::Str(_)) {
                return Err(format!("point {i} field '{key}' is not a number or string"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        obj(vec![
            ("bench", Json::Str("engine".into())),
            ("scale", Json::Str("full".into())),
            ("horizon_us", Json::Num(200_000.0)),
            (
                "headline",
                obj(vec![
                    ("axis", Json::Str("fleet".into())),
                    ("speedup", Json::Num(rounded(6.2378, 2))),
                ]),
            ),
            (
                "points",
                Json::Arr(vec![
                    obj(vec![
                        ("axis", Json::Str("load".into())),
                        ("rps", Json::Num(50_000.0)),
                        ("events_per_sec", Json::Num(1.25e7)),
                    ]),
                    obj(vec![
                        ("axis", Json::Str("fleet".into())),
                        ("rps", Json::Num(50_000.0)),
                        ("events_per_sec", Json::Num(0.5)),
                    ]),
                ]),
            ),
        ])
    }

    #[test]
    fn render_parse_round_trips_exactly() {
        let doc = sample();
        let text = doc.render();
        assert_eq!(Json::parse(&text).expect("parses"), doc);
        // A second trip through the emitter is byte-stable.
        assert_eq!(Json::parse(&text).expect("parses").render(), text);
    }

    #[test]
    fn awkward_numbers_round_trip() {
        for n in [
            0.0,
            -0.0,
            1.0 / 3.0,
            6.02e23,
            -1.5e-9,
            9.0e15 - 2.0,
            f64::MIN_POSITIVE,
        ] {
            let text = Json::Num(n).render();
            let back = Json::parse(&text).expect("parses").as_num().expect("num");
            assert_eq!(back.to_bits(), n.to_bits(), "{n} via {text:?}");
        }
    }

    #[test]
    fn strings_with_escapes_round_trip() {
        let doc = Json::Str("a \"quote\", a \\ slash,\n\ta tab, \u{1}".into());
        assert_eq!(Json::parse(&doc.render()).expect("parses"), doc);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_numbers_refuse_to_render() {
        Json::Num(f64::NAN).render();
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "{\"a\": 1,}",
            "[1 2]",
            "\"unterminated",
            "\"bad \\q escape\"",
            "nulL",
            "{} trailing",
            "{\"a\": 1e}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn validator_accepts_the_envelope() {
        assert_eq!(validate_bench(&sample()), Ok(()));
        let text = sample().render();
        assert_eq!(validate_bench(&Json::parse(&text).expect("parses")), Ok(()));
    }

    #[test]
    fn validator_rejects_envelope_violations() {
        let mut no_bench = sample();
        if let Json::Obj(pairs) = &mut no_bench {
            pairs.retain(|(k, _)| k != "bench");
        }
        assert!(validate_bench(&no_bench)
            .expect_err("no bench")
            .contains("bench"));

        let mut bad_scale = sample();
        if let Json::Obj(pairs) = &mut bad_scale {
            pairs[1].1 = Json::Str("huge".into());
        }
        assert!(validate_bench(&bad_scale)
            .expect_err("bad scale")
            .contains("scale"));

        let mut empty_points = sample();
        if let Json::Obj(pairs) = &mut empty_points {
            pairs[4].1 = Json::Arr(Vec::new());
        }
        assert!(validate_bench(&empty_points).is_err());

        // A field present in only one point is schema drift.
        let mut ragged = sample();
        if let Json::Obj(pairs) = &mut ragged {
            if let Json::Arr(points) = &mut pairs[4].1 {
                if let Json::Obj(point) = &mut points[1] {
                    point.push(("extra".into(), Json::Num(1.0)));
                }
            }
        }
        assert!(validate_bench(&ragged)
            .expect_err("ragged")
            .contains("differ"));

        // Nested containers inside a point are not part of the envelope.
        let mut nested = sample();
        if let Json::Obj(pairs) = &mut nested {
            if let Json::Arr(points) = &mut pairs[4].1 {
                for point in points.iter_mut() {
                    if let Json::Obj(point) = point {
                        point[2].1 = Json::Arr(Vec::new());
                    }
                }
            }
        }
        assert!(validate_bench(&nested).is_err());
    }
}
