//! The workspace's one JSON writer and reader. Run manifests, trace
//! timelines, `BENCH_kernels.json` and `obs_report`'s verdicts are built as
//! a [`Json`] value and [`Json::render`]ed; tests, CI and `obs_report` read
//! them back with [`parse`]. The layout is fixed: numbers in Rust's shortest
//! round-trip `Display` form (so `parse(render(v)) == v`, and 1e-9 is not
//! printed as 0), `null` for NaN and ±∞ (JSON has neither), strings through
//! [`escape`], object keys sorted ([`Json::Obj`] is a `BTreeMap`), and each
//! member of a container at depth 0 or 1 on its own line while deeper ones
//! stay inline — one span, record or event per line, so re-recorded
//! baselines diff line by line.

use std::collections::BTreeMap;
use std::fmt::Write;

/// Escape a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A JSON value: what [`parse`] returns and what [`Json::render`] writes.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order preserved as sorted map).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Render as a JSON document in the module's fixed layout (no trailing
    /// newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Append this value to `out` laid out as if it sat `depth` containers
    /// deep (0 for a whole document), for a writer that streams the members
    /// of an outer container instead of holding it as one value.
    pub fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}").expect("write to String"),
            Json::Num(v) if v.is_finite() => write!(out, "{v}").expect("write to String"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write!(out, "\"{}\"", escape(s)).expect("write to String"),
            Json::Arr(items) => write_members(out, depth, "[]", items.iter().map(|v| (None, v))),
            Json::Obj(m) => write_members(out, depth, "{}", m.iter().map(|(k, v)| (Some(k), v))),
        }
    }
}

/// The members of an array (no keys) or an object between the two
/// `brackets`: one per line at depth ≤ 1, inline below that.
fn write_members<'a>(
    out: &mut String,
    depth: usize,
    brackets: &str,
    members: impl ExactSizeIterator<Item = (Option<&'a String>, &'a Json)>,
) {
    let indent = |depth: usize| format!("\n{:1$}", "", 2 * depth);
    let (first, sep, last) = if depth <= 1 && members.len() > 0 {
        (
            indent(depth + 1),
            format!(",{}", indent(depth + 1)),
            indent(depth),
        )
    } else {
        (String::new(), ", ".to_string(), String::new())
    };
    out.push_str(&brackets[..1]);
    for (i, (key, v)) in members.enumerate() {
        out.push_str(if i == 0 { &first } else { &sep });
        if let Some(k) = key {
            write!(out, "\"{}\": ", escape(k)).expect("write to String");
        }
        v.write(out, depth + 1);
    }
    out.push_str(&last);
    out.push_str(&brackets[1..]);
}

/// An object from `(key, value)` members; a repeated key keeps its last
/// value.
pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Collects values into an array.
impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(items: I) -> Self {
        Json::Arr(items.into_iter().collect())
    }
}

/// Numbers; counts and sizes convert exactly below 2^53.
macro_rules! from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Self {
                Json::Num(v as f64)
            }
        }
    )*};
}
from_number!(f64, u64, u32, usize);

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

/// Parse a JSON document. Errors carry a byte offset and a short reason.
pub fn parse(s: &str) -> Result<Json, String> {
    let b = s.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.i += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through byte-wise; find the
                    // char boundary from the original str slice.
                    let rest = std::str::from_utf8(&self.b[self.i..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let c = rest
                        .chars()
                        .next()
                        .expect("from_utf8 on a non-empty slice yields at least one char");
                    out.push(c);
                    self.i += c.len_utf8();
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.ws();
            out.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let v = self.value()?;
            out.insert(k, v);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": true, "e": null}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("e"), Some(&Json::Null));
    }

    #[test]
    fn escape_round_trips() {
        let s = "a\"b\\c\nd\te\u{1}f";
        let doc = format!("{{\"k\": \"{}\"}}", escape(s));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(s));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
    }

    #[test]
    fn num_formatting() {
        assert_eq!(Json::Num(1.0).render(), "1");
        assert_eq!(Json::Num(0.5).render(), "0.5");
        assert_eq!(Json::Num(1e-9).render(), "0.000000001");
        assert_eq!(Json::Num(-2.5e-7).render(), "-0.00000025");
        // JSON has no NaN or ∞.
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Num(v).render(), "null");
        }
    }

    #[test]
    fn layout_breaks_lines_only_at_depth_0_and_1() {
        let v = obj([
            (
                "b",
                Json::Arr(vec![obj([("y", Json::Null), ("x", 1.0.into())])]),
            ),
            (
                "a",
                obj([("k", Json::Arr(vec![Json::Bool(true), "s".into()]))]),
            ),
            ("c", Json::Arr(vec![])),
        ]);
        assert_eq!(
            v.render(),
            "{\n  \"a\": {\n    \"k\": [true, \"s\"]\n  },\n  \"b\": [\n    \
             {\"x\": 1, \"y\": null}\n  ],\n  \"c\": []\n}"
        );
    }

    /// SplitMix64: the crate has no dependencies, so the round-trip test
    /// draws from its own generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A finite number with magnitude from 1e-300 to 1e300, or 0.
        fn number(&mut self) -> f64 {
            let mantissa = 1.0 + 9.0 * (self.next() >> 11) as f64 / (1u64 << 53) as f64;
            let exp = self.below(600) as i32 - 300;
            let sign = if self.below(2) == 0 { 1.0 } else { -1.0 };
            match self.below(8) {
                0 => 0.0,
                1 => (self.next() % 1_000_000) as f64,
                _ => sign * mantissa * 10f64.powi(exp),
            }
        }

        fn string(&mut self) -> String {
            const CHARS: [char; 12] = [
                'a', 'Z', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', 'é', 'µ', '😀',
            ];
            (0..self.below(8))
                .map(|_| CHARS[self.below(CHARS.len() as u64) as usize])
                .collect()
        }

        fn value(&mut self, depth: usize) -> Json {
            match self.below(if depth < 4 { 7 } else { 5 }) {
                0 => Json::Null,
                1 => Json::Bool(self.below(2) == 0),
                2 | 3 => Json::Num(self.number()),
                4 => Json::Str(self.string()),
                5 => Json::Arr((0..self.below(5)).map(|_| self.value(depth + 1)).collect()),
                _ => obj((0..self.below(5))
                    .map(|_| (self.string(), self.value(depth + 1)))
                    .collect::<Vec<_>>()),
            }
        }
    }

    #[test]
    fn parse_inverts_render_over_random_documents() {
        for seed in 0..32 {
            let mut rng = Rng(seed);
            let v = rng.value(0);
            let text = v.render();
            assert_eq!(parse(&text), Ok(v), "seed {seed}: {text}");
        }
    }
}
