//! The workspace's one JSON codec: a single-line writer and a parser,
//! with no external serialisation dependency.
//!
//! **Writer** — [`JsonObject`], [`array()`], [`escape`] and [`num`] build
//! every document the workspace emits (event streams, Chrome traces,
//! the daemon protocol, the data store, the `BENCH_*.json` reports).
//! Output is always a single line (no pretty-printing) so it can be
//! embedded in JSONL streams and Chrome trace arrays directly.
//!
//! **Parser** — [`JsonValue::parse`] reads them back: daemon protocol
//! lines, the persisted store, profiles, timelines, predictions, lint
//! reports and the bench gate's inputs. It scans each byte once, and
//! because documents arrive from outside the program it refuses
//! nesting deeper than [`MAX_JSON_DEPTH`] instead of recursing until
//! the stack overflows. [`expect_schema`] is the one way to open a
//! schema-tagged document.
//!
//! **Numbers** — every JSON number is an `f64`; the writer spells
//! non-finite values `null`. Counts, ids and byte sizes are read with
//! [`JsonValue::as_u64`], which accepts exactly the non-negative
//! integers up to 2^53 — the range an `f64` carries without rounding —
//! so an out-of-range, negative or fractional value is an error at the
//! reader rather than a silently saturated cast.

use std::fmt::Write as _;

/// Append `s` to `out`, escaped for inclusion inside JSON double
/// quotes. Every byte that needs escaping is ASCII, so the runs between
/// them are copied whole.
fn push_escaped(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
}

/// Append `v` to `out` as a JSON number (`null` for non-finite values,
/// which JSON cannot represent).
fn push_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Escape a string for inclusion inside JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_escaped(&mut out, s);
    out
}

/// Render an `f64` as a JSON number (`null` for non-finite values,
/// which JSON cannot represent).
pub fn num(v: f64) -> String {
    let mut out = String::new();
    push_num(&mut out, v);
    out
}

/// Incremental single-line JSON object writer.
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
}

/// Starting capacity of a [`JsonObject`]: most lines of an event
/// stream fit, so writing one is one allocation, or two.
const LINE_CAPACITY: usize = 128;

impl JsonObject {
    pub fn new() -> Self {
        let mut buf = String::with_capacity(LINE_CAPACITY);
        buf.push('{');
        JsonObject { buf }
    }

    fn key(&mut self, k: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        push_escaped(&mut self.buf, k);
        self.buf.push_str("\":");
    }

    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push('"');
        push_escaped(&mut self.buf, v);
        self.buf.push('"');
        self
    }

    pub fn num(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        push_num(&mut self.buf, v);
        self
    }

    pub fn int(mut self, k: &str, v: i64) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    pub fn uint(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Insert pre-rendered JSON (an object, array or literal) verbatim.
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Join pre-rendered JSON values into an array.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut buf = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&item);
    }
    buf.push(']');
    buf
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always stored as `f64`).
    Number(f64),
    /// A string, with escapes decoded.
    String(String),
    /// An array, in document order.
    Array(Vec<JsonValue>),
    /// An object, fields in document order (duplicates kept).
    Object(Vec<(String, JsonValue)>),
}

/// Deepest array/object nesting [`JsonValue::parse`] accepts. Documents
/// arrive from outside the program (daemon protocol lines, files named
/// on the command line) and the parser recurses per level, so the
/// bound is what keeps hostile input from overflowing the stack.
pub const MAX_JSON_DEPTH: usize = 128;

impl JsonValue {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected, nesting beyond [`MAX_JSON_DEPTH`]
    /// rejected).
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Field lookup (`None` for non-objects and absent keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer no larger than
    /// 2^53, the range in which an `f64` is exact.
    pub fn as_u64(&self) -> Option<u64> {
        const MAX_EXACT: f64 = (1u64 << 53) as f64;
        self.as_f64()
            .filter(|n| n.fract() == 0.0 && (0.0..=MAX_EXACT).contains(n))
            .map(|n| n as u64)
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Field `key` as a string (`None` when absent or mistyped).
    pub fn str_at(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }

    /// Field `key` as a number.
    pub fn f64_at(&self, key: &str) -> Option<f64> {
        self.get(key)?.as_f64()
    }

    /// Field `key` as an exact non-negative integer ([`Self::as_u64`]).
    pub fn u64_at(&self, key: &str) -> Option<u64> {
        self.get(key)?.as_u64()
    }

    /// Field `key` as a boolean.
    pub fn bool_at(&self, key: &str) -> Option<bool> {
        self.get(key)?.as_bool()
    }

    /// Field `key` as an array.
    pub fn array_at(&self, key: &str) -> Option<&[JsonValue]> {
        self.get(key)?.as_array()
    }
}

/// Parse `doc` and require its `"schema"` field to be `tag`. Errors are
/// prefixed with `label`, the caller's name for the document.
pub fn expect_schema(doc: &str, label: &str, tag: &str) -> Result<JsonValue, String> {
    let value = JsonValue::parse(doc).map_err(|e| format!("{label}: {e}"))?;
    match value.str_at("schema") {
        Some(found) if found == tag => Ok(value),
        Some(other) => Err(format!(
            "{label}: unsupported schema `{other}` (expected `{tag}`)"
        )),
        None => Err(format!("{label}: missing schema tag")),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
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
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_JSON_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }

    /// The four hex digits of a `\u` escape starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self.bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_string())?;
        u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape `{hex}`"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next delimiter in one piece, so
            // every byte is validated and moved once. Both delimiters
            // are ASCII: a run ends on a char boundary.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(
                std::str::from_utf8(&rest[..run]).map_err(|_| "non-utf8 string".to_string())?,
            );
            self.pos += run + 1;
            if rest[run] == b'"' {
                return Ok(out);
            }
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b't') => out.push('\t'),
                Some(b'r') => out.push('\r'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let mut code = self.hex4(self.pos + 1)?;
                    self.pos += 4;
                    // ASCII-escaping writers spell an astral scalar as a
                    // high surrogate followed by an escaped low one.
                    if (0xD800..0xDC00).contains(&code)
                        && self.bytes.get(self.pos + 1..self.pos + 3) == Some(b"\\u")
                    {
                        if let Ok(low @ 0xDC00..=0xDFFF) = self.hex4(self.pos + 3) {
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            self.pos += 6;
                        }
                    }
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| format!("invalid code point {code:#x}"))?,
                    );
                }
                other => return Err(format!("bad escape {other:?} at byte {}", self.pos)),
            }
            self.pos += 1;
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        // Runs between escapes are copied whole, multi-byte characters
        // and the unescaped DEL included; an escape may open or close.
        assert_eq!(escape("é\t😀\u{7f}\r"), "é\\t😀\u{7f}\\r");
        assert_eq!(escape("\"\u{1f}x"), "\\\"\\u001fx");
        assert_eq!(escape(""), "");
        let o = JsonObject::new().str("k\"\n", "v\\é").finish();
        assert_eq!(o, "{\"k\\\"\\n\":\"v\\\\é\"}");
    }

    #[test]
    fn object_builds_valid_json() {
        let s = JsonObject::new()
            .str("type", "x")
            .num("t", 1.5)
            .int("n", -2)
            .bool("ok", true)
            .raw("a", "[1,2]")
            .finish();
        assert_eq!(
            s,
            "{\"type\":\"x\",\"t\":1.5,\"n\":-2,\"ok\":true,\"a\":[1,2]}"
        );
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(2.0), "2");
    }

    #[test]
    fn array_joins() {
        assert_eq!(array(["1".to_string(), "2".to_string()]), "[1,2]");
        assert_eq!(array(Vec::<String>::new()), "[]");
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let v = JsonValue::parse(r#"{"a":[1,-2.5,true,null],"b":"x\n\"yA"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 4);
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\n\"yA"));
        assert!(JsonValue::parse("{\"a\":1} trailing").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
    }

    #[test]
    fn json_parser_joins_escaped_surrogate_pairs() {
        // What `json.dumps("😀")` sends: ASCII-escaping is Python's default.
        let v = JsonValue::parse(r#"["\ud83d\ude00","a\uD834\uDD1Eb","\u00e9"]"#).unwrap();
        let items: Vec<_> = v.as_array().unwrap().iter().map(|s| s.as_str()).collect();
        assert_eq!(items, [Some("\u{1F600}"), Some("a\u{1D11E}b"), Some("é")]);
        // Lone, mis-ordered or half-escaped surrogates stay typed errors.
        for (text, code) in [
            (r#""\ud83d""#, "0xd83d"),
            (r#""\ud83dx""#, "0xd83d"),
            (r#""\ude00""#, "0xde00"),
            (r#""\ude00\ud83d""#, "0xde00"),
            (r#""\ud83d\u0041""#, "0xd83d"),
            (r#""\ud83d\ud83d""#, "0xd83d"),
            (r#""\ud83d\ude0""#, "0xd83d"),
        ] {
            assert_eq!(
                JsonValue::parse(text).unwrap_err(),
                format!("invalid code point {code}"),
                "{text}"
            );
        }
    }

    #[test]
    fn json_parser_bounds_nesting_instead_of_overflowing_the_stack() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(JsonValue::parse(&nested(MAX_JSON_DEPTH)).is_ok());
        let err = JsonValue::parse(&nested(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // Unclosed, far beyond any stack: still a plain `Err`.
        assert!(JsonValue::parse(&"[".repeat(300_000)).is_err());
        assert!(JsonValue::parse(&r#"{"a":"#.repeat(300_000)).is_err());
    }

    #[test]
    fn integers_are_exact_or_refused() {
        let int = |text: &str| JsonValue::parse(text).unwrap().as_u64();
        assert_eq!(int("0"), Some(0));
        assert_eq!(int("9007199254740992"), Some(1 << 53));
        assert_eq!(int("9.007199254740992e15"), Some(1 << 53));
        for refused in ["9007199254740994", "1e300", "-1", "1.5", "\"7\"", "null"] {
            assert_eq!(int(refused), None, "{refused}");
        }
        let doc = JsonValue::parse(r#"{"n":3,"s":"x","b":true,"a":[1],"f":-2.5}"#).unwrap();
        assert_eq!(doc.u64_at("n"), Some(3));
        assert_eq!(doc.u64_at("f"), None);
        assert_eq!(doc.f64_at("f"), Some(-2.5));
        assert_eq!(doc.str_at("s"), Some("x"));
        assert_eq!(doc.bool_at("b"), Some(true));
        assert_eq!(doc.array_at("a").map(<[JsonValue]>::len), Some(1));
        assert_eq!(doc.str_at("n"), None, "mistyped reads as absent");
        assert_eq!(doc.u64_at("missing"), None);
    }

    #[test]
    fn expect_schema_names_the_document_in_every_error() {
        let doc = r#"{"schema":"a/v1","x":1}"#;
        assert_eq!(
            expect_schema(doc, "doc", "a/v1").unwrap().u64_at("x"),
            Some(1)
        );
        assert_eq!(
            expect_schema(doc, "doc", "a/v2").unwrap_err(),
            "doc: unsupported schema `a/v1` (expected `a/v2`)"
        );
        assert_eq!(
            expect_schema("{}", "doc", "a/v1").unwrap_err(),
            "doc: missing schema tag"
        );
        assert_eq!(
            expect_schema(&doc[..doc.len() - 1], "doc", "a/v1").unwrap_err(),
            "doc: expected `,` or `}` at byte 22"
        );
    }

    /// `moteur::lint::JsonValue` is a re-export of this module's type,
    /// not a second definition.
    #[test]
    fn the_lint_path_names_the_same_type() {
        let via_lint: crate::lint::JsonValue = JsonValue::Null;
        assert_eq!(via_lint, JsonValue::Null);
    }
}
