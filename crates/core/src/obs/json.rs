//! The workspace's one JSON codec: a single-line writer and a parser,
//! with no external serialisation dependency.
//!
//! **Writer** — [`JsonObject`], [`array()`], [`escape`] and [`num`] build
//! every document the workspace emits (event streams, Chrome traces,
//! the daemon protocol, the data store, the `BENCH_*.json` reports).
//! Output is always a single line (no pretty-printing) so it can be
//! embedded in JSONL streams and Chrome trace arrays directly.
//!
//! The event stream's lines, the one hot document, are written by the
//! crate-private `Line` instead: the same bytes in one pass, each key
//! pre-quoted at compile time (`key!`).
//!
//! **Reader** — one crate-private pull cursor reads them back. It
//! scans each byte once, and because documents arrive from outside the
//! program it refuses nesting deeper than [`MAX_JSON_DEPTH`] instead of
//! recursing until the stack overflows. [`JsonValue::parse`] builds a
//! tree over it for daemon protocol lines, profiles, timelines,
//! predictions, lint reports and the bench gate's inputs; the persisted
//! store decodes its files straight off the cursor, with no tree.
//! [`expect_schema`] is the one way to open a schema-tagged document.
//!
//! **Numbers** — every JSON number is an `f64`; the writer spells
//! non-finite values `null`. Counts, ids and byte sizes are read with
//! [`JsonValue::as_u64`], which accepts exactly the non-negative
//! integers up to 2^53 — the range an `f64` carries without rounding —
//! so an out-of-range, negative or fractional value is an error at the
//! reader rather than a silently saturated cast.

use std::borrow::Cow;
use std::fmt::Write as _;

/// True for the bytes JSON needs escaped inside a string: the quote,
/// the backslash and the control characters. All of them are ASCII.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// Append `s` to `out`, escaped for inclusion inside JSON double
/// quotes. Every byte that needs escaping is ASCII, so the runs between
/// them are copied whole.
pub(crate) fn push_escaped(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !needs_escape(b) {
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

/// Append ASCII `digits` one `char` each, which skips the UTF-8 check
/// a `&str` of them would cost.
fn push_ascii(out: &mut String, digits: &[u8]) {
    out.extend(digits.iter().map(|&d| char::from(d)));
}

/// Append the decimal digits of `v`: the same bytes as `{v}`, without
/// going through `core::fmt`.
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    push_ascii(out, &digits[at..]);
}

/// Append `v` as 16 lowercase hex digits: the bytes of `{v:016x}`.
pub(crate) fn push_hex16(out: &mut String, v: u64) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut hex = [0u8; 16];
    for (i, slot) in hex.iter_mut().enumerate() {
        *slot = DIGITS[(v >> (60 - 4 * i)) as usize & 0xf];
    }
    push_ascii(out, &hex);
}

fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Below this many microseconds, `micros / 1e6` has at most 15
/// significant decimal digits, so its shortest round-trip spelling —
/// what `{}` prints for the `f64` — is the exact decimal.
const EXACT_MICROS: u64 = 1_000_000_000_000_000;

/// Append `micros` microseconds as a JSON number of seconds: the same
/// bytes as `push_num(micros as f64 / 1e6)`, written as the exact
/// decimal (whole seconds, then the fraction without trailing zeros).
/// At and above [`EXACT_MICROS`] it is that `push_num`.
fn push_micros_as_secs(out: &mut String, micros: u64) {
    if micros >= EXACT_MICROS {
        push_num(out, micros as f64 / 1e6);
        return;
    }
    push_u64(out, micros / 1_000_000);
    let mut frac = micros % 1_000_000;
    if frac == 0 {
        return;
    }
    let mut width = 6;
    while frac.is_multiple_of(10) {
        frac /= 10;
        width -= 1;
    }
    let mut digits = [b'0'; 7];
    digits[0] = b'.';
    for slot in digits[1..=width].iter_mut().rev() {
        *slot = b'0' + (frac % 10) as u8;
        frac /= 10;
    }
    push_ascii(out, &digits[..=width]);
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
    /// Whether a field has been written (the next one needs a comma).
    fields: bool,
}

/// Starting capacity of a [`JsonObject`]: most lines of an event
/// stream fit, so writing one is one allocation, or two.
pub(crate) const LINE_CAPACITY: usize = 128;

impl JsonObject {
    pub fn new() -> Self {
        Self::append_to(String::with_capacity(LINE_CAPACITY))
    }

    /// An object written after whatever `buf` already holds;
    /// [`JsonObject::finish`] hands the buffer back, so a caller that
    /// keeps one line buffer writes every object into it.
    pub fn append_to(mut buf: String) -> Self {
        buf.push('{');
        JsonObject { buf, fields: false }
    }

    fn key(&mut self, k: &str) {
        if self.fields {
            self.buf.push(',');
        }
        self.fields = true;
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

    /// `micros` microseconds as a number of seconds: the bytes of
    /// `num(k, micros as f64 / 1e6)`, written without a float.
    pub fn micros_as_secs(mut self, k: &str, micros: u64) -> Self {
        self.key(k);
        push_micros_as_secs(&mut self.buf, micros);
        self
    }

    pub fn int(mut self, k: &str, v: i64) -> Self {
        self.key(k);
        push_i64(&mut self.buf, v);
        self
    }

    pub fn uint(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        push_u64(&mut self.buf, v);
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

/// `,"name":` — the pre-quoted key of a field a [`Line`] writes.
macro_rules! key {
    ($name:literal) => {
        concat!(",\"", $name, "\":")
    };
}
pub(crate) use key;

/// A single-line JSON object written in one pass, for the event
/// stream's hot path: a constant head that opens it and ends with its
/// first key (`{"type":"ce_capacity","t":`), that key's value, each
/// further field after its pre-quoted [`key!`], then [`Line::close`].
/// The bytes are [`JsonObject`]'s for the same fields, but no key is
/// escaped or checked for a comma at run time, so a key is a literal
/// that needs no escaping.
pub(crate) struct Line<'a>(&'a mut String);

impl<'a> Line<'a> {
    pub(crate) fn open(out: &'a mut String, head: &str) -> Self {
        out.push_str(head);
        Line(out)
    }

    /// The value of the head's own key: `micros` as seconds.
    pub(crate) fn secs(self, micros: u64) -> Self {
        push_micros_as_secs(self.0, micros);
        self
    }

    pub(crate) fn str(self, key: &str, v: &str) -> Self {
        self.0.push_str(key);
        self.0.push('"');
        push_escaped(self.0, v);
        self.0.push('"');
        self
    }

    pub(crate) fn uint(self, key: &str, v: u64) -> Self {
        self.0.push_str(key);
        push_u64(self.0, v);
        self
    }

    pub(crate) fn num(self, key: &str, v: f64) -> Self {
        self.0.push_str(key);
        push_num(self.0, v);
        self
    }

    pub(crate) fn bool(self, key: &str, v: bool) -> Self {
        self.0.push_str(key);
        self.0.push_str(if v { "true" } else { "false" });
        self
    }

    pub(crate) fn close(self) {
        self.0.push('}');
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
        let mut cur = Cursor::new(text);
        let value = tree(&mut cur)?;
        cur.end()?;
        Ok(value)
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
        self.as_f64().and_then(exact_u64)
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

/// `n` as an integer when it is one exactly: integral, non-negative and
/// no larger than 2^53, the range in which an `f64` is exact.
fn exact_u64(n: f64) -> Option<u64> {
    const MAX_EXACT: f64 = (1u64 << 53) as f64;
    (n.fract() == 0.0 && (0.0..=MAX_EXACT).contains(&n)).then_some(n as u64)
}

/// Build the tree of the value at the cursor.
fn tree(cur: &mut Cursor<'_>) -> Result<JsonValue, String> {
    Ok(match cur.kind()? {
        Kind::Object => {
            let mut fields = Vec::new();
            cur.fields(|cur, key| {
                fields.push((key.to_owned(), tree(cur)?));
                Ok(())
            })?;
            JsonValue::Object(fields)
        }
        Kind::Array => {
            let mut items = Vec::new();
            cur.items(|cur| {
                items.push(tree(cur)?);
                Ok(())
            })?;
            JsonValue::Array(items)
        }
        Kind::String => JsonValue::String(cur.string()?.into_owned()),
        Kind::Number => JsonValue::Number(cur.number()?),
        Kind::True => JsonValue::Bool(true),
        Kind::False => JsonValue::Bool(false),
        Kind::Null => JsonValue::Null,
    })
}

/// What the next value is. A literal is consumed when it is classified;
/// the other kinds are read by the method of their name.
#[derive(Clone, Copy)]
enum Kind {
    Object,
    Array,
    String,
    Number,
    True,
    False,
    Null,
}

/// A pull reader over one JSON document: the crate's one byte-level
/// JSON reader. [`JsonValue::parse`] builds a tree with it; a decoder
/// that knows its document's shape reads the values it wants straight
/// off it, without one.
///
/// Every read checks the full grammar, the nesting bound and the error
/// texts of [`JsonValue::parse`]. A typed read ([`Cursor::object`],
/// [`Cursor::array`], [`Cursor::str`], [`Cursor::u64`]) given a value of
/// another kind validates and skips it, and says so (`false`, `None`),
/// so a decoder treats a mistyped field as an absent one, as the tree's
/// `*_at` accessors do. `Err` is always a syntax error.
pub(crate) struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Cursor {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// Finish the document: only whitespace may follow the value read.
    pub(crate) fn end(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(format!("trailing data at byte {}", self.pos));
        }
        Ok(())
    }

    /// Read an object, calling `field` with each key in document order
    /// (duplicates included); `field` must read or skip the value.
    /// `false` when the value is not an object.
    pub(crate) fn object(
        &mut self,
        field: impl FnMut(&mut Self, &str) -> Result<(), String>,
    ) -> Result<bool, String> {
        match self.kind()? {
            Kind::Object => self.fields(field).map(|()| true),
            kind => self.skip_kind(kind).map(|()| false),
        }
    }

    /// Read an array, calling `item` once per element, which it must
    /// read or skip. `false` when the value is not an array.
    pub(crate) fn array(
        &mut self,
        item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<bool, String> {
        match self.kind()? {
            Kind::Array => self.items(item).map(|()| true),
            kind => self.skip_kind(kind).map(|()| false),
        }
    }

    /// Read a string, borrowed from the document when it holds no
    /// escape. `None` when the value is not a string.
    pub(crate) fn str(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        match self.kind()? {
            Kind::String => self.string().map(Some),
            kind => self.skip_kind(kind).map(|()| None),
        }
    }

    /// Read a number that is an exact non-negative integer (the rule of
    /// [`JsonValue::as_u64`]). `None` for any other value.
    pub(crate) fn u64(&mut self) -> Result<Option<u64>, String> {
        match self.kind()? {
            Kind::Number => self.number().map(exact_u64),
            kind => self.skip_kind(kind).map(|()| None),
        }
    }

    /// Validate the next value and step over it.
    pub(crate) fn skip(&mut self) -> Result<(), String> {
        let kind = self.kind()?;
        self.skip_kind(kind)
    }

    fn skip_kind(&mut self, kind: Kind) -> Result<(), String> {
        match kind {
            Kind::Object => self.fields(|cur, _| cur.skip()),
            Kind::Array => self.items(Self::skip),
            Kind::String => self.string().map(drop),
            Kind::Number => self.number().map(drop),
            Kind::True | Kind::False | Kind::Null => Ok(()),
        }
    }

    fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn kind(&mut self) -> Result<Kind, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => Ok(Kind::Object),
            Some(b'[') => Ok(Kind::Array),
            Some(b'"') => Ok(Kind::String),
            Some(b't') => self.literal("true", Kind::True),
            Some(b'f') => self.literal("false", Kind::False),
            Some(b'n') => self.literal("null", Kind::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(Kind::Number),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, text: &str, kind: Kind) -> Result<Kind, String> {
        if self.text.as_bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(kind)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// Open one more level of nesting around `read`.
    fn nested(&mut self, read: impl FnOnce(&mut Self) -> Result<(), String>) -> Result<(), String> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_JSON_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let read = read(self);
        self.depth -= 1;
        read
    }

    fn number(&mut self) -> Result<f64, String> {
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
        // Every byte scanned is ASCII, so both ends are char boundaries.
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }

    /// The four hex digits of a `\u` escape starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self
            .text
            .as_bytes()
            .get(at..at + 4)
            .ok_or("truncated \\u escape")?;
        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_string())?;
        u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape `{hex}`"))
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut out: Option<String> = None;
        loop {
            // Take the run up to the next delimiter in one piece. Both
            // delimiters are ASCII, so a run of the (valid UTF-8) text
            // ends on a char boundary.
            let rest = &self.text.as_bytes()[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            let text = &self.text[self.pos..self.pos + run];
            self.pos += run + 1;
            if rest[run] == b'"' {
                return Ok(match out {
                    None => Cow::Borrowed(text),
                    Some(mut out) => {
                        out.push_str(text);
                        Cow::Owned(out)
                    }
                });
            }
            let out = out.get_or_insert_with(String::new);
            out.push_str(text);
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
                        && self.text.as_bytes().get(self.pos + 1..self.pos + 3) == Some(b"\\u")
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

    /// The elements of the array at the cursor, each handed to `item`.
    fn items(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.nested(|cur| {
            cur.expect(b'[')?;
            cur.skip_ws();
            if cur.peek() == Some(b']') {
                cur.pos += 1;
                return Ok(());
            }
            loop {
                item(cur)?;
                cur.skip_ws();
                match cur.peek() {
                    Some(b',') => cur.pos += 1,
                    Some(b']') => {
                        cur.pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", cur.pos)),
                }
            }
        })
    }

    /// The fields of the object at the cursor, each key handed to
    /// `field` with the cursor at its value.
    fn fields(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.nested(|cur| {
            cur.expect(b'{')?;
            cur.skip_ws();
            if cur.peek() == Some(b'}') {
                cur.pos += 1;
                return Ok(());
            }
            loop {
                cur.skip_ws();
                let key = cur.string()?;
                cur.skip_ws();
                cur.expect(b':')?;
                field(cur, &key)?;
                cur.skip_ws();
                match cur.peek() {
                    Some(b',') => cur.pos += 1,
                    Some(b'}') => {
                        cur.pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", cur.pos)),
                }
            }
        })
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
    fn hex_is_written_as_format_writes_it() {
        for v in [0, 1, 0xabc, 0x7ff8_0000_0000_0000, u64::MAX] {
            let mut out = String::new();
            push_hex16(&mut out, v);
            assert_eq!(out, format!("{v:016x}"));
        }
    }

    #[test]
    fn integers_are_written_as_format_writes_them() {
        for v in [0, 9, 10, 99, 100, 1_000_007, u64::MAX] {
            let mut out = String::new();
            push_u64(&mut out, v);
            assert_eq!(out, format!("{v}"));
        }
        for v in [0, -1, 42, -10, i64::MIN, i64::MAX] {
            let mut out = String::new();
            push_i64(&mut out, v);
            assert_eq!(out, format!("{v}"));
        }
        let o = JsonObject::new().uint("u", u64::MAX).int("i", i64::MIN);
        assert_eq!(
            o.finish(),
            "{\"u\":18446744073709551615,\"i\":-9223372036854775808}"
        );
    }

    /// The exact-decimal time writer against the float it replaces.
    fn assert_micros_match(micros: u64) {
        let mut exact = String::new();
        push_micros_as_secs(&mut exact, micros);
        let mut float = String::new();
        push_num(&mut float, micros as f64 / 1e6);
        assert_eq!(exact, float, "{micros} µs");
    }

    #[test]
    fn micros_are_written_as_the_float_seconds_would_be() {
        for micros in 0..1_000_000 {
            assert_micros_match(micros);
        }
        // A seeded sample of the exact range, spread over its magnitudes.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..200_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let magnitude = 10u64.pow((x % 16) as u32);
            assert_micros_match((x >> 8) % magnitude);
        }
        // Both sides of the fallback to the float.
        for micros in EXACT_MICROS - 2_000..EXACT_MICROS + 2_000 {
            assert_micros_match(micros);
        }
        assert_micros_match(u64::MAX);
        let o = JsonObject::new().micros_as_secs("t", 1_500_000);
        assert_eq!(o.finish(), "{\"t\":1.5}");
    }

    #[test]
    fn an_object_appends_to_a_buffer_and_hands_it_back() {
        let line = JsonObject::append_to("x".to_string()).uint("a", 1).finish();
        assert_eq!(line, "x{\"a\":1}");
        assert_eq!(JsonObject::append_to(String::new()).finish(), "{}");
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
    fn the_cursor_reads_typed_values_and_skips_the_rest() {
        let doc = r#" {"a":"plain","b":"esc\"aped","a":7,"n":[1,{"x":null}],"k":5} "#;
        let mut cur = Cursor::new(doc);
        let mut seen = Vec::new();
        let is_object = cur
            .object(|cur, key| {
                let read = match key {
                    "a" | "b" => match cur.str()? {
                        Some(Cow::Borrowed(s)) => format!("borrowed {s}"),
                        Some(Cow::Owned(s)) => format!("owned {s}"),
                        None => "not a string".to_string(),
                    },
                    "n" => format!("{:?}", cur.u64()?),
                    _ => format!("{:?}", cur.u64()?),
                };
                seen.push(format!("{key}: {read}"));
                Ok(())
            })
            .unwrap();
        cur.end().unwrap();
        assert!(is_object);
        assert_eq!(
            seen,
            [
                "a: borrowed plain",
                "b: owned esc\"aped",
                "a: not a string",
                "n: None",
                "k: Some(5)"
            ]
        );
        // A typed read of another kind validates what it skips.
        let mut cur = Cursor::new("[1,{\"x\":tru}]");
        assert_eq!(
            cur.object(|_, _| Ok(())).unwrap_err(),
            "bad literal at byte 8"
        );
        let mut cur = Cursor::new("[1] 2");
        assert_eq!(cur.array(Cursor::skip), Ok(true));
        assert_eq!(cur.end().unwrap_err(), "trailing data at byte 4");
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
