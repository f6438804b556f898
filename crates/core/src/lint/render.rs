//! Diagnostic renderers: rustc-style human output and a JSON codec.
//!
//! The JSON side is a *codec*, not just an exporter: because the
//! workspace is hermetic (no serde), [`report_from_json`] hand-rolls a
//! small JSON parser so `moteur lint --json` output round-trips back
//! into a [`LintReport`] — which is also how the test suite proves the
//! output is well-formed.

use crate::lint::diag::{Diagnostic, Label, LintReport, Severity};
use crate::obs::json::{array, JsonObject};
use moteur_xml::Span;
use std::fmt::Write as _;

/// Every rule code the suite can emit. JSON input is interned against
/// this table so [`Diagnostic::code`] can stay `&'static str`.
pub const KNOWN_CODES: &[&str] = &[
    "M000", "M001", "M002", "M003", "M004", "M005", "M006", "M007", "M008", "M010", "M011", "M012",
    "M013", "M014", "M020", "M021", "M030", "M031", "M040", "M041", "M042", "M050", "M051", "M060",
    "M061", "M062", "M063", "M064", "M070", "M080", "M081", "M082", "M083", "M084", "M085",
];

/// Intern `code` against [`KNOWN_CODES`].
pub fn intern_code(code: &str) -> Option<&'static str> {
    KNOWN_CODES.iter().copied().find(|c| *c == code)
}

// ---------------------------------------------------------------------
// Human renderer
// ---------------------------------------------------------------------

/// Render the whole report the way rustc would: one block per
/// diagnostic with source snippets and carets when `source` is
/// available, followed by a summary line.
pub fn render_human(report: &LintReport, path: &str, source: Option<&str>) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        render_diagnostic(&mut out, d, path, source);
        out.push('\n');
    }
    let _ = writeln!(out, "{}: {}", path, report.summary());
    out
}

fn render_diagnostic(out: &mut String, d: &Diagnostic, path: &str, source: Option<&str>) {
    let _ = writeln!(out, "{}[{}]: {}", d.severity, d.code, d.message);
    for label in &d.labels {
        render_label(out, label, path, source);
    }
    if let Some(help) = &d.help {
        let _ = writeln!(out, "  = help: {help}");
    }
}

fn render_label(out: &mut String, label: &Label, path: &str, source: Option<&str>) {
    if label.span.is_empty() {
        if !label.message.is_empty() {
            let _ = writeln!(out, "  = note: {}", label.message);
        }
        return;
    }
    let Some(source) = source else {
        let _ = writeln!(
            out,
            "  --> {path}:@{}..{}: {}",
            label.span.start, label.span.end, label.message
        );
        return;
    };
    let (line, col) = label.span.line_col(source);
    let _ = writeln!(out, "  --> {path}:{line}:{col}");
    // The full source line containing the span start.
    let start = label.span.start.min(source.len());
    let line_start = source[..start].rfind('\n').map_or(0, |i| i + 1);
    let line_end = source[start..]
        .find('\n')
        .map_or(source.len(), |i| start + i);
    let text = &source[line_start..line_end];
    let gutter = line.to_string().len().max(2);
    let _ = writeln!(out, "{:gutter$} |", "");
    let _ = writeln!(out, "{line:>gutter$} | {text}");
    // Caret row: primary labels get `^`, secondary `-`.
    let pad = source[line_start..start].chars().count();
    let span_on_line = label.span.end.min(line_end).saturating_sub(start).max(1);
    let marks = source[start..(start + span_on_line).min(line_end.max(start))]
        .chars()
        .count()
        .max(1);
    let mark = if label.primary { '^' } else { '-' };
    let _ = writeln!(
        out,
        "{:gutter$} | {:pad$}{} {}",
        "",
        "",
        mark.to_string().repeat(marks),
        label.message
    );
}

// ---------------------------------------------------------------------
// JSON export
// ---------------------------------------------------------------------

/// Serialise the report to a single-line JSON object.
pub fn report_to_json(report: &LintReport) -> String {
    let diags = report.diagnostics.iter().map(|d| {
        let labels = d.labels.iter().map(|l| {
            JsonObject::new()
                .uint("start", l.span.start as u64)
                .uint("end", l.span.end as u64)
                .bool("primary", l.primary)
                .str("message", &l.message)
                .finish()
        });
        let mut obj = JsonObject::new()
            .str("code", d.code)
            .str("severity", d.severity.name())
            .str("message", &d.message)
            .raw("labels", &array(labels));
        if let Some(help) = &d.help {
            obj = obj.str("help", help);
        }
        obj.finish()
    });
    JsonObject::new()
        .raw("diagnostics", &array(diags))
        .uint("errors", report.errors() as u64)
        .uint("warnings", report.warnings() as u64)
        .uint("notes", report.notes() as u64)
        .str("summary", &report.summary())
        .finish()
}

// ---------------------------------------------------------------------
// JSON import (hand-rolled parser — the workspace has no serde)
// ---------------------------------------------------------------------

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

    /// The numeric payload as a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_f64()
            .filter(|n| n.fract() == 0.0 && *n >= 0.0)
            .map(|n| n as usize)
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

/// Rebuild a [`LintReport`] from `moteur lint --json` output.
pub fn report_from_json(text: &str) -> Result<LintReport, String> {
    let root = JsonValue::parse(text)?;
    let diags = root
        .get("diagnostics")
        .and_then(JsonValue::as_array)
        .ok_or("missing `diagnostics` array")?;
    let mut report = LintReport::default();
    for d in diags {
        let code = d
            .get("code")
            .and_then(JsonValue::as_str)
            .ok_or("diagnostic without `code`")?;
        let code = intern_code(code).ok_or_else(|| format!("unknown rule code `{code}`"))?;
        let severity = d
            .get("severity")
            .and_then(JsonValue::as_str)
            .and_then(Severity::from_name)
            .ok_or("diagnostic without a valid `severity`")?;
        let message = d
            .get("message")
            .and_then(JsonValue::as_str)
            .ok_or("diagnostic without `message`")?
            .to_string();
        let mut diag = Diagnostic::new(code, severity, message);
        if let Some(labels) = d.get("labels").and_then(JsonValue::as_array) {
            for l in labels {
                let start = l
                    .get("start")
                    .and_then(JsonValue::as_usize)
                    .ok_or("label without `start`")?;
                let end = l
                    .get("end")
                    .and_then(JsonValue::as_usize)
                    .ok_or("label without `end`")?;
                diag.labels.push(Label {
                    span: Span::new(start, end),
                    message: l
                        .get("message")
                        .and_then(JsonValue::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    primary: l
                        .get("primary")
                        .and_then(JsonValue::as_bool)
                        .unwrap_or(false),
                });
            }
        }
        if let Some(help) = d.get("help").and_then(JsonValue::as_str) {
            diag.help = Some(help.to_string());
        }
        report.push(diag);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LintReport {
        let mut r = LintReport::default();
        r.push(
            Diagnostic::error("M010", "input port `in` of `A` is not connected")
                .primary(Span::new(10, 20), "declared here")
                .secondary(Span::new(2, 5), "workflow starts here")
                .with_help("add a <link/>"),
        );
        r.push(Diagnostic::note("M030", "grouping opportunity"));
        r
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        let json = report_to_json(&r);
        let back = report_from_json(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn json_rejects_unknown_codes() {
        let json = r#"{"diagnostics":[{"code":"X999","severity":"error","message":"m"}]}"#;
        assert!(report_from_json(json).unwrap_err().contains("X999"));
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
    fn human_render_draws_carets_into_the_source() {
        let source = "<scufl>\n  <processor name=\"A\"/>\n</scufl>\n";
        let span_start = source.find("<processor").unwrap();
        let span = Span::new(span_start, span_start + "<processor".len());
        let mut r = LintReport::default();
        r.push(
            Diagnostic::error("M008", "service `A` has no binding")
                .primary(span, "declared here")
                .with_help("bind it"),
        );
        let text = render_human(&r, "wf.xml", Some(source));
        assert!(text.contains("error[M008]: service `A` has no binding"));
        assert!(text.contains("--> wf.xml:2:3"));
        assert!(text.contains("<processor name=\"A\"/>"));
        assert!(text.contains("^^^^^^^^^^ declared here"));
        assert!(text.contains("= help: bind it"));
        assert!(text.contains("wf.xml: 1 error"));
    }

    #[test]
    fn human_render_without_source_falls_back_to_offsets() {
        let mut r = LintReport::default();
        r.push(Diagnostic::warning("M011", "w").primary(Span::new(3, 7), "here"));
        let text = render_human(&r, "wf.xml", None);
        assert!(text.contains("@3..7"));
    }

    #[test]
    fn intern_covers_every_emitted_code() {
        assert_eq!(intern_code("M001"), Some("M001"));
        assert_eq!(intern_code("M999"), None);
    }

    /// Regression for the `--json` stability contract: the sorted report
    /// serializes to the *same bytes* regardless of rule execution order,
    /// so CI diffs of lint output never churn.
    #[test]
    fn sorted_json_is_byte_stable_under_push_order() {
        let diags = [
            Diagnostic::note("M030", "grouping opportunity").primary(Span::new(40, 50), "here"),
            Diagnostic::error("M010", "port not connected").primary(Span::new(10, 20), "here"),
            Diagnostic::warning("M020", "dot truncates").primary(Span::new(10, 20), "here"),
            Diagnostic::warning("M011", "port fed twice").primary(Span::new(10, 20), "here"),
            Diagnostic::error("M002", "unreachable"),
        ];
        let mut forward = LintReport::new(diags.to_vec());
        let mut backward = LintReport::new(diags.iter().rev().cloned().collect());
        forward.sort();
        backward.sort();
        let json = report_to_json(&forward);
        assert_eq!(json.as_bytes(), report_to_json(&backward).as_bytes());
        // Span, then severity (errors first), then code — the documented order.
        let codes: Vec<&str> = forward.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, ["M002", "M010", "M011", "M020", "M030"]);
    }
}
