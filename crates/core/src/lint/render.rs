//! Diagnostic renderers: rustc-style human output and a JSON codec.
//!
//! The JSON side is a *codec*, not just an exporter:
//! [`report_from_json`] reads `moteur lint --json` output back into a
//! [`LintReport`] through the workspace parser
//! ([`crate::obs::json::JsonValue`]) — which is also how the test suite
//! proves the output is well-formed.

use crate::lint::diag::{Diagnostic, Label, LintReport, Severity};
use crate::lint::rules::docs::RULE_DOCS;
use crate::obs::json::{array, JsonObject, JsonValue};
use moteur_xml::{LineIndex, Span};
use std::fmt::Write as _;

/// Intern `code` against [`RULE_DOCS`], the one list of rule codes, so
/// [`Diagnostic::code`] can stay `&'static str` through a JSON round
/// trip.
pub fn intern_code(code: &str) -> Option<&'static str> {
    RULE_DOCS.iter().map(|d| d.code).find(|c| *c == code)
}

// ---------------------------------------------------------------------
// Human renderer
// ---------------------------------------------------------------------

/// Render the whole report the way rustc would: one block per
/// diagnostic with source snippets and carets when `source` is
/// available, followed by a summary line.
pub fn render_human(report: &LintReport, path: &str, source: Option<&str>) -> String {
    let mut out = String::new();
    let lines = source.map(LineIndex::new);
    for d in &report.diagnostics {
        render_diagnostic(&mut out, d, path, lines.as_ref());
        out.push('\n');
    }
    let _ = writeln!(out, "{}: {}", path, report.summary());
    out
}

fn render_diagnostic(out: &mut String, d: &Diagnostic, path: &str, lines: Option<&LineIndex>) {
    let _ = writeln!(out, "{}[{}]: {}", d.severity, d.code, d.message);
    for label in &d.labels {
        render_label(out, label, path, lines);
    }
    if let Some(help) = &d.help {
        let _ = writeln!(out, "  = help: {help}");
    }
}

fn render_label(out: &mut String, label: &Label, path: &str, lines: Option<&LineIndex>) {
    if label.span.is_empty() {
        if !label.message.is_empty() {
            let _ = writeln!(out, "  = note: {}", label.message);
        }
        return;
    }
    let Some(lines) = lines else {
        let _ = writeln!(
            out,
            "  --> {path}:@{}..{}: {}",
            label.span.start, label.span.end, label.message
        );
        return;
    };
    let (line, col) = lines.line_col(label.span.start);
    let _ = writeln!(out, "  --> {path}:{line}:{col}");
    // The full source line containing the span start.
    let source = lines.source();
    let start = label.span.start.min(source.len());
    let (_, range) = lines.line(start);
    let (line_start, line_end) = (range.start, range.end);
    let text = &source[line_start..line_end];
    let gutter = line.to_string().len().max(2);
    let _ = writeln!(out, "{:gutter$} |", "");
    let _ = writeln!(out, "{line:>gutter$} | {text}");
    // Caret row: primary labels get `^`, secondary `-`.
    let pad = source[line_start..start].chars().count();
    // At least one mark, counted in characters: an empty span before a
    // multi-byte character still gets its caret.
    let end = label.span.end.clamp(start, line_end);
    let marks = source[start..end].chars().count().max(1);
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
// JSON import
// ---------------------------------------------------------------------

/// Rebuild a [`LintReport`] from `moteur lint --json` output.
pub fn report_from_json(text: &str) -> Result<LintReport, String> {
    let root = JsonValue::parse(text)?;
    let diags = root
        .array_at("diagnostics")
        .ok_or("missing `diagnostics` array")?;
    let mut report = LintReport::default();
    for d in diags {
        let code = d.str_at("code").ok_or("diagnostic without `code`")?;
        let code = intern_code(code).ok_or_else(|| format!("unknown rule code `{code}`"))?;
        let severity = d
            .str_at("severity")
            .and_then(Severity::from_name)
            .ok_or("diagnostic without a valid `severity`")?;
        let message = d.str_at("message").ok_or("diagnostic without `message`")?;
        let mut diag = Diagnostic::new(code, severity, message);
        for l in d.array_at("labels").unwrap_or_default() {
            let start = l.u64_at("start").ok_or("label without `start`")?;
            let end = l.u64_at("end").ok_or("label without `end`")?;
            diag.labels.push(Label {
                span: Span::new(start as usize, end as usize),
                message: l.str_at("message").unwrap_or_default().to_string(),
                primary: l.bool_at("primary").unwrap_or(false),
            });
        }
        diag.help = d.str_at("help").map(str::to_string);
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
    fn an_empty_span_before_a_multibyte_character_gets_one_caret() {
        let source = "<scufl x=\u{e9}/>\n";
        let at = source.find('\u{e9}').unwrap();
        let mut r = LintReport::default();
        r.push(
            Diagnostic::error("M000", "expected a quoted attribute value")
                .primary(Span::new(at, at), "XML does not parse beyond this point"),
        );
        let text = render_human(&r, "wf.xml", Some(source));
        assert!(text.contains("--> wf.xml:1:10"), "{text}");
        assert!(
            text.contains("|          ^ XML does not parse beyond this point"),
            "{text}"
        );
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
