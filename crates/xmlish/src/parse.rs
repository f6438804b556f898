//! Recursive-descent parser over a byte-offset cursor.
//!
//! The cursor is the input and one byte offset into it. Text, attribute
//! values, comments and CDATA are scanned over byte slices, and each
//! run is copied out whole. Every parse failure is a typed
//! [`XmlErrorKind`] at the byte offset where it was detected, and its
//! line and column come from that offset ([`Span::line_col`]) when the
//! error is built. Every parsed element/attribute is annotated with its
//! byte [`Span`] — the raw material for the lint engine's
//! source-anchored diagnostics.

use crate::ast::{Element, Node};
use crate::error::{Position, Span, XmlError, XmlErrorKind};

/// The deepest element nesting [`parse`] accepts: the root is level 1,
/// and an element opened below level `MAX_XML_DEPTH` is a
/// [`XmlErrorKind::TooDeep`] at its `<`. The parser recurses once per
/// level, so without a bound one hostile document overflows the stack.
pub const MAX_XML_DEPTH: usize = 128;

/// Parse a complete document and return its root element.
///
/// Leading XML declarations, processing instructions and comments are
/// skipped; trailing content other than whitespace/comments is an error.
pub fn parse(input: &str) -> Result<Element, XmlError> {
    let mut cur = Cursor { input, pos: 0 };
    cur.skip_misc();
    let root = cur.parse_element(1)?;
    cur.skip_misc();
    if !cur.at_end() {
        return Err(cur.error(XmlErrorKind::ContentAfterRoot));
    }
    Ok(root)
}

struct Cursor<'a> {
    input: &'a str,
    /// Byte offset into `input`, always on a `char` boundary.
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// An error at byte `offset`. Only here is the offset turned into a
    /// line and column: a parse that succeeds never counts lines.
    fn error_at(&self, offset: usize, kind: XmlErrorKind) -> XmlError {
        let (line, column) = Span::new(offset, offset).line_col(self.input);
        XmlError::new(
            Position {
                line,
                column,
                offset,
            },
            kind,
        )
    }

    fn error(&self, kind: XmlErrorKind) -> XmlError {
        self.error_at(self.pos, kind)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    fn eat(&mut self, s: &str) -> bool {
        let found = self.starts_with(s);
        if found {
            self.pos += s.len();
        }
        found
    }

    fn expect(&mut self, s: &str) -> Result<(), XmlError> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.error(XmlErrorKind::Expected { what: s.into() }))
        }
    }

    fn skip_whitespace(&mut self) {
        let rest = self.rest();
        self.pos += rest.len() - rest.trim_start().len();
    }

    /// Skip whitespace, comments, XML declarations and processing
    /// instructions — the "misc" productions allowed around the root.
    fn skip_misc(&mut self) {
        loop {
            self.skip_whitespace();
            if self.starts_with("<!--") {
                // A comment may legally contain anything except `--`.
                if self.skip_until("-->").is_err() {
                    return; // unterminated; the element parser will report it
                }
            } else if self.starts_with("<?") {
                if self.skip_until("?>").is_err() {
                    return;
                }
            } else {
                return;
            }
        }
    }

    /// Move past the next `end`, or to the end of the input if none.
    fn skip_until(&mut self, end: &str) -> Result<(), ()> {
        match self.rest().find(end) {
            Some(at) => {
                self.pos += at + end.len();
                Ok(())
            }
            None => {
                self.pos = self.input.len();
                Err(())
            }
        }
    }

    /// [`Self::skip_until`] inside an element, where a missing `end`
    /// leaves `construct` unterminated at the end of the input.
    fn skip_past(&mut self, end: &str, construct: &'static str) -> Result<(), XmlError> {
        self.skip_until(end)
            .map_err(|()| self.error(XmlErrorKind::Unterminated { construct }))
    }

    /// Append the input up to the next byte in `stops` (all ASCII, so
    /// the cut is a `char` boundary), or up to its end, to `out`.
    fn copy_until(&mut self, out: &mut String, stops: &[u8]) {
        let rest = self.rest();
        let len = rest
            .bytes()
            .position(|b| stops.contains(&b))
            .unwrap_or(rest.len());
        out.push_str(&rest[..len]);
        self.pos += len;
    }

    fn parse_name(&mut self) -> Result<&'a str, XmlError> {
        let rest = self.rest();
        if !rest.starts_with(is_name_start) {
            return Err(self.error(XmlErrorKind::ExpectedName));
        }
        let len = rest.find(|c| !is_name_char(c)).unwrap_or(rest.len());
        self.pos += len;
        Ok(&rest[..len])
    }

    /// Parse one element at nesting level `depth` (the root is 1).
    fn parse_element(&mut self, depth: usize) -> Result<Element, XmlError> {
        if depth > MAX_XML_DEPTH {
            return Err(self.error(XmlErrorKind::TooDeep {
                limit: MAX_XML_DEPTH,
            }));
        }
        let open_start = self.pos;
        self.expect("<")?;
        let mut element = Element::new(self.parse_name()?);

        // Attributes.
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some('>') | Some('/') => break,
                Some(c) if is_name_start(c) => {
                    let attr_start = self.pos;
                    let attr = self.parse_name()?;
                    self.skip_whitespace();
                    self.expect("=")?;
                    self.skip_whitespace();
                    let value = self.parse_attr_value()?;
                    if element.attr(attr).is_some() {
                        return Err(self.error_at(
                            attr_start,
                            XmlErrorKind::DuplicateAttribute { name: attr.into() },
                        ));
                    }
                    element.attributes.push((attr.into(), value));
                    element.attr_spans.push(Span::new(attr_start, self.pos));
                }
                _ => return Err(self.error(XmlErrorKind::ExpectedAttribute)),
            }
        }

        if self.eat("/>") {
            element.span = Span::new(open_start, self.pos);
            return Ok(element);
        }
        self.expect(">")?;
        self.parse_content(&mut element, depth)?;
        element.span = Span::new(open_start, self.pos);
        Ok(element)
    }

    fn parse_attr_value(&mut self) -> Result<String, XmlError> {
        let Some(quote @ ('"' | '\'')) = self.peek() else {
            return Err(self.error(XmlErrorKind::ExpectedAttrValue));
        };
        self.pos += 1;
        let mut value = String::new();
        loop {
            self.copy_until(&mut value, &[quote as u8, b'<', b'&']);
            match self.peek() {
                None => return Err(self.error(XmlErrorKind::UnterminatedAttrValue)),
                Some('<') => return Err(self.error(XmlErrorKind::AngleInAttrValue)),
                Some('&') => value.push(self.parse_reference()?),
                Some(_) => {
                    self.pos += 1; // the closing quote
                    return Ok(value);
                }
            }
        }
    }

    /// Parse children up to and including the matching end tag.
    fn parse_content(&mut self, element: &mut Element, depth: usize) -> Result<(), XmlError> {
        let mut text = String::new();
        loop {
            if self.at_end() {
                return Err(self.error(XmlErrorKind::UnclosedElement {
                    name: element.name.clone(),
                }));
            }
            if self.eat("</") {
                flush_text(&mut text, element);
                let close_start = self.pos;
                let close = self.parse_name()?;
                if close != element.name {
                    return Err(self.error_at(
                        close_start,
                        XmlErrorKind::MismatchedEndTag {
                            expected: element.name.clone(),
                            found: close.into(),
                        },
                    ));
                }
                self.skip_whitespace();
                return self.expect(">");
            }
            if self.eat("<!--") {
                self.skip_past("-->", "comment")?;
            } else if self.eat("<![CDATA[") {
                let start = self.pos;
                self.skip_past("]]>", "CDATA section")?;
                text.push_str(&self.input[start..self.pos - "]]>".len()]);
            } else if self.eat("<?") {
                self.skip_past("?>", "processing instruction")?;
            } else if self.starts_with("<") {
                flush_text(&mut text, element);
                let child = self.parse_element(depth + 1)?;
                element.children.push(Node::Element(child));
            } else if self.starts_with("&") {
                text.push(self.parse_reference()?);
            } else {
                self.copy_until(&mut text, b"<&");
            }
        }
    }

    /// Parse `&...;` — predefined entity or character reference.
    fn parse_reference(&mut self) -> Result<char, XmlError> {
        let start = self.pos;
        self.expect("&")?;
        let rest = self.rest();
        let len = rest
            .find(|c: char| c == ';' || c.is_whitespace())
            .unwrap_or(rest.len());
        let body = &rest[..len];
        self.pos += len;
        if !self.eat(";") {
            return Err(self.error_at(start, XmlErrorKind::UnterminatedReference));
        }
        match body {
            "lt" => Ok('<'),
            "gt" => Ok('>'),
            "amp" => Ok('&'),
            "apos" => Ok('\''),
            "quot" => Ok('"'),
            _ if body.starts_with('#') => {
                let bad = || {
                    self.error_at(
                        start,
                        XmlErrorKind::BadCharacterReference { body: body.into() },
                    )
                };
                let (digits, radix) = match body[1..].strip_prefix(['x', 'X']) {
                    Some(hex) => (hex, 16),
                    None => (&body[1..], 10),
                };
                // `CharRef` is digits only; `from_str_radix` alone would
                // also take a leading `+`.
                if digits.starts_with('+') {
                    return Err(bad());
                }
                let code = u32::from_str_radix(digits, radix).map_err(|_| bad())?;
                char::from_u32(code)
                    .ok_or_else(|| self.error_at(start, XmlErrorKind::CharacterOutOfRange { code }))
            }
            other => Err(self.error_at(start, XmlErrorKind::UnknownEntity { name: other.into() })),
        }
    }
}

/// Append accumulated text as a child node unless it is pure
/// inter-element whitespace.
fn flush_text(text: &mut String, element: &mut Element) {
    if !text.is_empty() {
        if !text.chars().all(char::is_whitespace) {
            element.children.push(Node::Text(std::mem::take(text)));
        } else {
            text.clear();
        }
    }
}

fn is_name_start(c: char) -> bool {
    c.is_alphabetic() || c == '_' || c == ':'
}

fn is_name_char(c: char) -> bool {
    is_name_start(c) || c.is_ascii_digit() || c == '-' || c == '.'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_empty_element() {
        let e = parse("<a/>").unwrap();
        assert_eq!(e, Element::new("a"));
    }

    #[test]
    fn parses_attributes_both_quote_styles() {
        let e = parse(r#"<a x="1" y='two'/>"#).unwrap();
        assert_eq!(e.attr("x"), Some("1"));
        assert_eq!(e.attr("y"), Some("two"));
    }

    #[test]
    fn parses_nested_elements_and_text() {
        let e = parse("<a><b>hello</b><c/></a>").unwrap();
        assert_eq!(e.child("b").unwrap().text(), "hello");
        assert!(e.child("c").is_some());
    }

    #[test]
    fn interelement_whitespace_is_dropped() {
        let e = parse("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(e.children.len(), 2);
    }

    #[test]
    fn significant_text_is_kept() {
        let e = parse("<a> x <b/> y </a>").unwrap();
        assert_eq!(e.children.len(), 3);
        assert_eq!(e.children[0].as_text(), Some(" x "));
    }

    #[test]
    fn decodes_predefined_entities_in_text_and_attrs() {
        let e = parse(r#"<a v="&lt;&amp;&gt;">&quot;&apos;</a>"#).unwrap();
        assert_eq!(e.attr("v"), Some("<&>"));
        assert_eq!(e.text(), "\"'");
    }

    #[test]
    fn decodes_character_references() {
        let e = parse("<a>&#65;&#x42;</a>").unwrap();
        assert_eq!(e.text(), "AB");
    }

    #[test]
    fn skips_xml_declaration_and_comments() {
        let e =
            parse("<?xml version=\"1.0\"?>\n<!-- hi -->\n<a><!-- inner --><b/></a>\n<!-- bye -->")
                .unwrap();
        assert_eq!(e.children.len(), 1);
    }

    #[test]
    fn cdata_is_literal_text() {
        let e = parse("<a><![CDATA[<not> & parsed]]></a>").unwrap();
        assert_eq!(e.text(), "<not> & parsed");
    }

    #[test]
    fn rejects_mismatched_end_tag() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(
            matches!(
                &err.kind,
                XmlErrorKind::MismatchedEndTag { expected, found }
                    if expected == "b" && found == "a"
            ),
            "{err}"
        );
    }

    #[test]
    fn rejects_unclosed_element() {
        let err = parse("<a><b/>").unwrap_err();
        assert!(
            matches!(&err.kind, XmlErrorKind::UnclosedElement { name } if name == "a"),
            "{err}"
        );
        assert_eq!(err.offset(), 7, "error points at end of input");
    }

    #[test]
    fn rejects_duplicate_attribute() {
        let err = parse(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(
            matches!(&err.kind, XmlErrorKind::DuplicateAttribute { name } if name == "x"),
            "{err}"
        );
        assert_eq!(err.offset(), 9, "error points at the second `x`");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert_eq!(
            parse("<a/><b/>").unwrap_err().kind,
            XmlErrorKind::ContentAfterRoot
        );
        assert_eq!(
            parse("<a/>text").unwrap_err().kind,
            XmlErrorKind::ContentAfterRoot
        );
    }

    #[test]
    fn rejects_unknown_entity() {
        let err = parse("<a>&nbsp;</a>").unwrap_err();
        assert!(
            matches!(&err.kind, XmlErrorKind::UnknownEntity { name } if name == "nbsp"),
            "{err}"
        );
        assert_eq!(err.offset(), 3, "error points at the `&`");
    }

    #[test]
    fn rejects_bad_character_reference() {
        // Surrogate code point: numerically valid, not a scalar value.
        let err = parse("<a>&#xD800;</a>").unwrap_err();
        assert!(matches!(
            err.kind,
            XmlErrorKind::CharacterOutOfRange { code: 0xD800 }
        ));
        let err = parse("<a>&#zz;</a>").unwrap_err();
        assert!(matches!(
            err.kind,
            XmlErrorKind::BadCharacterReference { .. }
        ));
    }

    #[test]
    fn a_signed_character_reference_is_refused_at_the_ampersand() {
        for src in ["<a>&#+65;</a>", "<a>&#x+41;</a>", "<a v='&#X+41;'/>"] {
            let err = parse(src).unwrap_err();
            assert!(
                matches!(&err.kind, XmlErrorKind::BadCharacterReference { .. }),
                "{src}: {err}"
            );
            assert_eq!(&src[err.offset()..=err.offset()], "&", "{src}");
        }
        assert_eq!(parse("<a>&#X41;&#x2b;</a>").unwrap().text(), "A+");
    }

    fn nested(depth: usize) -> String {
        "<a>".repeat(depth) + &"</a>".repeat(depth)
    }

    #[test]
    fn nesting_is_bounded_with_a_typed_error_at_the_offending_lt() {
        let e = parse(&nested(MAX_XML_DEPTH)).unwrap();
        assert_eq!(e.element_count(), MAX_XML_DEPTH);
        let err = parse(&nested(MAX_XML_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err.kind,
            XmlErrorKind::TooDeep {
                limit: MAX_XML_DEPTH
            }
        );
        assert_eq!(err.offset(), 3 * MAX_XML_DEPTH, "the deepest `<`");
        assert_eq!(err.position.column as usize, 3 * MAX_XML_DEPTH + 1);
        // Far past the limit it is the same error, not a stack overflow.
        let err = parse(&nested(100_000)).unwrap_err();
        assert_eq!(err.offset(), 3 * MAX_XML_DEPTH);
        // Siblings do not add depth.
        let wide = format!("<a>{}</a>", "<b/>".repeat(10 * MAX_XML_DEPTH));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn error_positions_are_tracked() {
        let err = parse("<a>\n  <b x=></b>\n</a>").unwrap_err();
        assert_eq!(err.position.line, 2);
        assert!(err.position.column > 1);
        // Byte offset points inside line 2 (after the "<a>\n" prefix).
        assert!(err.offset() > 4);
        assert_eq!(&"<a>\n  <b x=></b>\n</a>"[err.offset()..=err.offset()], ">");
    }

    #[test]
    fn names_allow_colon_dash_dot_underscore() {
        let e = parse(r#"<ns:el-em.ent _a-b.c="1"/>"#).unwrap();
        assert_eq!(e.name, "ns:el-em.ent");
        assert_eq!(e.attr("_a-b.c"), Some("1"));
    }

    #[test]
    fn rejects_lt_in_attribute_value() {
        assert_eq!(
            parse(r#"<a v="<"/>"#).unwrap_err().kind,
            XmlErrorKind::AngleInAttrValue
        );
    }

    #[test]
    fn whitespace_allowed_in_end_tag_and_around_eq() {
        let e = parse("<a  x = \"1\" ></a >").unwrap();
        assert_eq!(e.attr("x"), Some("1"));
    }

    #[test]
    fn element_spans_cover_the_source_text() {
        let src = "<a>\n  <b x=\"1\"/>\n  <c>t</c>\n</a>";
        let e = parse(src).unwrap();
        assert_eq!(&src[e.span.start..e.span.end], src, "root spans everything");
        let b = e.child("b").unwrap();
        assert_eq!(&src[b.span.start..b.span.end], "<b x=\"1\"/>");
        let c = e.child("c").unwrap();
        assert_eq!(&src[c.span.start..c.span.end], "<c>t</c>");
    }

    #[test]
    fn attribute_spans_cover_name_and_value() {
        let src = r#"<a first="1" second='two'/>"#;
        let e = parse(src).unwrap();
        let s1 = e.attr_span("first").unwrap();
        assert_eq!(&src[s1.start..s1.end], r#"first="1""#);
        let s2 = e.attr_span("second").unwrap();
        assert_eq!(&src[s2.start..s2.end], "second='two'");
        assert_eq!(e.attr_span("missing"), None);
    }

    #[test]
    fn builder_elements_have_empty_spans() {
        let e = Element::new("a").with_attr("x", "1");
        assert!(e.span.is_empty());
        assert_eq!(e.attr_span("x"), Some(Span::EMPTY));
    }

    #[test]
    fn spans_survive_nesting_depth() {
        let src = "<w><p><q><r/></q></p></w>";
        let e = parse(src).unwrap();
        let r = e.path(&["p", "q", "r"]).unwrap();
        assert_eq!(&src[r.span.start..r.span.end], "<r/>");
        assert_eq!(r.span.line_col(src), (1, 10));
    }

    // Malformed-input regression battery: every failure class returns a
    // typed error with a byte offset inside the input — never a panic.
    #[test]
    fn malformed_inputs_error_with_in_bounds_offsets() {
        let cases: &[&str] = &[
            "",
            "   ",
            "<",
            "<a",
            "<a ",
            "<a x",
            "<a x=",
            "<a x=1/>",
            "<a x=\"1/>",
            "<a x='1/>",
            "<a><b>",
            "<a></b>",
            "<a/><a/>",
            "<a>&",
            "<a>&amp</a>",
            "<a>&#;</a>",
            "<a>&#x;</a>",
            "<a>&#x110000;</a>",
            "<a><!-- never closed",
            "<a><![CDATA[ never closed",
            "<a><? never closed",
            "<a v=\"<\"/>",
            "<1bad/>",
            "<a 1bad=\"x\"/>",
            "<a></a  x>",
            "<a x=\"1\" x=\"2\"/>",
        ];
        for case in cases {
            let err = parse(case).unwrap_err();
            assert!(
                err.offset() <= case.len(),
                "offset {} out of bounds for {case:?}",
                err.offset()
            );
            // The rendered message and position agree with the kind.
            assert!(err.to_string().contains("XML error at"), "{err}");
        }
    }

    #[test]
    fn parses_figure8_descriptor_shape() {
        // Abbreviated version of the paper's Fig. 8 example.
        let doc = parse(
            r#"<description>
                 <executable name="CrestLines.pl">
                   <access type="URL"><path value="http://colors.unice.fr"/></access>
                   <value value="CrestLines.pl"/>
                   <input name="floating_image" option="-im1"><access type="GFN"/></input>
                   <input name="scale" option="-s"/>
                   <output name="crest_reference" option="-c1"><access type="GFN"/></output>
                   <sandbox name="convert8bits">
                     <access type="URL"><path value="http://colors.unice.fr"/></access>
                     <value value="Convert8bits.pl"/>
                   </sandbox>
                 </executable>
               </description>"#,
        )
        .unwrap();
        let exe = doc.child("executable").unwrap();
        assert_eq!(exe.attr("name"), Some("CrestLines.pl"));
        assert_eq!(exe.children_named("input").count(), 2);
        assert_eq!(exe.path(&["access"]).unwrap().attr("type"), Some("URL"));
    }
}
