//! The parser `moteur_xml::parse` replaced, kept as its oracle: a
//! cursor that decodes one `char` at a time and counts lines and
//! columns as it goes. This is `crates/xmlish/src/parse.rs` above its
//! tests as it stood with the signed-reference and depth fixes,
//! verbatim but for this header and its `use` line.

use moteur_xml::{Element, Node, Position, Span, XmlError, XmlErrorKind};

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
    let mut cur = Cursor::new(input);
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
    /// Byte offset into `input`.
    pos: usize,
    line: u32,
    column: u32,
}

impl<'a> Cursor<'a> {
    fn new(input: &'a str) -> Self {
        Cursor {
            input,
            pos: 0,
            line: 1,
            column: 1,
        }
    }

    fn position(&self) -> Position {
        Position {
            line: self.line,
            column: self.column,
            offset: self.pos,
        }
    }

    fn error(&self, kind: XmlErrorKind) -> XmlError {
        XmlError::new(self.position(), kind)
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

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(c)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            for _ in s.chars() {
                self.bump();
            }
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), XmlError> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.error(XmlErrorKind::Expected { what: s.into() }))
        }
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
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

    fn skip_until(&mut self, end: &str) -> Result<(), ()> {
        while !self.at_end() {
            if self.eat(end) {
                return Ok(());
            }
            self.bump();
        }
        Err(())
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        match self.peek() {
            Some(c) if is_name_start(c) => {
                self.bump();
            }
            _ => return Err(self.error(XmlErrorKind::ExpectedName)),
        }
        while matches!(self.peek(), Some(c) if is_name_char(c)) {
            self.bump();
        }
        Ok(self.input[start..self.pos].to_string())
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
        let name = self.parse_name()?;
        let mut element = Element::new(name);

        // Attributes.
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some('>') | Some('/') => break,
                Some(c) if is_name_start(c) => {
                    let attr_pos = self.position();
                    let attr = self.parse_name()?;
                    self.skip_whitespace();
                    self.expect("=")?;
                    self.skip_whitespace();
                    let value = self.parse_attr_value()?;
                    if element.attr(&attr).is_some() {
                        return Err(XmlError::new(
                            attr_pos,
                            XmlErrorKind::DuplicateAttribute { name: attr },
                        ));
                    }
                    element.attributes.push((attr, value));
                    element
                        .attr_spans
                        .push(Span::new(attr_pos.offset, self.pos));
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
        self.bump();
        let mut value = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error(XmlErrorKind::UnterminatedAttrValue)),
                Some(c) if c == quote => {
                    self.bump();
                    return Ok(value);
                }
                Some('<') => return Err(self.error(XmlErrorKind::AngleInAttrValue)),
                Some('&') => value.push(self.parse_reference()?),
                Some(c) => {
                    value.push(c);
                    self.bump();
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
            if self.starts_with("</") {
                flush_text(&mut text, element);
                self.expect("</")?;
                let close_pos = self.position();
                let close = self.parse_name()?;
                if close != element.name {
                    return Err(XmlError::new(
                        close_pos,
                        XmlErrorKind::MismatchedEndTag {
                            expected: element.name.clone(),
                            found: close,
                        },
                    ));
                }
                self.skip_whitespace();
                self.expect(">")?;
                return Ok(());
            }
            if self.starts_with("<!--") {
                self.expect("<!--")?;
                if self.skip_until("-->").is_err() {
                    return Err(self.error(XmlErrorKind::Unterminated {
                        construct: "comment",
                    }));
                }
                continue;
            }
            if self.starts_with("<![CDATA[") {
                self.expect("<![CDATA[")?;
                let start = self.pos;
                loop {
                    if self.at_end() {
                        return Err(self.error(XmlErrorKind::Unterminated {
                            construct: "CDATA section",
                        }));
                    }
                    if self.starts_with("]]>") {
                        text.push_str(&self.input[start..self.pos]);
                        self.expect("]]>")?;
                        break;
                    }
                    self.bump();
                }
                continue;
            }
            if self.starts_with("<?") {
                self.expect("<?")?;
                if self.skip_until("?>").is_err() {
                    return Err(self.error(XmlErrorKind::Unterminated {
                        construct: "processing instruction",
                    }));
                }
                continue;
            }
            if self.starts_with("<") {
                flush_text(&mut text, element);
                let child = self.parse_element(depth + 1)?;
                element.children.push(Node::Element(child));
                continue;
            }
            match self.peek() {
                Some('&') => text.push(self.parse_reference()?),
                Some(c) => {
                    text.push(c);
                    self.bump();
                }
                None => unreachable!("at_end checked above"),
            }
        }
    }

    /// Parse `&...;` — predefined entity or character reference.
    fn parse_reference(&mut self) -> Result<char, XmlError> {
        let start_pos = self.position();
        self.expect("&")?;
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c != ';' && !c.is_whitespace()) {
            self.bump();
        }
        let body = &self.input[start..self.pos];
        if !self.eat(";") {
            return Err(XmlError::new(
                start_pos,
                XmlErrorKind::UnterminatedReference,
            ));
        }
        match body {
            "lt" => Ok('<'),
            "gt" => Ok('>'),
            "amp" => Ok('&'),
            "apos" => Ok('\''),
            "quot" => Ok('"'),
            _ if body.starts_with('#') => {
                let bad = || {
                    XmlError::new(
                        start_pos,
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
                char::from_u32(code).ok_or(XmlError::new(
                    start_pos,
                    XmlErrorKind::CharacterOutOfRange { code },
                ))
            }
            other => Err(XmlError::new(
                start_pos,
                XmlErrorKind::UnknownEntity { name: other.into() },
            )),
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
