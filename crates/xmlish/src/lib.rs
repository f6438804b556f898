//! # moteur-xml
//!
//! A minimal, dependency-free XML 1.0 subset parser and writer.
//!
//! All of the on-disk formats used by the MOTEUR-RS reproduction are XML
//! dialects taken from the paper: the executable-descriptor language
//! (Fig. 8), the Scufl-like workflow language and the input data-set
//! language. Rather than pulling a full XML stack, this crate implements
//! the subset those dialects need:
//!
//! - elements with attributes, text content and nested children,
//! - the five predefined entities (`&lt; &gt; &amp; &apos; &quot;`)
//!   plus decimal/hex character references,
//! - comments (`<!-- -->`), XML declarations (`<?xml ...?>`) and
//!   processing instructions (skipped),
//! - CDATA sections,
//! - typed errors ([`XmlErrorKind`]) with line/column *and* byte-offset
//!   info; the parser's cursor is one byte offset, and an error's line
//!   and column are computed from it ([`Span::line_col`]) only when the
//!   error is built,
//! - a nesting bound ([`MAX_XML_DEPTH`]), so a hostile document is an
//!   error rather than a stack overflow,
//! - byte [`Span`]s on every parsed element and attribute, so
//!   downstream diagnostics can point back into the source text.
//!
//! Not supported (not needed by the dialects): DTDs, namespaces beyond
//! treating `ns:name` as an opaque name, and entity definitions.
//!
//! ## Quick example
//!
//! ```
//! use moteur_xml::parse;
//!
//! let doc = parse(r#"<description><executable name="CrestLines.pl"/></description>"#)
//!     .unwrap();
//! assert_eq!(doc.name, "description");
//! let exe = doc.child("executable").unwrap();
//! assert_eq!(exe.attr("name"), Some("CrestLines.pl"));
//!
//! // Round trip
//! let text = doc.to_pretty_string();
//! assert_eq!(parse(&text).unwrap(), doc);
//! ```

mod ast;
mod error;
mod parse;
mod write;

pub use ast::{Element, Node};
pub use error::{LineIndex, Position, Span, XmlError, XmlErrorKind};
pub use parse::{parse, MAX_XML_DEPTH};
pub use write::{escape_attr, escape_text};
