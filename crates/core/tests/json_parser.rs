//! `JsonValue::parse` reads every `moteur/daemon/v1` line and both
//! files of a persisted data store, so its string scanner is pinned
//! three ways: a seeded round-trip property over every spelling JSON
//! allows for a character, the rejection messages callers surface
//! verbatim, and a wall-clock guard that a document is scanned once,
//! not once per character.

use moteur::lint::JsonValue;
use moteur::obs::json::escape;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One to four UTF-8 bytes, both delimiters, every short escape,
/// controls, and the edges of the surrogate gap and of the planes.
const ALPHABET: &[char] = &[
    'a',
    'Z',
    '7',
    ' ',
    '/',
    '"',
    '\\',
    '\n',
    '\t',
    '\r',
    '\u{8}',
    '\u{c}',
    '\u{0}',
    '\u{1f}',
    '\u{7f}',
    '\u{80}',
    'é',
    'ß',
    '€',
    '漢',
    '\u{d7ff}',
    '\u{e000}',
    '\u{ffff}',
    '\u{10000}',
    '😀',
    '𝄞',
    '\u{10ffff}',
];

fn short_escape(c: char) -> Option<&'static str> {
    Some(match c {
        '"' => "\\\"",
        '\\' => "\\\\",
        '/' => "\\/",
        '\n' => "\\n",
        '\t' => "\\t",
        '\r' => "\\r",
        '\u{8}' => "\\b",
        '\u{c}' => "\\f",
        _ => return None,
    })
}

/// Append one of the spellings JSON allows for `c`: raw, its short
/// escape, or `\u` escapes (a surrogate pair beyond the BMP) in either
/// hex case.
fn spell(out: &mut String, c: char, rng: &mut XorShift) {
    let must_escape = c == '"' || c == '\\' || (c as u32) < 0x20;
    match rng.below(3) {
        0 if !must_escape => out.push(c),
        1 if short_escape(c).is_some() => out.push_str(short_escape(c).unwrap()),
        _ => {
            let upper = rng.below(2) == 0;
            for unit in c.encode_utf16(&mut [0; 2]) {
                if upper {
                    let _ = write!(out, "\\u{unit:04X}");
                } else {
                    let _ = write!(out, "\\u{unit:04x}");
                }
            }
        }
    }
}

#[test]
fn every_spelling_of_a_string_parses_back_to_it() {
    let mut rng = XorShift(0x2006_1be7_a5ce_9d13);
    for case in 0..4000 {
        let len = rng.below(24);
        let text: String = (0..len)
            .map(|_| ALPHABET[rng.below(ALPHABET.len())])
            .collect();
        let mut spelled = String::new();
        for c in text.chars() {
            spell(&mut spelled, c, &mut rng);
        }
        let want = JsonValue::String(text.clone());
        assert_eq!(
            JsonValue::parse(&format!("\"{spelled}\"")),
            Ok(want.clone()),
            "case {case}: {spelled:?}"
        );
        // The product's own writer, as an object key and as a value
        // between other tokens.
        let written = escape(&text);
        let doc = format!("{{\"{written}\" : [\"{spelled}\", 1], \"k\":\"{written}\"}}");
        let parsed = JsonValue::parse(&doc).unwrap_or_else(|e| panic!("case {case}: {doc}: {e}"));
        assert_eq!(
            parsed.get(&text).and_then(|v| v.as_array()).map(|a| &a[0]),
            Some(&want)
        );
        assert_eq!(parsed.get("k"), Some(&want), "case {case}: {doc}");
    }
}

#[test]
fn rejected_strings_keep_their_messages() {
    for (text, message) in [
        ("\"abc", "unterminated string"),
        ("\"ab\\\"", "unterminated string"),
        ("\"é", "unterminated string"),
        ("\"", "unterminated string"),
        ("\"\\", "bad escape None at byte 2"),
        ("\"a\\x\"", "bad escape Some(120) at byte 3"),
        ("\"\\u12\"", "truncated \\u escape"),
        ("\"\\u", "truncated \\u escape"),
        ("\"\\u12zz\"", "bad \\u escape `12zz`"),
        ("\"\\u00é\"", "bad \\u escape `00é`"),
        ("\"\\u000é\"", "bad \\u escape"),
        ("\"\\ud800\"", "invalid code point 0xd800"),
        ("\"a\" x", "trailing data at byte 4"),
        ("{\"a\":1} trailing", "trailing data at byte 8"),
        ("{\"a\" 1}", "expected `:` at byte 5"),
        ("{a:1}", "expected `\"` at byte 1"),
    ] {
        assert_eq!(JsonValue::parse(text), Err(message.to_string()), "{text}");
    }
}

/// Generous for one pass in an unoptimised build on a slow machine
/// (well under a second here); re-validating the rest of the document for every
/// character, as the scanner once did, needs ~10¹³ byte visits on these
/// inputs — hours.
const ONE_PASS_BOUND: Duration = Duration::from_secs(20);

const EIGHT_MB: usize = 8 << 20;

#[test]
fn an_8_mb_string_is_scanned_once() {
    let mut doc = String::with_capacity(EIGHT_MB + 64);
    doc.push('"');
    while doc.len() < EIGHT_MB {
        doc.push_str("gfn://lacassagne/漢字-é/img0001.hdr \\n\\u00e9\\\\ ");
    }
    doc.push('"');
    let start = Instant::now();
    let parsed = JsonValue::parse(&doc).expect("well-formed");
    let took = start.elapsed();
    assert!(parsed.as_str().is_some_and(|s| s.len() > EIGHT_MB / 2));
    assert!(took < ONE_PASS_BOUND, "8 MB string took {took:?}");
}

#[test]
fn an_8_mb_array_of_short_objects_is_scanned_once() {
    let mut doc = String::with_capacity(EIGHT_MB + 128);
    doc.push('[');
    let mut rows = 0usize;
    while doc.len() < EIGHT_MB {
        if rows > 0 {
            doc.push(',');
        }
        let _ = write!(
            doc,
            "{{\"key\":\"{rows:016x}\",\"service\":\"crestLines-é\",\"outputs\":[{{\"port\":\"out\",\"pk\":\"{rows:016x}\"}}]}}"
        );
        rows += 1;
    }
    doc.push(']');
    let start = Instant::now();
    let parsed = JsonValue::parse(&doc).expect("well-formed");
    let took = start.elapsed();
    assert_eq!(parsed.as_array().map(<[_]>::len), Some(rows));
    assert!(took < ONE_PASS_BOUND, "8 MB of short objects took {took:?}");
}
