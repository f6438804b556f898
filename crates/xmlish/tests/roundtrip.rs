//! Randomised round-trip tests: any tree the AST can represent must
//! survive serialise → parse unchanged (modulo the documented whitespace
//! normalisation, which the generator avoids by construction).
//!
//! Uses a local splitmix64 generator instead of an external
//! property-testing crate so the workspace builds and tests offline.

use moteur_xml::{parse, Element};

/// Deterministic splitmix64 — enough randomness for structural fuzzing.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `[a-zA-Z_][a-zA-Z0-9_.-]{0,11}`
    fn name(&mut self) -> String {
        const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_";
        const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-";
        let mut s = String::new();
        s.push(FIRST[self.below(FIRST.len())] as char);
        for _ in 0..self.below(12) {
            s.push(REST[self.below(REST.len())] as char);
        }
        s
    }

    /// Printable ASCII, including quotes/angles/ampersands.
    fn printable(&mut self, max: usize) -> String {
        (0..self.below(max + 1))
            .map(|_| (b' ' + self.below(95) as u8) as char)
            .collect()
    }

    /// Text that is non-empty after trimming and free of raw control
    /// chars, so it is kept by the whitespace-dropping rule.
    fn text(&mut self) -> String {
        let mut s = self.printable(20);
        s.push((b'!' + self.below(94) as u8) as char); // ensure non-space
        s.push_str(&self.printable(20));
        s
    }

    fn attributes(&mut self, e: &mut Element, max: usize) {
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..self.below(max) {
            let k = self.name();
            if seen.insert(k.clone()) {
                let v = self.printable(24);
                e.attributes.push((k, v));
            }
        }
    }

    fn element(&mut self, depth: usize) -> Element {
        let mut e = Element::new(self.name());
        self.attributes(&mut e, 4);
        if depth > 0 && self.below(2) == 0 {
            for _ in 0..self.below(5) {
                e = e.with_child(self.element(depth - 1));
            }
        } else if self.below(2) == 0 {
            e = e.with_text(self.text());
        }
        e
    }
}

#[test]
fn compact_roundtrip() {
    let mut g = Gen(1);
    for _ in 0..256 {
        let e = g.element(4);
        let s = e.to_xml_string();
        let parsed = parse(&s).expect("writer output must parse");
        assert_eq!(parsed, e, "serialised form: {s}");
    }
}

#[test]
fn pretty_roundtrip() {
    let mut g = Gen(2);
    for _ in 0..256 {
        let e = g.element(4);
        let s = e.to_pretty_string();
        let parsed = parse(&s).expect("pretty writer output must parse");
        assert_eq!(parsed, e, "serialised form: {s}");
    }
}

#[test]
fn element_count_stable_across_roundtrip() {
    let mut g = Gen(3);
    for _ in 0..256 {
        let e = g.element(4);
        let parsed = parse(&e.to_xml_string()).unwrap();
        assert_eq!(parsed.element_count(), e.element_count());
    }
}

#[test]
fn parser_never_panics_on_arbitrary_input() {
    const EXTRA: &[u8] = b"<>&\"'";
    let mut g = Gen(4);
    for _ in 0..512 {
        let s: String = (0..g.below(201))
            .map(|_| {
                if g.below(3) == 0 {
                    EXTRA[g.below(EXTRA.len())] as char
                } else {
                    (b' ' + g.below(95) as u8) as char
                }
            })
            .collect();
        let _ = parse(&s); // may error, must not panic
    }
}
