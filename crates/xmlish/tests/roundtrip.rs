//! Randomised tests of the parser. Round trips: any tree the AST can
//! represent must survive serialise → parse unchanged (modulo the
//! documented whitespace normalisation, which the generator avoids by
//! construction). The oracle: on every cut and seeded mutation of
//! representative documents, on hostile depth and on megabyte runs,
//! `parse` must build the tree, spans included, or the error, position
//! included, of the char-at-a-time parser it replaced.

#[path = "support/mutate.rs"]
mod mutate;
#[path = "oracle/parse.rs"]
mod oracle;

use moteur_xml::{parse, Element, MAX_XML_DEPTH};
use mutate::{hostile_variants, Gen};

/// Structure generators over the shared splitmix64 [`Gen`].
impl Gen {
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
fn arbitrary_input_parses_as_the_oracle_parses_it() {
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
        assert_agrees(&s, "arbitrary"); // may error, must not panic
    }
}

/// Parse `text` with both parsers and require the same tree with the
/// same element and attribute spans (`Element`'s equality ignores
/// spans), or the same error: kind, line, column and offset. Returns
/// whether it parsed.
fn assert_agrees(text: &str, case: &str) -> bool {
    fn same_spans(new: &Element, old: &Element, case: &str) {
        assert_eq!(new.span, old.span, "{case}: span of <{}>", new.name);
        assert_eq!(
            new.attr_spans, old.attr_spans,
            "{case}: attribute spans of <{}>",
            new.name
        );
        for (n, o) in new.elements().zip(old.elements()) {
            same_spans(n, o, case);
        }
    }
    let new = parse(text);
    match (&new, &oracle::parse(text)) {
        (Ok(new), Ok(old)) => {
            assert_eq!(new, old, "{case}");
            same_spans(new, old, case);
        }
        (new, old) => assert_eq!(new, old, "{case}"),
    }
    new.is_ok()
}

/// A 12-pair input data set as `moteur_scufl::write_input_data` lays
/// one out.
fn input_document() -> String {
    let mut doc = String::from("<inputdata>\n");
    for stream in ["referenceImage", "floatingImage"] {
        doc += &format!("  <input name=\"{stream}\">\n");
        for pair in 0..12 {
            doc += &format!(
                "    <item type=\"file\" gfn=\"gfn://bronze/{stream}/{pair:03}.img\" bytes=\"7864320\"/>\n"
            );
        }
        doc += "  </input>\n";
    }
    doc += "  <input name=\"methodToTest\">\n";
    for method in ["crestMatch", "PFMatchICP", "Yasmina", "Baladin"] {
        doc += &format!("    <item type=\"string\" value=\"{method}\"/>\n");
    }
    doc + "  </input>\n</inputdata>\n"
}

/// A Fig. 8 executable descriptor carrying every construct the parser
/// knows: declaration, comments, a processing instruction, CDATA, the
/// five entities and both character-reference forms, both quote styles,
/// CRLF and tab, and non-ASCII text and whitespace (U+00A0, U+2028),
/// which columns count as one character each.
const DESCRIPTOR: &str = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\r
<!-- Fig. 8 — crestLines -->\r
<description>\r
\t<executable name=\"CrestLines.pl\" note='a &lt;b&gt; &amp; &quot;c&quot; &apos;d&apos;'>
    <access type=\"URL\"><path value=\"http://colors.unice.fr\"/></access>
    <value value=\"CrestLines.pl\"/>
    <input name=\"floating_image\" option=\"-im1\"><access type=\"GFN\"/></input>
    <input name=\"scale\" option=\"-s\">échelle\u{a0}&#233;&#x2028;\u{2028}fin</input>
    <output name=\"crest_reference\" option=\"-c1\"><access type=\"GFN\"/></output>
    <?wrapper stage-in?>
    <sandbox name=\"convert8bits\">
      <access type=\"URL\"><path value=\"http://colors.unice.fr\"/></access>
      <value value=\"Convert8bits.pl\"/><![CDATA[ raw <not> & parsed ]]>
    </sandbox>
  </executable >
</description >
<!-- trailer -->
";

/// The whole of `doc` parses, and its cuts and 1,000 mutations drawn
/// from `seed` parse as the oracle parses them, some to a tree and most
/// to an error.
fn agrees_on_hostile_variants(name: &str, doc: &str, seed: u64) {
    assert!(assert_agrees(doc, name), "{name} parses whole");
    let variants = hostile_variants(doc, seed, 1000);
    let parsed = variants
        .iter()
        .enumerate()
        .filter(|(i, text)| assert_agrees(text, &format!("{name} variant {i}")))
        .count();
    assert!(
        parsed > 20 && parsed < variants.len() / 2,
        "{name}: {parsed} of {} variants parsed",
        variants.len()
    );
}

#[test]
fn the_bronze_workflow_cut_and_mutated_parses_as_the_oracle_parses_it() {
    let doc = include_str!("../../../examples/workflows/bronze-standard.xml");
    agrees_on_hostile_variants("bronze workflow", doc, 47);
}

#[test]
fn an_input_data_set_cut_and_mutated_parses_as_the_oracle_parses_it() {
    agrees_on_hostile_variants("12-pair inputs", &input_document(), 48);
}

#[test]
fn a_descriptor_cut_and_mutated_parses_as_the_oracle_parses_it() {
    agrees_on_hostile_variants("descriptor", DESCRIPTOR, 49);
}

fn nested(depth: usize, open: &str, close: &str) -> String {
    open.repeat(depth) + &close.repeat(depth)
}

#[test]
fn nesting_at_and_past_the_limit_parses_as_the_oracle_parses_it() {
    for (open, close) in [("<a>", "</a>"), ("<a x='1'>\n t ", "</a >\n")] {
        for depth in [MAX_XML_DEPTH - 1, MAX_XML_DEPTH, MAX_XML_DEPTH + 1, 20_000] {
            let doc = nested(depth, open, close);
            let parsed = assert_agrees(&doc, &format!("{open} x {depth}"));
            assert_eq!(parsed, depth <= MAX_XML_DEPTH, "{open} x {depth}");
            assert_agrees(&doc[..doc.len() / 2], &format!("{open} x {depth}, cut"));
        }
    }
}

#[test]
fn megabyte_values_and_text_runs_parse_as_the_oracle_parses_them() {
    let run = "abc déf\n".repeat(1 << 17);
    let value = format!("<a v=\"{run}\" w='&amp;{run}'>{run}&lt;<![CDATA[{run}]]></a>");
    assert!(assert_agrees(&value, "megabyte runs"));
    for cut in [value.len() / 3, value.len() / 2, value.len() - 5] {
        assert_agrees(&value[..cut], &format!("megabyte runs cut at {cut}"));
    }
    assert_agrees(
        &format!("<a v=\"{run}<\"/>"),
        "angle after a megabyte value",
    );
    assert_agrees(
        &format!("<a>{run}&bogus;</a>"),
        "bad entity after a megabyte run",
    );
    assert_agrees(&format!("<a>{run}</b>"), "mismatch after a megabyte run");
}
