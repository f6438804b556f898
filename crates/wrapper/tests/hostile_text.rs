//! Hostile text into the executable-descriptor language (Fig. 8): on
//! every cut and seeded byte mutation of a descriptor (the variants the
//! XML parser's oracle runs on), `ExecutableDescriptor::parse` returns a
//! descriptor or a typed error and never panics.

#[path = "../../xmlish/tests/support/mutate.rs"]
mod mutate;

use moteur_wrapper::{crest_lines_example, ExecutableDescriptor};
use mutate::hostile_variants;

#[test]
fn a_descriptor_cut_and_mutated_is_read_or_refused() {
    let doc = crest_lines_example().to_xml().to_pretty_string();
    assert_eq!(ExecutableDescriptor::parse(&doc), Ok(crest_lines_example()));
    let (mut parsed, mut refused) = (0, 0);
    for (i, text) in hostile_variants(&doc, 49, 1000).iter().enumerate() {
        match ExecutableDescriptor::parse(text) {
            Ok(d) => {
                assert_eq!(d.validate(), Ok(()), "variant {i}");
                parsed += 1;
            }
            Err(e) => {
                assert!(!e.to_string().is_empty(), "variant {i}");
                refused += 1;
            }
        }
    }
    assert!(
        parsed > 20 && refused > parsed,
        "{parsed} parsed, {refused} refused"
    );
}
