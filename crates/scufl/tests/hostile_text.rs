//! Hostile text into the workflow and data-set languages: on every cut
//! and seeded byte mutation of the Bronze workflow and of a 12-pair
//! input data set (the variants the XML parser's oracle runs on), each
//! reader returns a value or a typed error and never panics, and the
//! linter always has a diagnostic to render for a document it cannot
//! read.

#[path = "../../xmlish/tests/support/mutate.rs"]
mod mutate;

use moteur::lint::{lint_workflow, render_human, LintReport, Severity};
use moteur::DataValue;
use moteur_scufl::{lint_source, parse_input_data, parse_workflow, write_input_data};
use mutate::hostile_variants;

const BRONZE: &str = include_str!("../../../examples/workflows/bronze-standard.xml");

fn inputs_12() -> String {
    let images = |side: &str| -> Vec<DataValue> {
        (0..12)
            .map(|pair| DataValue::File {
                gfn: format!("gfn://bronze/{side}/{pair:03}.img"),
                bytes: 7_864_320,
            })
            .collect()
    };
    let methods: Vec<DataValue> = ["crestMatch", "PFMatchICP", "Yasmina", "Baladin"]
        .into_iter()
        .map(|m| DataValue::Str(m.into()))
        .collect();
    write_input_data(&[
        ("referenceImage", &images("reference")),
        ("floatingImage", &images("floating")),
        ("methodToTest", &methods),
    ])
    .expect("files and strings serialise")
}

#[test]
fn the_bronze_workflow_cut_and_mutated_is_read_or_refused_by_every_reader() {
    let (mut parsed, mut refused) = (0, 0);
    for (i, text) in hostile_variants(BRONZE, 47, 1000).iter().enumerate() {
        match parse_workflow(text) {
            Ok(_) => parsed += 1,
            Err(e) => {
                assert!(!e.message.is_empty(), "variant {i}");
                refused += 1;
            }
        }
        let (wf, mut diagnostics) = lint_source(text);
        match &wf {
            Some(wf) => diagnostics.extend(lint_workflow(wf).diagnostics),
            None => assert!(
                diagnostics.iter().any(|d| d.severity == Severity::Error),
                "variant {i}: no workflow and no error"
            ),
        }
        // Drawn against the text, as `moteur lint` does.
        render_human(&LintReport::new(diagnostics), "bronze.xml", Some(text));
    }
    assert!(
        parsed > 20 && refused > parsed,
        "{parsed} parsed, {refused} refused"
    );
}

#[test]
fn an_input_data_set_cut_and_mutated_is_read_or_refused() {
    let doc = inputs_12();
    let whole = parse_input_data(&doc).unwrap();
    assert_eq!(whole.get("floatingImage").map(<[_]>::len), Some(12));
    let (mut parsed, mut refused) = (0, 0);
    for (i, text) in hostile_variants(&doc, 48, 1000).iter().enumerate() {
        match parse_input_data(text) {
            Ok(_) => parsed += 1,
            Err(e) => {
                assert!(!e.message.is_empty(), "variant {i}");
                refused += 1;
            }
        }
    }
    assert!(
        parsed > 20 && refused > parsed,
        "{parsed} parsed, {refused} refused"
    );
}
