//! Fixture suite for the static lint rules: every `M0xx` code fires on
//! a dedicated SCUFL fixture, with the right severity and a primary
//! span that resolves to the offending line of the source.

use moteur::lint::{
    explain, lint_workflow, report_from_json, report_to_json, Diagnostic, LintReport, Severity,
};
use moteur::{
    Enactment, EnactorConfig, InputData, ProcId, ServiceBinding, ServiceProfile, VirtualBackend,
    Workflow,
};
use moteur_scufl::lint_source;
use moteur_wrapper::crest_lines_example;

fn fixture_text(name: &str) -> String {
    let path = format!("{}/tests/lint/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// Parse leniently and merge parse-stage diagnostics with the workflow
/// rules — the same report `moteur lint` builds.
fn lint_fixture(name: &str) -> (String, LintReport) {
    let text = fixture_text(name);
    let (wf, parse_diags) = lint_source(&text);
    let mut report = LintReport::new(parse_diags);
    if let Some(wf) = &wf {
        report.extend(lint_workflow(wf).diagnostics);
    }
    report.sort();
    (text, report)
}

fn find<'r>(report: &'r LintReport, code: &str) -> &'r Diagnostic {
    report
        .diagnostics
        .iter()
        .find(|d| d.code == code)
        .unwrap_or_else(|| {
            panic!(
                "expected {code} in report, got: {:?}",
                report
                    .diagnostics
                    .iter()
                    .map(|d| d.code)
                    .collect::<Vec<_>>()
            )
        })
}

/// Assert the fixture raises `code` at `severity`, with a primary span
/// whose source slice contains `needle` (i.e. points at the offending
/// SCUFL construct, not at offset 0).
fn check(fixture: &str, code: &str, severity: Severity, needle: &str) {
    let (text, report) = lint_fixture(fixture);
    let d = find(&report, code);
    assert_eq!(d.severity, severity, "{code} severity in {fixture}");
    let span = d.primary_span();
    assert!(
        span.end > span.start && span.end <= text.len(),
        "{code} in {fixture} has no usable primary span: {span:?}"
    );
    let slice = &text[span.start..span.end];
    assert!(
        slice.contains(needle),
        "{code} span in {fixture} points at {slice:?}, expected it to contain {needle:?}"
    );
}

#[test]
fn clean_fixture_has_zero_diagnostics() {
    let (_, report) = lint_fixture("clean.xml");
    assert!(
        report.is_empty(),
        "clean fixture should lint clean, got: {:?}",
        report
            .diagnostics
            .iter()
            .map(|d| (d.code, &d.message))
            .collect::<Vec<_>>()
    );
}

/// A rule is declared once, in `RULE_DOCS`: whatever fires under a
/// code — in its own fixture or as a bystander in another's — fires at
/// most at the documented severity, and the strongest severity the
/// fixtures show for a code is the documented one (for a rule with one
/// emission severity, that is an exact match). `--explain M040` used to
/// describe an error while the rule fired as a warning.
#[test]
fn every_fixture_emits_each_code_at_its_documented_severity() {
    let dir = format!("{}/tests/lint/fixtures", env!("CARGO_MANIFEST_DIR"));
    let mut strongest = std::collections::BTreeMap::new();
    for entry in std::fs::read_dir(&dir).expect("fixture directory") {
        let name = entry.expect("fixture").file_name();
        let name = name.to_str().expect("fixture names are ASCII");
        for d in lint_fixture(name).1.diagnostics {
            let doc = explain(d.code).unwrap_or_else(|| panic!("{name}: {} undocumented", d.code));
            assert!(
                d.severity <= doc.severity,
                "{name}: {} fired as {:?}, documented as {:?}",
                d.code,
                d.severity,
                doc.severity
            );
            let seen = strongest.entry(d.code).or_insert(d.severity);
            *seen = d.severity.max(*seen);
        }
    }
    assert!(strongest.len() >= 26, "one fixture per rule: {strongest:?}");
    for (code, seen) in strongest {
        let documented = explain(code).expect("checked above").severity;
        assert_eq!(
            seen, documented,
            "{code}: no fixture fires it as documented"
        );
    }
}

#[test]
fn m000_fatal_xml_is_the_only_diagnostic() {
    let text = fixture_text("m000_fatal_xml.xml");
    let (wf, diags) = lint_source(&text);
    assert!(wf.is_none(), "fatal XML must not yield a workflow");
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].code, "M000");
    assert_eq!(diags[0].severity, Severity::Error);
}

#[test]
fn m001_dangling_link() {
    check(
        "m001_dangling_link.xml",
        "M001",
        Severity::Error,
        "ghost:in",
    );
}

#[test]
fn m002_unreachable_sink() {
    check(
        "m002_unreachable_sink.xml",
        "M002",
        Severity::Error,
        r#"name="orphan""#,
    );
}

#[test]
fn m003_dead_end_source() {
    check(
        "m003_dead_end_source.xml",
        "M003",
        Severity::Warning,
        r#"name="unused""#,
    );
}

#[test]
fn m004_closed_cycle() {
    check("m004_closed_cycle.xml", "M004", Severity::Error, "loop");
}

#[test]
fn m005_self_link() {
    check(
        "m005_self_link.xml",
        "M005",
        Severity::Warning,
        "stage:feedback",
    );
}

#[test]
fn m006_cycle_with_exit() {
    check(
        "m006_cycle_with_exit.xml",
        "M006",
        Severity::Note,
        "optimize",
    );
}

#[test]
fn m007_duplicate_name() {
    check(
        "m007_duplicate_name.xml",
        "M007",
        Severity::Error,
        r#"name="dup""#,
    );
}

#[test]
fn m010_unconnected_input() {
    check(
        "m010_unconnected_input.xml",
        "M010",
        Severity::Error,
        r#"name="stage""#,
    );
}

#[test]
fn m011_multiply_fed_input() {
    check(
        "m011_multiply_fed.xml",
        "M011",
        Severity::Warning,
        "stage:in",
    );
}

#[test]
fn m012_param_names_unknown_slot() {
    check(
        "m012_param_unknown_slot.xml",
        "M012",
        Severity::Error,
        r#"slot="nope""#,
    );
}

#[test]
fn m013_outputsize_names_unknown_slot() {
    check(
        "m013_outputsize_unknown_slot.xml",
        "M013",
        Severity::Warning,
        r#"slot="nope""#,
    );
}

#[test]
fn m014_unconsumed_output() {
    check(
        "m014_unconsumed_output.xml",
        "M014",
        Severity::Note,
        r#"name="stage""#,
    );
}

#[test]
fn m020_dot_degree_mismatch() {
    check("m020_dot_mismatch.xml", "M020", Severity::Warning, "mix");
}

#[test]
fn m021_cross_product_blowup() {
    check(
        "m021_cross_blowup.xml",
        "M021",
        Severity::Warning,
        "register",
    );
}

#[test]
fn m030_groupable_pair() {
    check(
        "m030_groupable_pair.xml",
        "M030",
        Severity::Note,
        r#"name="first""#,
    );
}

#[test]
fn m031_ungroupable_pair_names_the_reason() {
    let (text, report) = lint_fixture("m031_ungroupable_pair.xml");
    let d = find(&report, "M031");
    assert_eq!(d.severity, Severity::Note);
    assert!(
        d.message.contains("synchronization barrier"),
        "M031 should explain the §3.6 blocker, got: {}",
        d.message
    );
    let span = d.primary_span();
    assert!(text[span.start..span.end].contains(r#"name="first""#));
}

#[test]
fn m040_no_op_barrier() {
    check(
        "m040_no_op_barrier.xml",
        "M040",
        Severity::Warning,
        r#"name="regather""#,
    );
}

#[test]
fn m041_coordination_cycle() {
    check(
        "m041_coordination_cycle.xml",
        "M041",
        Severity::Error,
        "coordination",
    );
}

#[test]
fn m042_redundant_coordination() {
    check(
        "m042_redundant_coordination.xml",
        "M042",
        Severity::Warning,
        "coordination",
    );
}

#[test]
fn m050_descriptor_finding() {
    let (_, report) = lint_fixture("m050_descriptor_finding.xml");
    let d = find(&report, "M050");
    assert_eq!(d.severity, Severity::Warning);
    assert!(
        d.message.contains("-x"),
        "M050 should name the shared option, got: {}",
        d.message
    );
}

#[test]
fn m060_unknown_element() {
    check(
        "m060_unknown_element.xml",
        "M060",
        Severity::Error,
        "<mystery/>",
    );
}

#[test]
fn m061_missing_attribute() {
    check(
        "m061_missing_attribute.xml",
        "M061",
        Severity::Error,
        r#"<link from="stage:out"/>"#,
    );
}

#[test]
fn m062_bad_attribute_value() {
    check(
        "m062_bad_attribute_value.xml",
        "M062",
        Severity::Error,
        "banana",
    );
}

#[test]
fn m063_bad_endpoint() {
    check(
        "m063_bad_endpoint.xml",
        "M063",
        Severity::Error,
        "imagesout",
    );
}

#[test]
fn m064_missing_executable() {
    check(
        "m064_missing_executable.xml",
        "M064",
        Severity::Error,
        r#"name="stage""#,
    );
}

/// M008 cannot be expressed in SCUFL (the parser always produces a
/// descriptor binding), so exercise it on a hand-built workflow.
#[test]
fn m008_unbound_service_programmatic() {
    let mut wf = Workflow::new("m008");
    let src = wf.add_source("s");
    let svc = wf.add_service(
        "loose",
        &["in"],
        &["out"],
        ServiceBinding::local(|_inputs: &[moteur::Token]| {
            Ok(vec![("out".into(), moteur::DataValue::from("x"))])
        }),
    );
    let sink = wf.add_sink("k");
    wf.connect(src, "out", svc, "in").unwrap();
    wf.connect(svc, "out", sink, "in").unwrap();
    wf.processors[svc.0].binding = None;
    let report = lint_workflow(&wf);
    let d = find(&report, "M008");
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("loose"));
}

/// source → sink, plus a copy of that link retargeted at processor #7,
/// which does not exist.
fn link_to_missing_processor() -> Workflow {
    let mut wf = Workflow::new("m001");
    let src = wf.add_source("s");
    let sink = wf.add_sink("k");
    wf.connect(src, "out", sink, "in").unwrap();
    let mut dangling = wf.links[0];
    dangling.to.proc = ProcId(7);
    wf.links.push(dangling);
    wf
}

/// M001's programmatic case: an out-of-range processor index is
/// reported, and the rules after it, which all index processors by link
/// endpoint, do not run.
#[test]
fn m001_out_of_range_processor_is_reported_not_a_panic() {
    let report = lint_workflow(&link_to_missing_processor());
    let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
    assert_eq!(codes, ["M001"]);
    assert_eq!(report.diagnostics[0].severity, Severity::Error);
    assert!(report.diagnostics[0]
        .message
        .contains("processor that does not exist"));
}

/// The enactor's pre-flight runs the same lint, so the same workflow is
/// refused with a typed error instead of a panic.
#[test]
fn preflight_refuses_an_out_of_range_processor_with_m001() {
    let wf = link_to_missing_processor();
    let inputs = InputData::new().set("s", vec!["D0".into()]);
    let err = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
        .run(&mut VirtualBackend::new())
        .expect_err("pre-flight refuses the workflow");
    assert!(err.is_lint(), "{err}");
    assert!(err.to_string().contains("[M001]"), "{err}");
}

/// M051 likewise: a port list that disagrees with the descriptor can
/// only be built through the API.
#[test]
fn m051_port_descriptor_mismatch_programmatic() {
    let mut wf = Workflow::new("m051");
    let src = wf.add_source("s");
    let svc = wf.add_service(
        "stage",
        &["in", "extra"],
        &["out"],
        ServiceBinding::descriptor(crest_lines_example(), ServiceProfile::new(10.0)),
    );
    let sink = wf.add_sink("k");
    wf.connect(src, "out", svc, "in").unwrap();
    wf.connect(src, "out", svc, "extra").unwrap();
    wf.connect(svc, "out", sink, "in").unwrap();
    let report = lint_workflow(&wf);
    let d = find(&report, "M051");
    assert_eq!(d.severity, Severity::Error);
}

/// M070: a descriptor declared non-deterministic is safe to run but
/// unsafe to memoize — surfaced as a warning, never a preflight error.
#[test]
fn m070_nondeterministic_descriptor_programmatic() {
    let mut descriptor = crest_lines_example();
    descriptor.nondeterministic = true;
    let mut wf = Workflow::new("m070");
    let src = wf.add_source("s");
    let svc = wf.add_service(
        "stage",
        &["floating_image", "reference_image", "scale"],
        &["crest_reference", "crest_floating"],
        ServiceBinding::descriptor(descriptor, ServiceProfile::new(10.0)),
    );
    let sink = wf.add_sink("k");
    wf.connect(src, "out", svc, "floating_image").unwrap();
    wf.connect(src, "out", svc, "reference_image").unwrap();
    wf.connect(src, "out", svc, "scale").unwrap();
    wf.connect(svc, "crest_reference", sink, "in").unwrap();
    let report = lint_workflow(&wf);
    let d = find(&report, "M070");
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("stage"), "names the processor");
    assert!(d.message.contains("memoized"), "explains the consequence");
    // A warning must not block enactment preflight.
    assert!(moteur::lint_errors(&wf)
        .diagnostics
        .iter()
        .all(|d| d.code != "M070"));
}

/// The JSON renderer round-trips a real multi-rule report exactly.
#[test]
fn fixture_report_round_trips_through_json() {
    let (_, report) = lint_fixture("m031_ungroupable_pair.xml");
    assert!(!report.is_empty());
    let json = report_to_json(&report);
    let back = report_from_json(&json).expect("own JSON parses");
    assert_eq!(back, report);
}
