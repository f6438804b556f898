//! End-to-end tests of `moteur lint`: exit codes, JSON round-trip,
//! `--explain` and README's rule table against the one rule registry,
//! `--predict` agreement with the §3.5 closed forms, and the `run`
//! pre-flight refusing error-level workflows unless `--no-verify`.

use moteur_repro::bench::bronze_workflow;
use moteur_repro::moteur::lint::{Severity, RULE_DOCS};
use moteur_repro::moteur::{lint_workflow, predict, report_from_json, report_to_json, TimeMatrix};
use std::path::Path;
use std::process::Command;

fn moteur() -> Command {
    Command::new(env!("CARGO_BIN_EXE_moteur"))
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("moteur-lint-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn write(dir: &Path, name: &str, text: &str) -> std::path::PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write fixture");
    path
}

/// A workflow that parses strictly but carries a lint-only error: the
/// coordination constraint contradicts the data-flow order (M041).
const DEADLOCK: &str = r#"<scufl name="deadlock">
  <source name="s"/>
  <processor name="first" compute="10">
    <executable name="first">
      <value value="first"/>
      <input name="in" option="-i"><access type="GFN"/></input>
      <output name="out" option="-o"><access type="GFN"/></output>
    </executable>
  </processor>
  <processor name="second" compute="10">
    <executable name="second">
      <value value="second"/>
      <input name="in" option="-i"><access type="GFN"/></input>
      <output name="out" option="-o"><access type="GFN"/></output>
    </executable>
  </processor>
  <sink name="k"/>
  <link from="s:out" to="first:in"/>
  <link from="first:out" to="second:in"/>
  <link from="second:out" to="k:in"/>
  <coordination from="second" to="first"/>
</scufl>"#;

const INPUTS: &str = r#"<inputdata>
  <input name="s"><item type="file" gfn="gfn://d/0" bytes="1"/></input>
</inputdata>"#;

/// The bundled bronze-standard application must stay clean enough to
/// pass `--deny-warnings`: grouping advice is notes, never warnings.
#[test]
fn bronze_standard_passes_deny_warnings() {
    let report = lint_workflow(&bronze_workflow());
    assert!(!report.is_empty(), "bronze should get grouping advice");
    assert_eq!(report.max_severity(), Some(Severity::Note));
    assert!(!report.fails(true));
}

#[test]
fn lint_cli_exit_codes_follow_severity() {
    let dir = temp_dir("exit");
    let deadlock = write(&dir, "deadlock.xml", DEADLOCK);

    // Errors -> exit 1, and the code is printed.
    let out = moteur().args(["lint"]).arg(&deadlock).output().unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("M041"), "expected M041 in:\n{text}");

    // `moteur example` writes the bronze workflow: notes only -> exit 0
    // even under --deny-warnings.
    let ex = moteur().arg("example").current_dir(&dir).output().unwrap();
    assert!(ex.status.success());
    let bronze = dir.join("bronze-standard.xml");
    let out = moteur()
        .args(["lint", bronze.to_str().unwrap(), "--deny-warnings"])
        .output()
        .unwrap();
    assert!(out.status.success(), "bronze must pass --deny-warnings");

    let _ = std::fs::remove_dir_all(&dir);
}

/// An XML error just before a multi-byte character is drawn with its
/// caret; the renderer used to slice through the character and panic.
#[test]
fn an_xml_error_before_a_non_ascii_character_is_rendered_not_a_panic() {
    let dir = temp_dir("non-ascii");
    let path = write(&dir, "bad.xml", "<scufl x=\u{e9}/>\n");
    let out = moteur().args(["lint"]).arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "a lint error, not a panic");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("error[M000]: expected a quoted attribute value"),
        "{text}"
    );
    assert!(text.contains("bad.xml:1:10"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lint_cli_json_round_trips() {
    let dir = temp_dir("json");
    let deadlock = write(&dir, "deadlock.xml", DEADLOCK);
    let out = moteur()
        .args(["lint", deadlock.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    let report = report_from_json(text.trim()).expect("CLI JSON parses back into a report");
    assert!(report.has_errors());
    assert!(report.diagnostics.iter().any(|d| d.code == "M041"));
    // The re-rendered JSON is identical: a true round-trip.
    assert_eq!(report_to_json(&report), text.trim());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--explain CODE` describes the rule that fires under CODE: what the
/// deadlock workflow reports as an error is explained as an error, and
/// M040 is the barrier warning, not the coordination cycle (M041).
#[test]
fn explain_describes_the_rule_that_fires_under_the_code() {
    let explain = |code: &str| {
        let out = moteur().args(["lint", "--explain", code]).output().unwrap();
        assert!(out.status.success(), "{code}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let m040 = explain("M040");
    let headline = "M040 (warning): synchronization barrier never waits\n";
    assert!(m040.starts_with(headline), "{m040}");

    let dir = temp_dir("explain");
    let deadlock = write(&dir, "deadlock.xml", DEADLOCK);
    let out = moteur().arg("lint").arg(&deadlock).arg("--json").output();
    let text = String::from_utf8_lossy(&out.unwrap().stdout).into_owned();
    let report = report_from_json(text.trim()).expect("CLI JSON parses");
    assert!(report.has_errors());
    for d in &report.diagnostics {
        let head = format!("{} ({}): ", d.code, d.severity.name());
        assert!(explain(d.code).starts_with(&head), "{head}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// README's rule table is `RULE_DOCS` row for row: code, severity and
/// summary (the README wraps SCUFL element names in backticks).
#[test]
fn readme_rule_table_is_the_rule_registry_row_for_row() {
    let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
    let readme = std::fs::read_to_string(readme).expect("README.md");
    let rows: Vec<String> = readme
        .lines()
        .filter(|l| l.starts_with("| M0"))
        .map(|l| l.replace('`', ""))
        .collect();
    let registry: Vec<String> = RULE_DOCS
        .iter()
        .map(|d| format!("| {} | {} | {} |", d.code, d.severity.name(), d.summary))
        .collect();
    assert_eq!(rows, registry);
}

/// `--predict` must agree with the closed-form makespans of eqs. 1-4
/// (the same numbers `moteur-bench theory` prints).
#[test]
fn predict_matches_the_closed_forms_on_bronze() {
    let wf = bronze_workflow();
    let n_data = 12;
    let p = predict(&wf, n_data, 0.0).expect("bronze predicts");
    let t = TimeMatrix::from_workflow(&wf, n_data, 0.0).expect("bronze times");
    let tol = 1e-9;
    assert!((p.row("nop").unwrap().makespan - t.sigma_sequential()).abs() < tol);
    assert!((p.row("dp").unwrap().makespan - t.sigma_dp()).abs() < tol);
    assert!((p.row("sp").unwrap().makespan - t.sigma_sp()).abs() < tol);
    assert!((p.row("sp+dp").unwrap().makespan - t.sigma_dsp()).abs() < tol);
    // Job counts match the enactment test-bed: 73 plain, 49 grouped.
    assert_eq!(p.row("nop").unwrap().jobs, 73);
    assert_eq!(p.row("sp+dp+jg").unwrap().jobs, 49);
}

#[test]
fn run_preflight_refuses_lint_errors_unless_no_verify() {
    let dir = temp_dir("preflight");
    let deadlock = write(&dir, "deadlock.xml", DEADLOCK);
    let inputs = write(&dir, "inputs.xml", INPUTS);

    let out = moteur()
        .args(["run", deadlock.to_str().unwrap(), inputs.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success(), "pre-flight must refuse M041");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("M041"), "expected M041 in:\n{err}");
    assert!(
        err.contains("--no-verify"),
        "should mention the escape hatch"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
