//! Golden digests of the static analysis: length + FNV-1a 64 of what
//! `moteur lint --json`, `moteur plan --json` and `moteur lint --predict
//! --json` print, committed in `tests/golden/static_digests.txt`.
//!
//! Pinned: the lint report (and, where the workflow parses, the default
//! plan) of every lint fixture and of both `examples/workflows`; the
//! plan of both examples at 12 / 66 / 126 input sets; their predictions
//! at the same sizes with a 300 s overhead, at infinite and 2 MB/s
//! bandwidth; and lint + plan + both predictions of 300 seeded random
//! workflows (`support/random_workflow.rs`) under non-uniform source
//! sizes. A refactor of `lint`, `plan` or `grouping` must leave every
//! line untouched; regenerate only for an intended behaviour change with
//! `MOTEUR_BLESS=1 cargo test -p moteur --test golden_static`.

use moteur::lint::{predict_with_transfer, prediction_to_json};
use moteur::{
    lint_workflow, plan_to_json, plan_workflow, predict, report_to_json, Fnv1a, IterationStrategy,
    LintReport, MoteurError, PlanOptions, ProcId, ServiceBinding, ServiceProfile, SourceSizes,
    Token, Workflow,
};
use moteur_scufl::lint_source;

#[path = "support/random_workflow.rs"]
mod random_workflow;

const RANDOM_CASES: u64 = 300;

fn digest_line(name: &str, stream: &str) -> String {
    let mut hash = Fnv1a::new();
    hash.write(stream.as_bytes());
    format!("{name} len={} fnv1a={:016x}\n", stream.len(), hash.finish())
}

/// The report `moteur lint` builds: parse-stage findings merged with
/// the workflow rules.
fn lint_text(text: &str) -> (Option<Workflow>, String) {
    let (wf, parse_diags) = lint_source(text);
    let mut report = LintReport::new(parse_diags);
    if let Some(wf) = &wf {
        report.extend(lint_workflow(wf).diagnostics);
    }
    report.sort();
    (wf, report_to_json(&report))
}

fn plan_json(wf: &Workflow, sizes: SourceSizes) -> String {
    plan_to_json(&plan_workflow(
        wf,
        &PlanOptions {
            sizes,
            ..PlanOptions::default()
        },
    ))
}

/// A prediction's JSON, or its error (cyclic workflows, missing cost
/// models) — both are behaviour.
fn prediction_json(result: Result<moteur::lint::Prediction, MoteurError>) -> String {
    match result {
        Ok(p) => prediction_to_json(&p),
        Err(e) => format!("error: {}", e.message()),
    }
}

fn sorted_xml(dir: &str) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("reading {dir}: {e}"))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "xml"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn static_analysis_matches_the_golden_digests() {
    let root = env!("CARGO_MANIFEST_DIR");
    let mut actual = String::new();

    let fixtures = sorted_xml(&format!("{root}/tests/lint/fixtures"));
    assert_eq!(fixtures.len(), 27, "every lint fixture is pinned");
    for (name, text) in &fixtures {
        let (wf, lint) = lint_text(text);
        actual += &digest_line(&format!("lint/{name}"), &lint);
        if let Some(wf) = wf {
            actual += &digest_line(
                &format!("plan/{name}"),
                &plan_json(&wf, SourceSizes::default()),
            );
        }
    }

    let examples = sorted_xml(&format!("{root}/../../examples/workflows"));
    assert_eq!(examples.len(), 2, "both example workflows are pinned");
    for (name, text) in &examples {
        let (wf, lint) = lint_text(text);
        actual += &digest_line(&format!("lint/{name}"), &lint);
        let wf = wf.expect("example workflows parse");
        for n in [12usize, 66, 126] {
            actual += &digest_line(
                &format!("plan/{name}/n{n}"),
                &plan_json(&wf, SourceSizes::uniform(n as u64)),
            );
            actual += &digest_line(
                &format!("predict/{name}/n{n}/bw-inf"),
                &prediction_json(predict(&wf, n, 300.0)),
            );
            actual += &digest_line(
                &format!("predict/{name}/n{n}/bw-2e6"),
                &prediction_json(predict_with_transfer(&wf, n, 300.0, 2.0e6)),
            );
        }
    }

    for case in 0..RANDOM_CASES {
        let (wf, sizes) = random_workflow::random_workflow(case);
        let n = sizes.default_n as usize;
        let lint = report_to_json(&lint_workflow(&wf));
        let plan = plan_json(&wf, sizes);
        let free = prediction_json(predict(&wf, n, 300.0));
        let priced = prediction_json(predict_with_transfer(&wf, n, 300.0, 2.0e6));
        actual += &digest_line(
            &format!("random/{case}"),
            &format!("{lint}\n{plan}\n{free}\n{priced}"),
        );
    }

    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/static_digests.txt"
    );
    if std::env::var_os("MOTEUR_BLESS").is_some() {
        std::fs::write(golden_path, &actual).expect("write golden file");
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file committed (regenerate with MOTEUR_BLESS=1)");
    for (got, want) in actual.lines().zip(golden.lines()) {
        assert_eq!(
            got, want,
            "static analysis changed; if intentional, regenerate with \
             MOTEUR_BLESS=1 cargo test -p moteur --test golden_static"
        );
    }
    assert_eq!(actual, golden, "golden file has a different set of lines");
}
