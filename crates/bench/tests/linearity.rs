//! The enactor's work per completion must not grow with the number of
//! invocations in flight. With unbounded ports the two-stage local
//! chain puts the whole stream in flight at once, so a per-completion
//! walk over the pending set makes the run quadratic: four times the
//! items then cost about sixteen times the wall clock instead of four.
//!
//! Checked under the default fault-tolerance configuration (no timeout
//! armed) and again under a fixed timeout too long ever to fire — the
//! second is the case a "skip the walk when no policy is set" shortcut
//! would still lose.
//!
//! The daemon's work per step must likewise not grow with the number of
//! instances it has ever finished: a scheduling round that walks every
//! slot makes a long-lived daemon quadratic in its own history.
//!
//! And the cost of a workflow must not grow faster than its graph:
//! parsing, linting and rendering a service chain four times as long
//! costs about four times as much, and so does grouping it into one
//! job (each merge edits the graph in place, where rebuilding and
//! rescanning it per merge read about 13×), and so does enacting it, or
//! a fan-out four times as wide, up to the firing round's one scan over
//! every processor (about 16× for a round per service on a chain, where
//! a walk over every link per processor per round read 64×).

use moteur::lint::{lint_workflow, render_human};
use moteur::{
    group_workflow, Daemon, DaemonConfig, DataStore, Enactment, EnactorConfig, FtConfig, FtPolicy,
    StoreConfig, TimeoutPolicy, VirtualBackend,
};
use moteur_bench::stream::{stream_chain, stream_inputs};
use std::fmt::Write as _;
use std::time::Instant;

const N: usize = 5_000;

/// Best-of-3 wall seconds of one unbounded enactment of `n` items.
fn best_of_three(n: usize, ft: &FtConfig) -> f64 {
    let workflow = stream_chain();
    let inputs = stream_inputs(n);
    (0..3)
        .map(|_| {
            let mut backend = VirtualBackend::new();
            let start = Instant::now();
            let result = Enactment::new(&workflow, &inputs, EnactorConfig::sp_dp())
                .ft(ft)
                .run(&mut backend)
                .unwrap();
            assert_eq!(result.sink_count("out"), n);
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn four_times_the_items_cost_about_four_times_the_time() {
    let never_fires = FtConfig::default().with_default(FtPolicy {
        timeout: TimeoutPolicy::Fixed { seconds: 1e9 },
        ..FtConfig::default().default
    });
    for (label, ft) in [
        ("no timeout", FtConfig::default()),
        ("armed timeout", never_fires),
    ] {
        let small = best_of_three(N, &ft);
        let large = best_of_three(4 * N, &ft);
        let ratio = large / (4.0 * small);
        eprintln!("{label}: {small:.4} s -> {large:.4} s, ratio {ratio:.2}");
        assert!(
            ratio <= 2.0,
            "{label}: {N} items in {small:.4} s, {} in {large:.4} s: ratio {ratio:.2} \
             (1.0 is linear, 4.0 quadratic)",
            4 * N
        );
    }
}

const WAVES: usize = 100;

/// Best-of-3 wall seconds of one daemon taking `waves` waves of eight
/// one-service, two-item workflows over four tenants, drained wave by
/// wave — the finished instances pile up, the live ones never exceed
/// eight.
fn best_of_three_waves(waves: usize) -> f64 {
    let workflow = r#"<scufl name="tiny">
  <source name="s" bytes="64"/>
  <processor name="p" compute="5">
    <executable name="x">
      <access type="URL"><path value="http://h"/></access>
      <value value="x"/>
      <input name="in" option="-i"><access type="GFN"/></input>
      <output name="out" option="-o"><access type="GFN"/></output>
    </executable>
    <outputsize slot="out" bytes="10"/>
  </processor>
  <sink name="k"/>
  <link from="s:out" to="p:in"/>
  <link from="p:out" to="k:in"/>
</scufl>"#;
    let inputs = r#"<inputdata><input name="s"><item type="file" gfn="gfn://x/i0" bytes="64"/><item type="file" gfn="gfn://x/i1" bytes="64"/></input></inputdata>"#;
    (0..3)
        .map(|_| {
            let mut daemon = Daemon::new(
                Box::new(VirtualBackend::new()),
                DataStore::in_memory(StoreConfig::default()),
                moteur_scufl::parse_submission,
                DaemonConfig::default(),
            );
            let start = Instant::now();
            for _ in 0..waves {
                for k in 0..8 {
                    let tenant = ["a", "b", "c", "d"][k % 4];
                    let (config, ft) = (EnactorConfig::sp_dp(), FtConfig::default());
                    daemon.submit(tenant, workflow, inputs, config, ft).unwrap();
                }
                daemon.drain();
            }
            assert_eq!(daemon.drain(), 8 * waves);
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn four_times_the_waves_cost_about_four_times_the_time() {
    let small = best_of_three_waves(WAVES);
    let large = best_of_three_waves(4 * WAVES);
    let ratio = large / (4.0 * small);
    eprintln!("daemon: {small:.4} s -> {large:.4} s, ratio {ratio:.2}");
    assert!(
        ratio <= 2.0,
        "{WAVES} waves in {small:.4} s, {} in {large:.4} s: ratio {ratio:.2} \
         (1.0 is linear, 4.0 quadratic)",
        4 * WAVES
    );
}

/// A SCUFL service `name` reading `in` and writing `out`.
fn processor(name: &str) -> String {
    format!(
        r#"  <processor name="{name}" compute="1">
    <executable name="x">
      <access type="URL"><path value="http://h"/></access>
      <value value="x"/>
      <input name="in" option="-i"><access type="GFN"/></input>
      <output name="out" option="-o"><access type="GFN"/></output>
    </executable>
  </processor>
"#
    )
}

/// A source feeding a chain of `n` services into one sink, or with
/// `fan_out` feeding `n` services that each end in a sink of their own.
fn graph(n: usize, fan_out: bool) -> String {
    let mut doc = String::from("<scufl name=\"graph\">\n  <source name=\"s\"/>\n");
    for i in 0..n {
        doc += &processor(&format!("p{i}"));
        let _ = match fan_out {
            true => writeln!(doc, "  <sink name=\"k{i}\"/>"),
            false => Ok(()),
        };
    }
    if !fan_out {
        doc += "  <sink name=\"k\"/>\n";
    }
    doc += "  <link from=\"s:out\" to=\"p0:in\"/>\n";
    for i in 1..n {
        let from = if fan_out { "s" } else { &format!("p{}", i - 1) };
        let _ = writeln!(doc, "  <link from=\"{from}:out\" to=\"p{i}:in\"/>");
    }
    for i in 0..n {
        let _ = match fan_out {
            true => writeln!(doc, "  <link from=\"p{i}:out\" to=\"k{i}:in\"/>"),
            false if i + 1 == n => writeln!(doc, "  <link from=\"p{i}:out\" to=\"k:in\"/>"),
            false => Ok(()),
        };
    }
    doc + "</scufl>\n"
}

/// Best-of-5 wall seconds of `work` over the graph of `n` services.
fn best_of_five_graphs(n: usize, fan_out: bool, work: fn(&str) -> usize) -> f64 {
    let doc = graph(n, fan_out);
    (0..5)
        .map(|_| {
            let start = Instant::now();
            assert!(work(&doc) > 0);
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// `moteur lint`'s path: lenient parse, the graph-stage rules, the
/// human rendering against the source text. Returns the bytes rendered.
fn lint_and_render(doc: &str) -> usize {
    let (workflow, mut diagnostics) = moteur_scufl::lint_source(doc);
    let mut report = lint_workflow(&workflow.expect("the document parses"));
    report.diagnostics.append(&mut diagnostics);
    render_human(&report, "graph.xml", Some(doc)).len()
}

/// Strict parse, then an enactment of one item; returns the jobs run.
fn parse_and_enact(doc: &str) -> usize {
    let workflow = moteur_scufl::parse_workflow(doc).unwrap();
    let inputs = r#"<inputdata><input name="s"><item type="file" gfn="gfn://x/i0" bytes="64"/></input></inputdata>"#;
    let inputs = moteur_scufl::parse_input_data(inputs).unwrap();
    let result = Enactment::new(&workflow, &inputs, EnactorConfig::sp_dp())
        .run(&mut VirtualBackend::new())
        .unwrap();
    assert!(result.sink_count("k") <= 1);
    workflow.processors.len()
}

/// The ratio of the large graph's cost to four times the small one's.
fn graph_ratio(label: &str, n: usize, fan_out: bool, work: fn(&str) -> usize) -> f64 {
    let small = best_of_five_graphs(n, fan_out, work);
    let large = best_of_five_graphs(4 * n, fan_out, work);
    let ratio = large / (4.0 * small);
    eprintln!(
        "{label}: {n} services {small:.4} s -> {} {large:.4} s, ratio {ratio:.2}",
        4 * n
    );
    ratio
}

#[test]
fn a_chain_four_times_as_long_lints_in_about_four_times_the_time() {
    let ratio = graph_ratio("lint chain", 1_000, false, lint_and_render);
    assert!(
        ratio <= 2.0,
        "ratio {ratio:.2} (1.0 is linear, 4.0 quadratic)"
    );
}

/// Best-of-5 wall seconds of job grouping on the chain of `n`
/// descriptor-bound services, every pair of which groups.
fn best_of_five_groupings(n: usize) -> f64 {
    let workflow = moteur_scufl::parse_workflow(&graph(n, false)).unwrap();
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let grouped = group_workflow(&workflow).unwrap();
            let elapsed = start.elapsed().as_secs_f64();
            assert_eq!(grouped.processors.len(), 3, "source, one group, sink");
            elapsed
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn a_chain_four_times_as_long_groups_in_about_four_times_the_time() {
    const SERVICES: usize = 500;
    let small = best_of_five_groupings(SERVICES);
    let large = best_of_five_groupings(4 * SERVICES);
    let ratio = large / (4.0 * small);
    eprintln!(
        "group chain: {SERVICES} services {small:.4} s -> {} {large:.4} s, ratio {ratio:.2}",
        4 * SERVICES
    );
    assert!(
        ratio <= 2.0,
        "ratio {ratio:.2} (1.0 is linear, 4.0 quadratic)"
    );
}

#[test]
fn a_chain_four_times_as_long_enacts_in_at_most_six_times_four_times_the_time() {
    let ratio = graph_ratio("enact chain", 200, false, parse_and_enact);
    assert!(
        ratio <= 6.0,
        "ratio {ratio:.2} (4.0 is quadratic, 16.0 cubic)"
    );
}

#[test]
fn a_fan_out_four_times_as_wide_enacts_in_at_most_six_times_four_times_the_time() {
    let ratio = graph_ratio("enact fan-out", 200, true, parse_and_enact);
    assert!(
        ratio <= 6.0,
        "ratio {ratio:.2} (4.0 is quadratic, 16.0 cubic)"
    );
}
