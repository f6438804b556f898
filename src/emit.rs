//! One export table: every output a run can produce is one [`Kind`] row
//! of [`KINDS`] — its name, the sinks it needs, whether it needs the
//! `WorkflowResult`, whether `-` (stdout) is allowed, its renderer and
//! its "… written to PATH" line. `--emit kind=path[,kind=path]` selects
//! rows; both binaries walk the table three times: [`Emit::parse`] the
//! spec, [`Emit::attach`] the sinks the selected rows need, and
//! [`Emit::write`] the files and stdout sections in table order.
//!
//! "Which output implies which sink" lives in the `needs` column and
//! nowhere else: `openmetrics` needs metrics + spans, `chrome-trace`
//! needs metrics, and a caller that wants a sink for its own reasons
//! (`moteur run --slo` needs the timeline) says so with
//! [`Emit::require`], which also brings that sink's automatic rows (the
//! bottleneck attribution).

use crate::cli::wrap;
use moteur::obs::timeline::TimelineState;
use moteur::{
    chrome_trace_with_metrics, critical_path, detect_bottlenecks, diagram, export_provenance,
    prof_to_json, render_critical_path, render_openmetrics_with_prof, render_report, EventSink,
    JsonlSink, MetricsRegistry, MetricsSink, Obs, ProcessorKind, Prof, SpanBuffer, SpanSink,
    TimelineSink, Workflow, WorkflowResult,
};
use std::sync::{Arc, Mutex, MutexGuard};

/// A sink (or the profiler) a row reads from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Need {
    Jsonl,
    Metrics,
    Spans,
    Timeline,
    Prof,
}

/// Where a row's bytes may go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Via {
    /// `kind=PATH` only.
    File,
    /// `kind=PATH`, or `kind=-` for a stdout section after a blank line.
    Text,
    /// Not selectable: a stdout section printed whenever the row's needs
    /// are attached (and the result exists, if it needs one).
    Auto,
    /// As [`Via::Auto`], on stderr and without the blank line.
    AutoStderr,
}

/// The bytes of one output and what follows PATH on its "written to"
/// line.
#[derive(Debug, Default)]
pub struct Doc {
    bytes: String,
    note: String,
}

impl From<String> for Doc {
    fn from(bytes: String) -> Doc {
        Doc {
            bytes,
            note: String::new(),
        }
    }
}

/// One output kind.
#[derive(Debug)]
pub struct Kind {
    pub name: &'static str,
    pub needs: &'static [Need],
    /// Needs a finished enactment, so only `moteur run` offers it.
    /// (`metrics` reads no field of the result; it is marked because
    /// `moteur-gridsim` has never written it and this table adds no
    /// output to either binary.)
    pub needs_result: bool,
    pub via: Via,
    /// A file prints "`written` written to PATH".
    pub written: &'static str,
    /// `None`: the sink wrote the file as the events arrived.
    pub render: Option<fn(&Ctx) -> Doc>,
}

type Render = fn(&Ctx) -> Doc;

const fn kind(name: &'static str, via: Via, written: &'static str, render: Option<Render>) -> Kind {
    Kind {
        name,
        needs: &[],
        needs_result: false,
        via,
        written,
        render,
    }
}

/// A document that goes to a file.
const fn file(name: &'static str, written: &'static str, render: Render) -> Kind {
    kind(name, File, written, Some(render))
}

/// A section of the run's report: stdout (`-`) or a file.
const fn text(name: &'static str, written: &'static str, render: Render) -> Kind {
    kind(name, Text, written, Some(render)).of_result()
}

/// An unnamed row that rides along with its needs.
const fn auto(via: Via, render: Render) -> Kind {
    kind("", via, "", Some(render))
}

impl Kind {
    const fn needs(mut self, needs: &'static [Need]) -> Kind {
        self.needs = needs;
        self
    }

    const fn of_result(mut self) -> Kind {
        self.needs_result = true;
        self
    }
}

use Need::{Jsonl, Metrics, Prof as Profiler, Spans, Timeline};
use Via::{Auto, AutoStderr, File, Text};

/// The table, in the order `moteur run` has always printed its outputs.
pub static KINDS: &[Kind] = &[
    text("report", "report", |c| render_report(c.result()).into()),
    file("provenance", "provenance", |c| {
        export_provenance(c.result()).into()
    })
    .of_result(),
    kind("events", File, "events", None).needs(&[Jsonl]),
    file("metrics", "metrics", |c| c.metrics().to_json().into())
        .needs(&[Metrics])
        .of_result(),
    file("chrome-trace", "chrome trace", |c| Doc {
        bytes: chrome_trace_with_metrics(c.result(), Some(&c.metrics())),
        note: " (load in ui.perfetto.dev)".to_string(),
    })
    .needs(&[Metrics])
    .of_result(),
    file("spans", "spans", |c| {
        let tree = c.spans().snapshot();
        Doc {
            bytes: tree.to_jsonl(),
            note: format!(" ({} spans)", tree.len()),
        }
    })
    .needs(&[Spans]),
    file("openmetrics", "openmetrics", |c| {
        let tree = c.spans().snapshot();
        let prof = c.prof().is_enabled().then(|| c.prof().report());
        render_openmetrics_with_prof(&c.metrics(), Some(&tree), prof.as_ref()).into()
    })
    .needs(&[Metrics, Spans]),
    file("profile", "profile", |c| {
        prof_to_json(&c.prof().report()).into()
    })
    .needs(&[Profiler]),
    file("profile-collapsed", "collapsed stacks", |c| {
        c.prof().report().render_collapsed().into()
    })
    .needs(&[Profiler]),
    auto(AutoStderr, |c| c.prof().report().render_table().into()).needs(&[Profiler]),
    file("timeline", "timeline", |c| {
        c.timeline().timeline.to_json().into()
    })
    .needs(&[Timeline]),
    file("timeline-csv", "timeline csv", |c| {
        c.timeline().timeline.to_csv().into()
    })
    .needs(&[Timeline]),
    auto(Auto, |c| {
        detect_bottlenecks(&c.timeline().stats).render().into()
    })
    .needs(&[Timeline]),
    text("critical-path", "critical path", |c| {
        render_critical_path(&critical_path(c.result())).into()
    }),
    text("diagram", "diagram", |c| {
        let (wf, result) = c.run.expect("row needs the result");
        let services = wf.processors.iter();
        let names: Vec<&str> = services
            .filter(|p| p.kind == ProcessorKind::Service)
            .map(|p| p.name.as_str())
            .collect();
        diagram::render(&result.invocations, &names).into()
    }),
    // A degraded run (quarantined items) always says what it lost.
    auto(Auto, |c| {
        let report = c.result().report();
        if report.ok() {
            Doc::default()
        } else {
            report.render().into()
        }
    })
    .of_result(),
    file("workflow-report", "workflow report", |c| {
        c.result().report().to_json().into()
    })
    .of_result(),
];

/// The handles the attached sinks left behind.
#[derive(Debug)]
pub struct Sinks {
    metrics: Option<Arc<Mutex<MetricsRegistry>>>,
    spans: Option<SpanBuffer>,
    timeline: Option<Arc<Mutex<TimelineState>>>,
    prof: Prof,
}

/// What a renderer may read.
#[derive(Debug)]
pub struct Ctx<'a> {
    sinks: &'a Sinks,
    run: Option<(&'a Workflow, &'a WorkflowResult)>,
}

impl Ctx<'_> {
    fn result(&self) -> &WorkflowResult {
        self.run.expect("row needs the result").1
    }

    fn metrics(&self) -> MutexGuard<'_, MetricsRegistry> {
        let registry = self.sinks.metrics.as_ref().expect("row needs metrics");
        registry.lock().expect("metrics registry")
    }

    fn spans(&self) -> &SpanBuffer {
        self.sinks.spans.as_ref().expect("row needs spans")
    }

    fn timeline(&self) -> MutexGuard<'_, TimelineState> {
        let state = self.sinks.timeline.as_ref().expect("row needs timeline");
        state.lock().expect("timeline state")
    }

    fn prof(&self) -> &Prof {
        &self.sinks.prof
    }
}

/// A parsed `--emit` spec: the selected rows with their destinations.
#[derive(Debug)]
pub struct Emit {
    selected: Vec<(&'static Kind, String)>,
    required: Vec<Need>,
}

/// The rows `--emit` can name (the automatic ones have no name).
fn selectable() -> impl Iterator<Item = &'static Kind> {
    KINDS.iter().filter(|k| !k.name.is_empty())
}

/// The kinds a binary offers: all of them, or those that need no result.
fn offered(with_result: bool) -> impl Iterator<Item = &'static Kind> {
    selectable().filter(move |k| with_result || !k.needs_result)
}

fn names(kinds: impl Iterator<Item = &'static Kind>, separator: &str) -> String {
    kinds.map(|k| k.name).collect::<Vec<_>>().join(separator)
}

/// The lines `--help` prints under a binary's `--emit` flag.
pub fn help(with_result: bool) -> String {
    let kinds = offered(with_result).map(|k| k.name.to_string());
    let mut out = wrap("      KIND is one of:".to_string(), kinds, "         ");
    if with_result {
        let text = names(selectable().filter(|k| k.via == Text), ", ");
        out.push_str(&format!("      PATH `-` prints {text} to stdout\n"));
    }
    out
}

/// The hint for an old per-format flag: `--events` is `--emit events=PATH`.
pub fn removed_flag(flag: &str) -> Option<String> {
    let kind = selectable().find(|k| flag.strip_prefix("--") == Some(k.name))?;
    let dest = if kind.via == Text { "-" } else { "PATH" };
    Some(format!("use --emit {}={dest}", kind.name))
}

impl Emit {
    /// Parse `kind=path[,kind=path]`. `with_result` is whether the
    /// caller will have a `WorkflowResult` to give [`Emit::write`].
    pub fn parse(spec: Option<&str>, with_result: bool) -> Result<Emit, String> {
        let mut selected: Vec<(&'static Kind, String)> = Vec::new();
        for item in spec.unwrap_or("").split(',').filter(|i| !i.is_empty()) {
            let (name, path) = match item.split_once('=') {
                Some((name, path)) if !path.is_empty() => (name, path),
                _ => return Err(format!("--emit `{item}` needs KIND=PATH")),
            };
            let Some(kind) = selectable().find(|k| k.name == name) else {
                let offered = names(offered(with_result), "|");
                return Err(format!("--emit: unknown kind `{name}` ({offered})"));
            };
            if kind.needs_result && !with_result {
                let offered = names(offered(with_result), "|");
                return Err(format!(
                    "--emit: `{name}` needs a workflow result, which only `moteur run` has ({offered})"
                ));
            }
            if selected.iter().any(|(k, _)| k.name == name) {
                return Err(format!("--emit: `{name}` given twice"));
            }
            if path == "-" && kind.via != Text {
                return Err(format!(
                    "--emit: `{name}` is not text; give it a file, not `-`"
                ));
            }
            selected.push((kind, path.to_string()));
        }
        Ok(Emit {
            selected,
            required: Vec::new(),
        })
    }

    /// Attach `need` whatever the spec selected.
    pub fn require(&mut self, need: Need) {
        self.required.push(need);
    }

    fn needs(&self, need: Need) -> bool {
        let selected = self.selected.iter().any(|(k, _)| k.needs.contains(&need));
        selected || self.required.contains(&need)
    }

    fn path(&self, kind: &Kind) -> Option<&str> {
        let found = self.selected.iter().find(|(k, _)| std::ptr::eq(*k, kind));
        found.map(|(_, path)| path.as_str())
    }

    /// Create exactly the sinks the selected rows need; a run that
    /// selects nothing keeps the zero-overhead no-op [`Obs`].
    pub fn attach(&self) -> Result<(Obs, Sinks), String> {
        let mut sinks: Vec<Box<dyn EventSink>> = Vec::new();
        for (kind, path) in &self.selected {
            if kind.needs.contains(&Jsonl) {
                let sink = JsonlSink::create(path).map_err(|e| format!("creating {path}: {e}"))?;
                sinks.push(Box::new(sink));
            }
        }
        let metrics = self.needs(Metrics).then(|| {
            let (sink, registry) = MetricsSink::new();
            sinks.push(Box::new(sink));
            registry
        });
        let spans = self.needs(Spans).then(|| {
            let (sink, buffer) = SpanSink::new();
            sinks.push(Box::new(sink));
            buffer
        });
        let timeline = self.needs(Timeline).then(|| {
            let sink = TimelineSink::new();
            let state = sink.state();
            sinks.push(Box::new(sink));
            state
        });
        let prof = if self.needs(Profiler) {
            Prof::enabled()
        } else {
            Prof::off()
        };
        let obs = Obs::new(sinks).with_prof(prof.clone());
        let sinks = Sinks {
            metrics,
            spans,
            timeline,
            prof,
        };
        Ok((obs, sinks))
    }

    /// Write every selected row, and every automatic row whose needs are
    /// attached, in table order. `run` is the enacted workflow and its
    /// result, for the caller that parsed the spec `with_result`.
    pub fn write(
        &self,
        sinks: &Sinks,
        run: Option<(&Workflow, &WorkflowResult)>,
    ) -> Result<(), String> {
        let ctx = Ctx { sinks, run };
        for kind in KINDS {
            let automatic = matches!(kind.via, Auto | AutoStderr)
                && kind.needs.iter().all(|n| self.needs(*n))
                && (run.is_some() || !kind.needs_result);
            let path = self.path(kind);
            if path.is_none() && !automatic {
                continue;
            }
            let doc = kind.render.map_or_else(Doc::default, |render| render(&ctx));
            match path {
                None if kind.via == AutoStderr => eprint!("{}", doc.bytes),
                None | Some("-") if doc.bytes.is_empty() => {}
                None | Some("-") => print!("\n{}", doc.bytes),
                Some(path) => {
                    if kind.render.is_some() {
                        std::fs::write(path, doc.bytes)
                            .map_err(|e| format!("writing {path}: {e}"))?;
                    }
                    println!("{} written to {path}{}", kind.written, doc.note);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_unique_and_fourteen() {
        let mut names: Vec<&str> = selectable().map(|k| k.name).collect();
        assert_eq!(names.len(), 14);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 14);
        // Automatic rows are the only unnamed ones, and nothing else is
        // automatic.
        for kind in KINDS {
            assert_eq!(
                kind.name.is_empty(),
                matches!(kind.via, Auto | AutoStderr),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn the_rows_without_a_result_are_the_seven_gridsim_documents() {
        let names: Vec<&str> = selectable()
            .filter(|k| !k.needs_result)
            .map(|k| k.name)
            .collect();
        assert_eq!(
            names,
            [
                "events",
                "spans",
                "openmetrics",
                "profile",
                "profile-collapsed",
                "timeline",
                "timeline-csv"
            ]
        );
        assert_eq!(super::names(offered(false), "|"), names.join("|"));
    }

    #[test]
    fn only_the_events_row_is_written_by_its_sink() {
        for kind in KINDS {
            assert_eq!(kind.render.is_none(), kind.needs == [Jsonl], "{kind:?}");
        }
    }

    #[test]
    fn a_spec_attaches_exactly_the_sinks_its_rows_need() {
        let emit = Emit::parse(Some("openmetrics=m.om,report=-"), true).unwrap();
        assert!(emit.needs(Metrics) && emit.needs(Spans));
        assert!(!emit.needs(Jsonl) && !emit.needs(Timeline) && !emit.needs(Profiler));
        let (obs, sinks) = emit.attach().unwrap();
        assert!(obs.enabled() && !sinks.prof.is_enabled());
        assert!(sinks.metrics.is_some() && sinks.spans.is_some() && sinks.timeline.is_none());

        let mut emit = Emit::parse(None, true).unwrap();
        assert!(
            !emit.attach().unwrap().0.enabled(),
            "nothing selected, no sink"
        );
        emit.require(Timeline);
        let (obs, sinks) = emit.attach().unwrap();
        assert!(obs.enabled() && sinks.timeline.is_some());
    }

    #[test]
    fn malformed_specs_are_rejected_with_the_offered_kinds() {
        let err = |spec: &str, with_result: bool| Emit::parse(Some(spec), with_result).unwrap_err();
        assert_eq!(
            err("evnts=e.jsonl", false),
            "--emit: unknown kind `evnts` \
             (events|spans|openmetrics|profile|profile-collapsed|timeline|timeline-csv)"
        );
        assert!(err("evnts=e.jsonl", true).contains("|workflow-report)"));
        assert_eq!(
            err("events=a,events=b", true),
            "--emit: `events` given twice"
        );
        assert_eq!(err("events", true), "--emit `events` needs KIND=PATH");
        assert_eq!(err("events=", true), "--emit `events=` needs KIND=PATH");
        assert_eq!(
            err("metrics=-", true),
            "--emit: `metrics` is not text; give it a file, not `-`"
        );
        assert!(err("report=-", false).starts_with("--emit: `report` needs a workflow result"));
        assert!(Emit::parse(Some("report=-,diagram=d.txt"), true).is_ok());
    }

    #[test]
    fn every_removed_flag_has_its_hint() {
        assert_eq!(
            removed_flag("--events").as_deref(),
            Some("use --emit events=PATH")
        );
        assert_eq!(
            removed_flag("--report").as_deref(),
            Some("use --emit report=-")
        );
        assert_eq!(
            selectable()
                .filter_map(|k| removed_flag(&format!("--{}", k.name)))
                .count(),
            14
        );
        assert_eq!(removed_flag("--seed"), None);
        assert_eq!(removed_flag("--"), None);
    }
}
