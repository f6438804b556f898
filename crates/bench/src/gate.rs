//! Every campaign's pass criteria, stated as data.
//!
//! Every campaign that writes a `BENCH_*.json` document has one table
//! here: a [`Campaign`] naming the document's schema and a list of
//! [`Row`]s, each a labelled comparison `lhs op rhs` between numbers
//! read from the document ([`Expr`]). [`Campaign::check`] is the only
//! interpreter: it opens the document ([`expect_schema`]), looks the
//! operands up, turns a missing or mistyped field into an `Err`, and
//! returns one [`GateCheck`] per row.
//!
//! The same tables give every verdict in the crate. A report's `ok()`
//! (and the `"ok"` field of its document) is its table evaluated over
//! the document the report renders, and a campaign command exits by
//! the table's verdict on the file it just wrote — so each bound and
//! each comparison is written once, in a row below.
//!
//! The rows are absolute: they say what must hold of a document on its
//! own. "No worse than before" is not a row. Every field a campaign
//! writes is a function of (code, seed, command line), the nine
//! documents are committed as `ci.sh` writes them, and its closing
//! `git diff --exit-code` compares them byte for byte — the committed
//! document is the baseline, at zero tolerance in both directions, and
//! a change that moves a number commits the regenerated file.
//!
//! To gate something new, add a [`Row`] to the campaign's table: pick
//! the `what` label the failure message prints, the operands and the
//! [`Op`]; add `.when_alloc()` if the numbers only exist under the
//! counting allocator. The table test at the bottom of this file then
//! asks for a one-field mutation of the campaign's document that fails
//! exactly that row.

use crate::faults::FaultStrategy;
use crate::scale::ALLOCS_PER_EVENT_BUDGET;
use crate::stream::{EAGER_UNDERCUT_FACTOR, PIPELINE_PEAK_BUDGET};
use moteur::obs::json::{expect_schema, JsonValue};

/// One evaluated row: both sides and whether the comparison held.
#[derive(Debug, Clone)]
pub struct GateCheck {
    /// What was compared, e.g. `drift/nop` or `daemon/ttfj_p99_secs`.
    pub what: String,
    pub lhs: f64,
    pub rhs: f64,
    pub ok: bool,
}

/// Cross-tenant sharing bar for the daemon wave: the warm tenants must
/// reuse at least this fraction of the seed tenant's derivations.
pub const DAEMON_HIT_RATIO_FLOOR: f64 = 0.9;

/// Admission-latency ceiling for the daemon wave, virtual seconds. The
/// default 100-submission wave queues 24 workflows per tenant behind a
/// 4-deep in-flight cap; with the memo table warm each admitted
/// instance drains in a few virtual seconds of fetches, so the p99
/// time-to-first-job measures 30 s and sits well under this bound
/// unless admission or fair dispatch regresses.
pub const DAEMON_TTFJ_P99_CEILING_SECS: f64 = 600.0;

/// An operand: a number read from a campaign document. Booleans read
/// as 0/1 and arrays as their length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expr {
    Const(f64),
    /// A top-level field.
    Top(&'static str),
    /// Field `.3` of the element of array `.0` whose field `.1` is `.2`.
    In(&'static str, &'static str, &'static str, &'static str),
    /// A field of the element an [`Each`] row is visiting.
    Elem(&'static str),
    /// Field `.1` summed over the elements of array `.0`.
    Sum(&'static str, &'static str),
    /// 1 when the string found by `.0` is `.1`, else 0.
    Is(&'static Expr, &'static str),
    Mul(&'static Expr, &'static Expr),
}

/// The comparison `lhs op rhs`; `EqualNonZero` also requires `rhs > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Below,
    AtMost,
    Equal,
    EqualNonZero,
    AtLeast,
}

/// What an `each` row visits: one check per element, labelled by
/// substituting the element's name for `{}` in the row's `what`.
/// Visiting nothing is an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Each {
    /// The elements of array `.0`, named by their field `.1`.
    Of(&'static str, &'static str),
}

/// One gate criterion.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub what: &'static str,
    pub lhs: Expr,
    pub op: Op,
    pub rhs: Expr,
    pub each: Option<Each>,
    /// Only checked when the document has `"alloc_installed": true`.
    pub when_alloc: bool,
}

const fn row(what: &'static str, lhs: Expr, op: Op, rhs: Expr) -> Row {
    Row {
        what,
        lhs,
        op,
        rhs,
        each: None,
        when_alloc: false,
    }
}

impl Row {
    const fn each(mut self, each: Each) -> Row {
        self.each = Some(each);
        self
    }

    const fn when_alloc(mut self) -> Row {
        self.when_alloc = true;
        self
    }
}

/// One campaign's table: the document it writes and the rows it must
/// satisfy. `name` is also the error label and the middle of the file
/// name.
#[derive(Debug)]
pub struct Campaign {
    pub name: &'static str,
    pub schema: &'static str,
    pub rows: &'static [Row],
}

use Expr::{Const, Elem, In, Is, Mul, Sum, Top};
use Op::{AtLeast, AtMost, Below, Equal, EqualNonZero};

const CONFIGS: Each = Each::Of("configs", "config");

/// `BENCH_summary.json`: model and enactor still agree on the ideal
/// grid. (The makespans and speed-ups themselves are held by the byte
/// comparison with the committed document.)
pub static SUMMARY: Campaign = Campaign {
    name: "summary",
    schema: crate::sweep::SUMMARY_SCHEMA,
    rows: &[row("drift/{}", Elem("drift_ok"), Equal, Const(1.0)).each(CONFIGS)],
};

/// `BENCH_warm.json`: the cold run still satisfies eqs. 1–4 and every
/// warm invocation hits the store.
pub static WARM: Campaign = Campaign {
    name: "warm",
    schema: crate::warm::WARM_SCHEMA,
    rows: &[
        row("warm/cold_drift", Top("drift_ok"), Equal, Const(1.0)),
        row("warm/misses", Top("cache_misses"), Equal, Const(0.0)),
    ],
};

const fn mean_makespan(strategy: FaultStrategy) -> Expr {
    In(
        "strategies",
        "strategy",
        strategy.name(),
        "mean_makespan_secs",
    )
}

/// `BENCH_faults.json`: timeout+replication beats naive resubmission
/// on mean makespan and no strategy quarantined an item.
pub static FAULTS: Campaign = Campaign {
    name: "faults",
    schema: crate::faults::FAULTS_SCHEMA,
    rows: &[
        row(
            "faults/replication_vs_naive",
            mean_makespan(FaultStrategy::TimeoutReplication),
            Below,
            mean_makespan(FaultStrategy::Naive),
        ),
        row(
            "faults/quarantined",
            Sum("strategies", "quarantined"),
            Equal,
            Const(0.0),
        ),
    ],
};

/// `BENCH_timeline.json`: the timeline's link-byte totals equal the
/// enactor's `bytes_transferred` on the ideal grid, and the loaded grid
/// is attributed to the CE batch queues.
pub static TIMELINE: Campaign = Campaign {
    name: "timeline",
    schema: crate::timeline::TIMELINE_BENCH_SCHEMA,
    rows: &[
        row(
            "timeline/ideal_byte_accounting",
            In("scenarios", "scenario", "ideal", "timeline_link_bytes"),
            EqualNonZero,
            In("scenarios", "scenario", "ideal", "bytes_transferred"),
        ),
        row(
            "timeline/loaded_queue_verdict",
            Is(
                &In("scenarios", "scenario", "egee-loaded", "verdict"),
                "queue-wait",
            ),
            Equal,
            Const(1.0),
        ),
    ],
};

/// `BENCH_plan.json`: every scenario's static per-edge byte intervals
/// contain the observed staging totals (shown as contained edges out
/// of edges), and the site partition beats centralized routing on the
/// data-heavy bronze variant in the planner's own cost model.
pub static PLAN: Campaign = Campaign {
    name: "plan",
    schema: crate::plan::PLAN_BENCH_SCHEMA,
    rows: &[
        row(
            "plan/{}_containment",
            Mul(&Elem("all_contained"), &Elem("edges")),
            EqualNonZero,
            Elem("edges"),
        )
        .each(Each::Of("scenarios", "scenario")),
        row(
            "plan/partition_advantage",
            Top("heavy_partitioned_secs"),
            Below,
            Top("heavy_centralized_secs"),
        ),
    ],
};

/// `BENCH_daemon.json`: every submission succeeded, the wave reused
/// the seed tenant's derivations, and admission stayed bounded.
pub static DAEMON: Campaign = Campaign {
    name: "daemon",
    schema: crate::daemon::DAEMON_BENCH_SCHEMA,
    rows: &[
        row(
            "daemon/completed",
            Top("succeeded"),
            Equal,
            Top("n_workflows"),
        ),
        row(
            "daemon/cross_tenant_hit_ratio",
            Top("cross_tenant_hit_ratio"),
            AtLeast,
            Const(DAEMON_HIT_RATIO_FLOOR),
        ),
        row(
            "daemon/ttfj_p99_secs",
            Top("ttfj_p99_secs"),
            AtMost,
            Const(DAEMON_TTFJ_P99_CEILING_SECS),
        ),
    ],
};

/// `BENCH_scale.json`: the event and job targets were reached inside
/// the allocations-per-event budget.
pub static SCALE: Campaign = Campaign {
    name: "scale",
    schema: crate::scale::SCALE_SCHEMA,
    rows: &[
        row(
            "scale/events_target",
            Top("events_processed"),
            AtLeast,
            Top("target_events"),
        ),
        row(
            "scale/jobs_target",
            Top("enact_jobs_submitted"),
            AtLeast,
            Top("enact_jobs"),
        ),
        row(
            "scale/allocs_per_event_budget",
            Top("allocs_per_event"),
            AtMost,
            Const(ALLOCS_PER_EVENT_BUDGET),
        )
        .when_alloc(),
    ],
};

/// `BENCH_stream.json`: every item completed, and the pipeline's peak
/// live bytes beyond the materialised inputs sit inside the budget
/// *and* undercut the eager per-item projection — together the
/// O(port-capacity)-not-O(n-items) memory claim.
pub static STREAM: Campaign = Campaign {
    name: "stream",
    schema: crate::stream::STREAM_SCHEMA,
    rows: &[
        row(
            "stream/items_completed",
            Top("items_completed"),
            AtLeast,
            Top("n_items"),
        ),
        row(
            "stream/pipeline_peak_budget",
            Top("pipeline_peak_bytes"),
            AtMost,
            Const(PIPELINE_PEAK_BUDGET as f64),
        )
        .when_alloc(),
        row(
            "stream/undercuts_eager_projection",
            Mul(&Top("pipeline_peak_bytes"), &Const(EAGER_UNDERCUT_FACTOR)),
            AtMost,
            Top("eager_projected_bytes"),
        )
        .when_alloc(),
    ],
};

impl Each {
    fn names<'a>(&self, doc: &'a JsonValue) -> Option<Vec<&'a str>> {
        let Each::Of(array, key) = self;
        doc.array_at(array)?.iter().map(|e| e.str_at(key)).collect()
    }

    fn elem<'a>(&self, doc: &'a JsonValue, name: &str) -> Option<&'a JsonValue> {
        let Each::Of(array, key) = self;
        doc.array_at(array)?
            .iter()
            .find(|e| e.str_at(key) == Some(name))
    }
}

/// Where operands are looked up: a document and, under an `each` row,
/// the element being visited.
struct Scope<'a> {
    label: &'a str,
    doc: &'a JsonValue,
    elem: Option<&'a JsonValue>,
}

impl Expr {
    fn find<'a>(&self, scope: &Scope<'a>) -> Option<&'a JsonValue> {
        match *self {
            Top(field) => scope.doc.get(field),
            In(array, key, name, field) => Each::Of(array, key).elem(scope.doc, name)?.get(field),
            Elem(field) => scope.elem?.get(field),
            _ => None,
        }
    }

    fn num(&self, scope: &Scope) -> Result<f64, String> {
        let flag = |b: bool| f64::from(u8::from(b));
        let value = match *self {
            Const(c) => Some(c),
            Sum(array, field) => scope
                .doc
                .array_at(array)
                .and_then(|items| items.iter().map(|e| e.f64_at(field)).sum()),
            Is(found, literal) => found.find(scope).map(|v| flag(v.as_str() == Some(literal))),
            Mul(a, b) => Some(a.num(scope)? * b.num(scope)?),
            _ => match self.find(scope) {
                Some(JsonValue::Number(n)) => Some(*n),
                Some(JsonValue::Bool(b)) => Some(flag(*b)),
                Some(JsonValue::Array(items)) => Some(items.len() as f64),
                _ => None,
            },
        };
        value.ok_or_else(|| format!("{}: missing or invalid {self:?}", scope.label))
    }
}

impl Campaign {
    /// The document's file name, `BENCH_<name>.json`.
    pub fn file(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// Evaluate the table over `doc`.
    ///
    /// Fails with `Err` on a malformed, mis-tagged or incomplete
    /// document; a criterion that does not hold is reported through
    /// its [`GateCheck`], not as an error.
    pub fn check(&self, doc: &str) -> Result<Vec<GateCheck>, String> {
        let doc = expect_schema(doc, self.name, self.schema)?;
        let alloc = doc.bool_at("alloc_installed") == Some(true);
        let mut checks = Vec::new();
        for row in self.rows.iter().filter(|row| alloc || !row.when_alloc) {
            let names = match row.each {
                None => vec![""],
                Some(each) => each
                    .names(&doc)
                    .filter(|names| !names.is_empty())
                    .ok_or_else(|| format!("{}: missing or empty {each:?}", self.name))?,
            };
            for name in names {
                let scope = Scope {
                    label: self.name,
                    doc: &doc,
                    elem: row.each.and_then(|each| each.elem(&doc, name)),
                };
                let (lhs, rhs) = (row.lhs.num(&scope)?, row.rhs.num(&scope)?);
                checks.push(GateCheck {
                    what: row.what.replace("{}", name),
                    lhs,
                    rhs,
                    ok: match row.op {
                        Below => lhs < rhs,
                        AtMost => lhs <= rhs,
                        Equal => lhs == rhs,
                        EqualNonZero => lhs == rhs && rhs > 0.0,
                        AtLeast => lhs >= rhs,
                    },
                });
            }
        }
        Ok(checks)
    }

    /// What `doc` fails: the failed rows' labels, or the one error that
    /// made it unreadable. Empty means the campaign passed.
    pub fn failures(&self, doc: &str) -> Vec<String> {
        match self.check(doc) {
            Ok(checks) => checks
                .into_iter()
                .filter(|c| !c.ok)
                .map(|c| c.what)
                .collect(),
            Err(e) => vec![e],
        }
    }

    /// The verdict behind every report's `ok()`.
    pub fn passes(&self, doc: &str) -> bool {
        self.failures(doc).is_empty()
    }

    /// Render a document whose `"ok"` field is this table's verdict on
    /// the rest of it (no row reads `"ok"`).
    pub fn render_with_verdict(&self, render: impl Fn(bool) -> String) -> String {
        render(self.passes(&render(false)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{campaign, daemon, faults, plan, scale, stream, sweep, timeline, warm};

    /// A campaign, a passing document rendered by its own
    /// `render_*_json`, one mutation per table row — `(row index, label
    /// of the check it must fail, anchor text, field after the anchor,
    /// new value)` — and a field whose absence must be an error.
    struct Fixture {
        campaign: &'static Campaign,
        doc: String,
        breaks: Vec<(usize, &'static str, &'static str, &'static str, String)>,
        required: &'static str,
    }

    /// `doc` with the value of the first `"field":` after `anchor` replaced.
    fn set_field(doc: &str, anchor: &str, field: &str, value: &str) -> String {
        let tagged = format!("\"{field}\":");
        let at = doc.find(anchor).expect(anchor);
        let start = at + doc[at..].find(&tagged).expect(field) + tagged.len();
        let end = start + doc[start..].find([',', '}']).expect("value ends");
        format!("{}{value}{}", &doc[..start], &doc[end..])
    }

    fn daemon_report() -> daemon::DaemonReport {
        daemon::DaemonReport {
            n_workflows: 100,
            n_tenants: 4,
            n_data: 2,
            succeeded: 100,
            ttfj_p50_secs: 0.0,
            ttfj_p99_secs: 120.0,
            seed_jobs: 10,
            cross_tenant_hits: 500,
            cross_tenant_misses: 0,
            store_entries: 10,
            tenants: Vec::new(),
        }
    }

    fn fixtures() -> Vec<Fixture> {
        let s = |v: &str| v.to_string();
        let spec = campaign::CampaignSpec::ideal_chain(vec![1, 2]);
        let cells = campaign::run_campaign(&spec).unwrap();
        let summary = sweep::summarize(&spec, sweep::Model::default(), cells).unwrap();
        let warm = warm::WarmReport {
            n_data: 2,
            seed: 1,
            cold_makespan_secs: 330.0,
            warm_makespan_secs: 5.0,
            cold_jobs: 10,
            warm_jobs: 0,
            predicted_secs: 330.0,
            rel_error: 0.0,
            drift_ok: true,
            hits: 10,
            misses: 0,
            speedup: 66.0,
            store_entries: 10,
            store_bytes: 1000,
        };
        let faults = faults::FaultsReport {
            spec: faults::FaultsSpec {
                n_data: 2,
                seed: 1,
                repeats: 1,
                failure_probability: 0.04,
            },
            outcomes: FaultStrategy::ALL
                .into_iter()
                .enumerate()
                .map(|(i, strategy)| faults::StrategyOutcome {
                    strategy: strategy.name(),
                    makespans_secs: vec![1000.0 - 100.0 * i as f64],
                    mean_makespan_secs: 1000.0 - 100.0 * i as f64,
                    max_makespan_secs: 1000.0 - 100.0 * i as f64,
                    jobs_submitted: 10,
                    timeouts: 0,
                    replicas: 0,
                    resubmissions: 0,
                    quarantined: 0,
                })
                .collect(),
        };
        let outcome = |scenario, bytes, link_bytes, verdict: &str| timeline::TimelineOutcome {
            scenario,
            makespan_secs: 330.0,
            jobs_submitted: 13,
            bytes_transferred: bytes,
            timeline_link_bytes: link_bytes,
            peak_queue_depth: 0,
            verdict: verdict.to_string(),
            dominant_fraction: 1.0,
            queue_wait_secs: 0.0,
            transfer_secs: 0.0,
            compute_secs: 330.0,
        };
        let timeline = timeline::TimelineReport {
            spec: timeline::TimelineSpec {
                ideal_n_data: 2,
                loaded_n_data: 6,
                seed: 1,
            },
            outcomes: vec![
                outcome("ideal", 1000, 1000, "compute"),
                outcome("egee-loaded", 5000, 4800, "queue-wait"),
            ],
        };
        let plan = plan::run_plan_bench(&plan::PlanSpec {
            n_data: 2,
            seed: 2006,
        })
        .unwrap();
        let scale = scale::ScaleReport {
            spec: scale::ScaleSpec {
                target_events: 1000,
                enact_jobs: 50,
                seed: 1,
            },
            alloc_installed: true,
            events_processed: 1200,
            gridsim_jobs: 100,
            allocs_per_event: 5.0,
            enact_jobs_submitted: 50,
            enact_makespan_secs: 330.0,
            peak_alloc_bytes: 1_000_000,
            prof: moteur::Prof::off().report(),
        };
        let stream = stream::StreamReport {
            spec: stream::StreamSpec {
                n_items: 1000,
                port_capacity: 16,
                eager_items: 100,
                seed: 1,
            },
            alloc_installed: true,
            items_completed: 1000,
            jobs_submitted: 2000,
            input_bytes: 32_000,
            pipeline_peak_bytes: 40_000,
            eager_bytes_per_item: 750.0,
            eager_projected_bytes: 1e12,
        };
        vec![
            Fixture {
                campaign: &WARM,
                doc: warm::render_warm_json(&warm),
                breaks: vec![
                    (0, "warm/cold_drift", "", "drift_ok", s("false")),
                    (1, "warm/misses", "", "cache_misses", s("1")),
                ],
                required: "cache_misses",
            },
            Fixture {
                campaign: &SUMMARY,
                doc: sweep::render_summary_json(&summary),
                breaks: vec![(0, "drift/dp", "\"config\":\"dp\"", "drift_ok", s("false"))],
                required: "drift_ok",
            },
            Fixture {
                campaign: &FAULTS,
                doc: faults::render_faults_json(&faults),
                breaks: vec![
                    (
                        0,
                        "faults/replication_vs_naive",
                        "\"strategy\":\"timeout+replication\"",
                        "mean_makespan_secs",
                        s("2000"),
                    ),
                    (1, "faults/quarantined", "", "quarantined", s("1")),
                ],
                required: "quarantined",
            },
            Fixture {
                campaign: &TIMELINE,
                doc: timeline::render_timeline_json(&timeline),
                breaks: vec![
                    (
                        0,
                        "timeline/ideal_byte_accounting",
                        "\"scenario\":\"ideal\"",
                        "timeline_link_bytes",
                        s("999"),
                    ),
                    (
                        1,
                        "timeline/loaded_queue_verdict",
                        "\"scenario\":\"egee-loaded\"",
                        "verdict",
                        s("\"transfer\""),
                    ),
                ],
                required: "verdict",
            },
            Fixture {
                campaign: &PLAN,
                doc: plan::render_plan_bench_json(&plan),
                breaks: vec![
                    (
                        0,
                        "plan/cross_containment",
                        "\"scenario\":\"cross\"",
                        "all_contained",
                        s("false"),
                    ),
                    (
                        1,
                        "plan/partition_advantage",
                        "",
                        "heavy_centralized_secs",
                        s("0"),
                    ),
                ],
                required: "edges",
            },
            Fixture {
                campaign: &DAEMON,
                doc: daemon::render_daemon_json(&daemon_report()),
                breaks: vec![
                    (0, "daemon/completed", "", "succeeded", s("99")),
                    (
                        1,
                        "daemon/cross_tenant_hit_ratio",
                        "",
                        "cross_tenant_hit_ratio",
                        s("0.5"),
                    ),
                    (2, "daemon/ttfj_p99_secs", "", "ttfj_p99_secs", s("1e9")),
                ],
                required: "succeeded",
            },
            Fixture {
                campaign: &SCALE,
                doc: scale::render_scale_json(&scale),
                breaks: vec![
                    (0, "scale/events_target", "", "events_processed", s("900")),
                    (1, "scale/jobs_target", "", "enact_jobs_submitted", s("49")),
                    (
                        2,
                        "scale/allocs_per_event_budget",
                        "",
                        "allocs_per_event",
                        (scale::ALLOCS_PER_EVENT_BUDGET * 2.0).to_string(),
                    ),
                ],
                required: "events_processed",
            },
            Fixture {
                campaign: &STREAM,
                doc: stream::render_stream_json(&stream),
                breaks: vec![
                    (0, "stream/items_completed", "", "items_completed", s("900")),
                    (
                        1,
                        "stream/pipeline_peak_budget",
                        "",
                        "pipeline_peak_bytes",
                        (stream::PIPELINE_PEAK_BUDGET + 1).to_string(),
                    ),
                    // Inside the absolute budget, but within 4x of the
                    // eager projection.
                    (
                        2,
                        "stream/undercuts_eager_projection",
                        "",
                        "eager_projected_bytes",
                        s("120000"),
                    ),
                ],
                required: "n_items",
            },
        ]
    }

    fn failed(checks: &[GateCheck]) -> Vec<&str> {
        let failed = checks.iter().filter(|c| !c.ok);
        failed.map(|c| c.what.as_str()).collect()
    }

    #[test]
    fn every_campaign_is_covered_by_a_fixture() {
        // Every table above: one per campaign command of `moteur-bench`.
        let tables = [
            &WARM, &SUMMARY, &FAULTS, &TIMELINE, &PLAN, &DAEMON, &SCALE, &STREAM,
        ];
        let covered: Vec<&str> = fixtures().iter().map(|f| f.campaign.name).collect();
        assert_eq!(covered, tables.map(|c| c.name));
    }

    #[test]
    fn a_passing_document_passes_and_each_mutation_fails_exactly_its_row() {
        for f in fixtures() {
            let name = f.campaign.name;
            let checks = f.campaign.check(&f.doc).unwrap();
            assert!(failed(&checks).is_empty(), "{name}: {checks:?}");
            assert!(checks.len() >= f.campaign.rows.len(), "{name}: {checks:?}");
            assert!(f.campaign.passes(&f.doc), "{name}");

            let rows: Vec<usize> = f.breaks.iter().map(|b| b.0).collect();
            assert_eq!(
                rows,
                (0..f.campaign.rows.len()).collect::<Vec<_>>(),
                "{name}: one mutation per row"
            );
            for (row, label, anchor, field, value) in &f.breaks {
                let broken = set_field(&f.doc, anchor, field, value);
                let checks = f.campaign.check(&broken).unwrap();
                assert_eq!(failed(&checks), [*label], "{name} row {row}");
            }
        }
    }

    #[test]
    fn unreadable_documents_are_errors_for_every_campaign() {
        for f in fixtures() {
            let name = f.campaign.name;
            let check = |doc: &str| f.campaign.check(doc);
            let wrong_schema = f.doc.replacen(f.campaign.schema, "other/v1", 1);
            let err = check(&wrong_schema).unwrap_err();
            assert!(
                err.starts_with(&format!("{name}: unsupported schema")),
                "{err}"
            );
            let err = check(&f.doc[..f.doc.len() / 2]).unwrap_err();
            assert!(err.starts_with(&format!("{name}: ")), "{err}");
            let gone = f.doc.replace(&format!("\"{}\":", f.required), "\"gone\":");
            let err = check(&gone).unwrap_err();
            assert!(err.contains(f.required), "{name}: {err}");
            assert!(check("{").is_err() && check("[]").is_err(), "{name}");
            assert_eq!(f.campaign.failures(&gone), [err], "{name}");
        }
    }

    #[test]
    fn allocator_rows_only_apply_when_the_document_counted_allocations() {
        for f in fixtures() {
            let guarded = f.campaign.rows.iter().filter(|r| r.when_alloc).count();
            if guarded == 0 {
                continue;
            }
            let uncounted = set_field(&f.doc, "", "alloc_installed", "false");
            let count = |doc: &str| f.campaign.check(doc).unwrap().len();
            assert_eq!(count(&f.doc), f.campaign.rows.len());
            assert_eq!(count(&uncounted), f.campaign.rows.len() - guarded);
        }
    }

    /// The case that failed before the tables: `ok()` ignored the p99
    /// ceiling, so `moteur-bench daemon` exited 0 on a wave its own
    /// criteria rejected. A campaign's verdict is its table's verdict
    /// on the document it wrote.
    #[test]
    fn a_reports_ok_is_the_tables_verdict_on_its_document() {
        let mut report = daemon_report();
        assert!(report.ok());
        report.ttfj_p99_secs = DAEMON_TTFJ_P99_CEILING_SECS + 1.0;
        assert!(!report.ok());
        assert_eq!(
            DAEMON.failures(&daemon::render_daemon_json(&report)),
            ["daemon/ttfj_p99_secs"]
        );
        // Documents that carry an `"ok"` field carry this verdict.
        for f in fixtures() {
            let (_, _, anchor, field, value) = &f.breaks[0];
            if f.doc.contains("\"ok\":true") {
                assert!(!f.campaign.passes(&set_field(&f.doc, anchor, field, value)));
            }
        }
    }
}
