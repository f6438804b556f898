//! # moteur
//!
//! A Rust reimplementation of **MOTEUR**, the optimized service-based
//! workflow enactor of Glatard, Montagnat & Pennec, *"Efficient
//! services composition for grid-enabled data-intensive applications"*
//! (HPDC 2006).
//!
//! The crate provides:
//!
//! - a service-based **workflow model** ([`Workflow`]) with ports, data
//!   links, coordination constraints, synchronization barriers and
//!   cycles (run-time-bounded optimization loops, paper Fig. 2);
//! - **iteration strategies** ([`IterationStrategy`]) — streaming dot and cross
//!   products over input streams (Fig. 3) — with provenance
//!   **history trees** ([`History`]) resolving the out-of-order causality
//!   problem of §3.3;
//! - the **enactor** ([`Enactment`]) combining workflow, data and service
//!   parallelism plus **job grouping** ([`group_workflow`]) through the
//!   generic code wrapper (`moteur-wrapper`);
//! - pluggable **backends** ([`Backend`]): ideal virtual time, the
//!   EGEE-like grid simulator, and real worker threads;
//! - the paper's **theoretical makespan model** ([`model`], eqs. 1–4)
//!   and ASCII **execution diagrams** ([`diagram`], Figs. 4–6);
//! - **static diagnostics** ([`lint`]): rustc-style `M0xx` findings
//!   with source spans, plus eq. 1–4 makespan/job-count prediction.
//!
//! ## Quickstart
//!
//! Enact the paper's Fig. 1 workflow (`P1 → {P2, P3}`) on an ideal
//! virtual-time backend with data and service parallelism:
//!
//! ```
//! use moteur::prelude::*;
//!
//! // A trivial in-process service that forwards its input.
//! let forward = |inputs: &[Token]| -> Result<Vec<(String, DataValue)>, String> {
//!     Ok(vec![("out".into(), inputs[0].value.clone())])
//! };
//!
//! let mut wf = Workflow::new("fig1");
//! let src = wf.add_source("source");
//! let p1 = wf.add_service("P1", &["in"], &["out"], ServiceBinding::local(forward));
//! let p2 = wf.add_service("P2", &["in"], &["out"], ServiceBinding::local(forward));
//! let p3 = wf.add_service("P3", &["in"], &["out"], ServiceBinding::local(forward));
//! let sink = wf.add_sink("results");
//! wf.connect(src, "out", p1, "in").unwrap();
//! wf.connect(p1, "out", p2, "in").unwrap();
//! wf.connect(p1, "out", p3, "in").unwrap();
//! wf.connect(p2, "out", sink, "in").unwrap();
//! wf.connect(p3, "out", sink, "in").unwrap();
//!
//! let inputs = InputData::new().set("source", vec!["D0".into(), "D1".into(), "D2".into()]);
//! let mut backend = VirtualBackend::new();
//! let result = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
//!     .run(&mut backend)
//!     .unwrap();
//! assert_eq!(result.sink("results").len(), 6, "3 data × 2 branches");
//! ```

mod backend;
mod config;
mod daemon;
pub mod diagram;
mod dot;
mod enactor;
mod error;
mod ft;
mod granularity;
mod graph;
mod grouping;
mod iterate;
pub mod lint;
pub mod model;
pub mod obs;
mod plan;
mod provenance;
mod report;
mod service;
mod store;
mod token;
mod trace;
mod value;

// The crate's surface. Every name below has a reader outside
// `crates/core/src` (DESIGN §3 lists which); everything else is
// crate-private, so rustc reports what loses its last caller.
pub use backend::{
    Backend, BackendJob, InvocationId, JobPayload, LocalBackend, SimBackend, VirtualBackend,
};
pub use config::{EnactorConfig, SloConfig};
pub use daemon::protocol::{apply as daemon_apply, check_protocol, serve, Request};
pub use daemon::{Daemon, DaemonConfig, InstanceState, TenantConfig};
pub use dot::to_dot;
#[doc(hidden)]
pub use enactor::compat::{run_fault_tolerant, run_fault_tolerant_cached, run_observed};
pub use enactor::{Enactment, InputData};
pub use error::MoteurError;
pub use ft::{FtConfig, FtPolicy, QuarantineEntry, RetryPolicy, TimeoutAction, TimeoutPolicy};
pub use granularity::GranularityModel;
pub use graph::{IterationStrategy, ProcId, ProcessorKind, Workflow};
pub use grouping::group_workflow;
pub use iterate::MatchEngine;
pub use lint::{
    lint_errors, lint_workflow, predict, render_human, render_prediction, report_from_json,
    report_to_json, Diagnostic, LintReport, Severity,
};
pub use model::TimeMatrix;
pub use obs::chrome::{chrome_trace, chrome_trace_with_metrics};
pub use obs::critical::{analyze as critical_path, render as render_critical_path};
pub use obs::detect::analyze as detect_bottlenecks;
pub use obs::drift::{check_drift, Observation};
pub use obs::metrics::{MetricsRegistry, MetricsSink};
pub use obs::openmetrics::render_with_prof as render_openmetrics_with_prof;
pub use obs::prof::{from_json as prof_from_json, to_json as prof_to_json, Prof, ProfReport};
pub use obs::sinks::{EventBuffer, JsonlSink, RingBufferSink};
pub use obs::span::{Span, SpanBuffer, SpanKind, SpanSink};
pub use obs::timeline::{Timeline, TimelineSink};
pub use obs::{EventSink, Obs, TraceEvent};
pub use plan::interval::{CardInterval, SourceSizes};
pub use plan::{analyze as plan_workflow, plan_to_json, render_plan, PlanOptions};
pub use provenance::{export_provenance, history_from_xml, history_to_xml};
pub use report::render_report;
pub use service::{CostModel, ServiceBinding, ServiceProfile};
pub use store::key::Fnv1a;
pub use store::{
    invocation_key, provenance_key, DataStore, HistoryXmlCache, ProvenanceKey, StoreConfig,
};
pub use token::{DataIndex, History, Token};
pub use trace::WorkflowResult;
pub use value::DataValue;

/// Common imports for building and running workflows.
pub mod prelude {
    pub use crate::backend::{Backend, LocalBackend, SimBackend, VirtualBackend};
    pub use crate::config::EnactorConfig;
    pub use crate::enactor::{Enactment, InputData};
    pub use crate::error::MoteurError;
    pub use crate::ft::{
        FtConfig, FtPolicy, RetryPolicy, TimeoutAction, TimeoutPolicy, WorkflowReport,
    };
    pub use crate::graph::{IterationStrategy, ProcId, Workflow};
    pub use crate::model::TimeMatrix;
    pub use crate::obs::{Obs, TraceEvent};
    pub use crate::service::{CostModel, LocalService, ServiceBinding, ServiceProfile};
    pub use crate::store::{DataStore, StoreConfig};
    pub use crate::token::{DataIndex, History, Token};
    pub use crate::trace::WorkflowResult;
    pub use crate::value::DataValue;
}
