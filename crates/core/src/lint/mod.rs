//! Static workflow diagnostics (`moteur lint`).
//!
//! A rustc-style analysis pass over a parsed [`crate::graph::Workflow`]
//! and its descriptor catalog, run *before* enactment: each rule emits
//! [`Diagnostic`]s with a stable `M0xx` code, a severity, and labelled
//! byte spans into the SCUFL source (when the workflow was parsed from
//! one — programmatic workflows lint fine, just without carets).
//!
//! Layering:
//!
//! - [`diag`] — the diagnostic data model (severity, labels, report)
//! - [`rules`] — the rule registry ([`lint_workflow`] runs all of it)
//! - [`render`] — human renderer and the JSON codec
//! - [`mod@predict`] — eq. 1–4 makespan/job-count prediction (`--predict`)
//!
//! The enactor runs the error-severity subset ([`lint_errors`]) as a
//! pre-flight and refuses to enact a workflow with findings, unless the
//! caller opts out (`moteur run --no-verify`).

#![warn(missing_docs)]

pub mod diag;
pub mod predict;
pub mod render;
pub mod rules;

pub use crate::obs::json::JsonValue;
pub use diag::{Diagnostic, Label, LintReport, Severity};
pub use predict::{
    predict, predict_with_transfer, prediction_from_json, prediction_to_json, render_prediction,
    Prediction, PredictionRow, CONFIG_KEYS,
};
pub use render::{intern_code, render_human, report_from_json, report_to_json};
pub use rules::docs::{explain, render_explain, RuleDoc, RULE_DOCS};
pub use rules::{lint_errors, lint_workflow};
