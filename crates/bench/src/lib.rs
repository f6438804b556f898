//! # moteur-bench
//!
//! Experiment harnesses reproducing every table and figure of the
//! paper's evaluation (see `DESIGN.md` §5 for the experiment index):
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table 1 — execution times per configuration × data-set size |
//! | `table2` | Table 2 — y-intercept and slope of the fitted lines |
//! | `fig10` | Figure 10 — execution time vs number of image pairs |
//! | `diagrams` | Figures 4, 5 and 6 — execution diagrams |
//! | `theory` | §3.5 — model-vs-enactor asymptotic speed-ups |
//! | `speedups` | §5.2/§5.3 — speed-ups and slope / y-intercept ratios |
//!
//! The `moteur-bench` binary itself (`src/main.rs`) drives the perf
//! observatory: eight campaign commands, each writing `BENCH_*.json`
//! documents whose every field is a function of (code, seed, command
//! line) — virtual seconds, job, hit and call counts, allocation counts
//! and live bytes, never the wall clock, which `benchmark/` owns. Two
//! runs write the same bytes, so the committed documents are the
//! baseline and CI compares them with `git diff --exit-code`. Each
//! campaign's pass criteria are one table of rows in [`gate`], and the
//! command exits by that table's verdict on the file it wrote.
//!
//! The library half hosts the Fig. 9 Bronze-Standard workflow
//! ([`bronze`]) and the campaign runner ([`campaign`]) shared by the
//! binaries, the integration tests and the examples.
//!
//! `moteur-bench campaign` sweeps the six configurations over a range
//! of campaign sizes and writes `BENCH_point.json`/`BENCH_summary.json`
//! ([`sweep`]).
//!
//! `moteur-bench warm` runs the same campaign twice against one
//! provenance-keyed data manager and documents the cold-vs-warm
//! speed-up in `BENCH_warm.json` ([`warm`]).
//!
//! `moteur-bench faults` enacts the campaign on an unreliable grid
//! under three fault-tolerance strategies (naive, backoff,
//! timeout+replication) and writes the comparison to
//! `BENCH_faults.json` ([`faults`]).
//!
//! `moteur-bench timeline` enacts the campaign with the telemetry
//! pipeline attached in two regimes (ideal byte-accounting,
//! queue-saturated `egee_2006`) and writes peak queue depth, transfer
//! bytes and the bottleneck verdict to `BENCH_timeline.json`
//! ([`timeline`]).
//!
//! `moteur-bench daemon` drives the multi-tenant enactment daemon
//! through a concurrent submission wave against one shared memo table
//! and writes time-to-first-job percentiles and the cross-tenant
//! cache-hit ratio to `BENCH_daemon.json` ([`daemon`]).
//!
//! `moteur-bench scale` drives the simulator through a million events
//! and the enactor through ten thousand jobs with the self-profiler
//! attached, and writes event and job counts, allocation rates and
//! per-subsystem call counts to `BENCH_scale.json` ([`scale`]).
//!
//! `moteur-bench stream` pushes a million-item stream through a
//! bounded-port service chain and writes the O(port-capacity)
//! pipeline memory high-water mark (versus the eager per-item
//! projection) to `BENCH_stream.json` ([`stream`]).

pub mod bronze;
pub mod campaign;
pub mod daemon;
pub mod faults;
pub mod gate;
pub mod plan;
pub mod scale;
pub mod stream;
pub mod sweep;
pub mod timeline;
pub mod warm;

pub use bronze::{
    bronze_chain_inputs, bronze_chain_workflow, bronze_chain_workflow_xml, bronze_inputs,
    bronze_workflow, bronze_workflow_xml, IMAGE_BYTES,
};
pub use campaign::{run_campaign, run_point, CampaignPoint, PAPER_SIZES, QUICK_SIZES};
pub use daemon::{
    render_daemon, render_daemon_json, run_daemon_campaign, DaemonReport, TenantRow,
    DAEMON_BENCH_SCHEMA,
};
pub use faults::{
    render_faults, render_faults_json, run_faults, FaultStrategy, FaultsReport, FaultsSpec,
    StrategyOutcome, FAULTS_SCHEMA,
};
pub use gate::GateCheck;
pub use plan::{
    render_plan_bench, render_plan_bench_json, run_plan_bench, PlanBenchReport, PlanSpec,
    PLAN_BENCH_SCHEMA,
};
pub use scale::{
    render_scale, render_scale_json, run_scale, ScaleReport, ScaleSpec, ALLOCS_PER_EVENT_BUDGET,
    SCALE_SCHEMA,
};
pub use stream::{
    render_stream, render_stream_json, run_stream, StreamReport, StreamSpec, EAGER_UNDERCUT_FACTOR,
    PIPELINE_PEAK_BUDGET, STREAM_SCHEMA,
};
pub use sweep::{
    render_points_json, render_summary, render_summary_json, run_sweep, BenchPoint, BenchSummary,
    ConfigSummary, SweepGrid, SweepSpec, SweepWorkflow, POINT_SCHEMA, SUMMARY_SCHEMA,
};
pub use warm::{render_warm, render_warm_json, run_warm_pair, WarmReport, WARM_SCHEMA};
