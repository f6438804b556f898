//! # moteur-bench
//!
//! The library behind the `moteur-bench` binary (`src/bin/bench.rs` of
//! the root package, whose flag table carries each subcommand's
//! one-line `about` and is the only synopsis): the experiment
//! harnesses reproducing every table and figure of the paper's
//! evaluation (see `DESIGN.md` §5 for the experiment index) and the
//! perf observatory's eight campaigns.
//!
//! Every field of every `BENCH_*.json` document is a function of (code,
//! seed, command line) — virtual seconds, job, hit and call counts,
//! allocation counts and live bytes, never the wall clock, which
//! `benchmark/` owns. Two runs write the same bytes, so the committed
//! documents are the baseline and CI compares them with `git diff
//! --exit-code`. Each campaign's pass criteria are one table of rows in
//! [`gate`], and the command exits by that table's verdict on the file
//! it wrote.
//!
//! One campaign runner ([`campaign`]) enacts the six Table-1
//! configurations over a list of sizes, each cell once; the library
//! also hosts the Fig. 9 Bronze-Standard workflow ([`bronze`]) shared by
//! the campaigns, the integration tests and the examples.
//!
//! `paper` enacts the Bronze/EGEE campaign once and writes Table 1,
//! Table 2, the §5.2/§5.3 speed-ups and Fig. 10 as four renderings of
//! its cells ([`paper`]). `diagrams`, `theory`, `ablation` and
//! `granularity` print the evidence that needs no campaign: Figs. 4–6,
//! the §3.5 model check and the two extensions ([`figures`]).
//!
//! `campaign` reads the same runner's cells against eqs. 1–4 and writes
//! `BENCH_point.json` (raw cells) and `BENCH_summary.json` (fits,
//! drift, speed-ups), failing when model and enactor drift apart
//! ([`sweep`]).
//!
//! `warm` runs one campaign twice against one provenance-keyed data
//! manager and documents the cold-vs-warm speed-up in `BENCH_warm.json`
//! ([`warm`]).
//!
//! `faults` enacts the campaign on an unreliable grid under three
//! fault-tolerance strategies (naive, backoff, timeout+replication) and
//! writes the comparison to `BENCH_faults.json`, failing unless
//! timeout+replication beats the naive strategy ([`faults`]).
//!
//! `timeline` enacts the campaign with the telemetry pipeline attached
//! in two regimes (ideal byte-accounting, queue-saturated `egee_2006`)
//! and writes peak queue depth, transfer bytes and the bottleneck
//! verdict to `BENCH_timeline.json`, failing unless the byte accounting
//! reconciles and the loaded regime is attributed to the CE queues
//! ([`timeline`]).
//!
//! `plan` checks `moteur plan`'s static per-edge byte bounds against
//! the enactor's observed per-port staging and writes
//! `BENCH_plan.json`, failing unless every interval contains the
//! observed bytes and the site partition beats centralized routing on
//! the data-heavy bronze variant ([`plan`]).
//!
//! `daemon` drives the multi-tenant enactment daemon through a
//! concurrent submission wave against one shared memo table and writes
//! time-to-first-job percentiles and the cross-tenant cache-hit ratio
//! to `BENCH_daemon.json`, failing unless every submission succeeds,
//! the wave reuses ≥ 90% of the seed tenant's derivations and the p99
//! time-to-first-job stays bounded ([`daemon`]).
//!
//! `scale` drives the simulator through a million events and the
//! enactor through ten thousand jobs with the self-profiler attached,
//! and writes event and job counts, allocation rates and per-subsystem
//! call counts to `BENCH_scale.json`, failing when a target is missed
//! or the allocation budget is blown ([`scale`]).
//!
//! `stream` pushes a million-item stream through a bounded-port service
//! chain and writes the O(port-capacity) pipeline memory high-water
//! mark (versus the eager per-item projection) to `BENCH_stream.json`
//! ([`stream`]).

pub mod bronze;
pub mod campaign;
pub mod daemon;
pub mod faults;
pub mod figures;
pub mod gate;
pub mod paper;
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
pub use campaign::{
    mean_series, run_campaign, run_point, CampaignSpec, CampaignWorkflow, Cell, PAPER_SIZES,
    QUICK_SIZES,
};
pub use daemon::{
    render_daemon, render_daemon_json, run_daemon_campaign, DaemonReport, TenantRow,
    DAEMON_BENCH_SCHEMA,
};
pub use faults::{
    render_faults, render_faults_json, run_faults, FaultStrategy, FaultsReport, FaultsSpec,
    StrategyOutcome, FAULTS_SCHEMA,
};
pub use figures::{ablation, diagrams, granularity, theory};
pub use gate::GateCheck;
pub use paper::run_paper;
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
    render_points_json, render_summary, render_summary_json, summarize, BenchSummary,
    ConfigSummary, Model, POINT_SCHEMA, SUMMARY_SCHEMA,
};
pub use warm::{render_warm, render_warm_json, run_warm_pair, WarmReport, WARM_SCHEMA};
