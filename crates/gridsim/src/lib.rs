//! # moteur-gridsim
//!
//! A discrete-event simulator of a 2006-era production grid (EGEE /
//! LCG2), built as the execution substrate for the MOTEUR-RS workflow
//! enactor.
//!
//! The paper's experiments ran on the real EGEE infrastructure, whose
//! defining property for the evaluation is that per-job grid overhead
//! (submission + brokering + batch-queue wait + transfers) is *large* —
//! around ten minutes — and *highly variable*. That variability is
//! exactly why service parallelism pays off beyond data parallelism
//! (paper §3.5.4/§5.2) and why job grouping pays off at all (§3.6).
//! This crate reproduces the mechanism rather than the numbers:
//!
//! - a **user interface** with stochastic submission cost,
//! - a **resource broker** ranking computing elements by *stale*
//!   information-system snapshots (causing realistic herding),
//! - **computing elements** running FIFO batch queues over worker
//!   slots of heterogeneous speed, loaded by Poisson background jobs
//!   from other grid users,
//! - a **network/storage model** (per-transfer latency, bandwidth,
//!   congestion) for stage-in/stage-out,
//! - **failures with resubmission**, the paper's "D0 was submitted
//!   twice because an error occurred".
//!
//! Runs are deterministic per seed: all randomness flows from one
//! seeded xoshiro256++ stream ([`rng::Rng`]).
//!
//! ```
//! use moteur_gridsim::{GridConfig, GridJobSpec, GridSim};
//!
//! let mut sim = GridSim::new(GridConfig::egee_2006(), 42);
//! sim.submit(GridJobSpec::new("crestLines", 90.0).with_files(vec![7_800_000; 2], vec![400_000]));
//! let done = sim.next_completion().unwrap();
//! assert!(done.overhead().as_secs_f64() > 0.0);
//! ```

pub mod config;
pub mod event;
pub mod job;
pub mod obs;
pub mod rng;
pub mod sim;
pub mod time;
pub mod trace;

pub use config::{CeConfig, GridConfig, NetworkConfig};
pub use job::{CeId, GridJobSpec, JobId, JobOutcome, JobRecord};
pub use obs::{SimEvent, SimObserver};
pub use rng::{Distribution, Rng};
pub use sim::GridSim;
pub use time::{SimDuration, SimTime};
pub use trace::{percentile, summarize, TraceSummary};
