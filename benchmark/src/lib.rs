//! End-to-end and per-layer benchmark of MOTEUR-RS.
//!
//! Six workloads go from bytes on disk (or a protocol script) to a
//! checked result through the product's public entry points; see
//! `README.md` for what each one stresses and `spec.rs` for the metric
//! tables `BENCHMARK.json` is rendered from.

pub mod campaign;
pub mod cli;
pub mod gen;
pub mod json;
pub mod probes;
pub mod runner;
pub mod span;
pub mod spec;
pub mod stats;
pub mod sut;
pub mod workloads;
