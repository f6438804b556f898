//! Umbrella crate for the MOTEUR-RS reproduction.
//!
//! Re-exports the workspace crates so examples and integration tests can
//! use a single dependency. See `README.md` and `DESIGN.md` at the
//! repository root for the system overview.
//!
//! The two modules of its own, [`cli`] and [`emit`], are what the
//! `moteur` and `moteur-gridsim` binaries share: the flag tables and
//! the one table of run outputs behind `--emit`.

pub mod cli;
pub mod emit;

pub use moteur;
pub use moteur_analysis as analysis;
pub use moteur_bench as bench;
pub use moteur_gridsim as gridsim;
pub use moteur_registration as registration;
pub use moteur_scufl as scufl;
pub use moteur_wrapper as wrapper;
pub use moteur_xml as xml;
