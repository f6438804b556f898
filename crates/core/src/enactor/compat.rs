//! The three pre-[`Enactment`] entry points the frozen benchmark still
//! imports. `benchmark/src/sut.rs` is their only permitted caller
//! (`ci.sh` greps for any other); they are deleted once a
//! benchmark-only PR has retargeted it at [`Enactment`].

use super::{Enactment, InputData};
use crate::backend::Backend;
use crate::config::EnactorConfig;
use crate::error::MoteurError;
use crate::ft::FtConfig;
use crate::graph::Workflow;
use crate::obs::Obs;
use crate::store::DataStore;
use crate::trace::WorkflowResult;

// Only for `benchmark/src/sut.rs`; goes when it is retargeted.
#[doc(hidden)]
pub fn run_observed<B: Backend>(
    workflow: &Workflow,
    inputs: &InputData,
    config: EnactorConfig,
    backend: &mut B,
    obs: Obs,
) -> Result<WorkflowResult, MoteurError> {
    Enactment::new(workflow, inputs, config)
        .obs(obs)
        .run(backend)
}

// Only for `benchmark/src/sut.rs`; goes when it is retargeted.
#[doc(hidden)]
pub fn run_fault_tolerant<B: Backend>(
    workflow: &Workflow,
    inputs: &InputData,
    config: EnactorConfig,
    ft: &FtConfig,
    backend: &mut B,
    obs: Obs,
) -> Result<WorkflowResult, MoteurError> {
    Enactment::new(workflow, inputs, config)
        .ft(ft)
        .obs(obs)
        .run(backend)
}

// Only for `benchmark/src/sut.rs`; goes when it is retargeted.
#[doc(hidden)]
pub fn run_fault_tolerant_cached<B: Backend>(
    workflow: &Workflow,
    inputs: &InputData,
    config: EnactorConfig,
    ft: &FtConfig,
    backend: &mut B,
    obs: Obs,
    store: &mut DataStore,
) -> Result<WorkflowResult, MoteurError> {
    Enactment::new(workflow, inputs, config)
        .ft(ft)
        .obs(obs)
        .store(Some(store))
        .run(backend)
}
