//! What the frozen benchmark client names and nothing else does: the
//! three pre-[`Enactment`] entry points, the `HistoryXmlCache` shim and
//! the items DESIGN §3 marks `sut only — compat`.
//! `benchmark/src/sut.rs` is their only caller outside this file and
//! their forwarding tests (`ci.sh` greps for any other); the crate root
//! re-exports them from one `#[doc(hidden)]` item. They go once the
//! benchmark names what they forward to.

use crate::backend::Backend;
use crate::config::EnactorConfig;
use crate::enactor::{Enactment, InputData};
use crate::error::MoteurError;
use crate::ft::FtConfig;
use crate::graph::Workflow;
use crate::obs::Obs;
use crate::store::{provenance_key, DataStore, ProvenanceKey};
use crate::token::History;
use crate::trace::WorkflowResult;
use crate::value::DataValue;

pub use crate::daemon::protocol::{apply as daemon_apply, Request};
pub use crate::iterate::MatchEngine;

/// `Enactment::new(…).obs(obs).run(backend)`.
pub fn run_observed(
    workflow: &Workflow,
    inputs: &InputData,
    config: EnactorConfig,
    backend: &mut dyn Backend,
    obs: Obs,
) -> Result<WorkflowResult, MoteurError> {
    Enactment::new(workflow, inputs, config)
        .obs(obs)
        .run(backend)
}

/// `Enactment::new(…).ft(ft).obs(obs).run(backend)`.
pub fn run_fault_tolerant(
    workflow: &Workflow,
    inputs: &InputData,
    config: EnactorConfig,
    ft: &FtConfig,
    backend: &mut dyn Backend,
    obs: Obs,
) -> Result<WorkflowResult, MoteurError> {
    Enactment::new(workflow, inputs, config)
        .ft(ft)
        .obs(obs)
        .run(backend)
}

/// `Enactment::new(…).ft(ft).obs(obs).store(Some(store)).run(backend)`.
pub fn run_fault_tolerant_cached(
    workflow: &Workflow,
    inputs: &InputData,
    config: EnactorConfig,
    ft: &FtConfig,
    backend: &mut dyn Backend,
    obs: Obs,
    store: &mut DataStore,
) -> Result<WorkflowResult, MoteurError> {
    Enactment::new(workflow, inputs, config)
        .ft(ft)
        .obs(obs)
        .store(Some(store))
        .run(backend)
}

/// The per-instance history-XML cache that once stood in front of
/// provenance keying; a key now hashes `History::digest`, so it caches
/// nothing.
#[derive(Debug, Default)]
pub struct HistoryXmlCache;

impl HistoryXmlCache {
    pub fn new() -> Self {
        HistoryXmlCache
    }

    /// [`provenance_key`], which no longer needs a cache.
    pub fn provenance_key(
        &mut self,
        value: &DataValue,
        history: &History,
    ) -> Option<ProvenanceKey> {
        provenance_key(value, history)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enactor::tests::{descriptor_chain, FatedBackend};
    use crate::obs::sinks::RingBufferSink;
    use crate::store::StoreConfig;
    use moteur_gridsim::SimDuration;

    /// One way into the enactor, given everything any of them takes.
    type WayIn<'a> =
        &'a dyn Fn(&mut FatedBackend, Obs, &mut DataStore) -> Result<WorkflowResult, MoteurError>;

    /// What the test compares of one pass: makespan, `jobs_submitted` and
    /// the sink tallies.
    type Headline = (SimDuration, usize, Vec<(String, usize)>);

    /// Enact twice over one store — cold, then warm — on a backend that
    /// fails every fourth submission. Returns the JSONL event stream of
    /// both passes and each pass's headline.
    fn cold_then_warm(enact: WayIn) -> (String, Vec<Headline>) {
        let mut store = DataStore::in_memory(StoreConfig::default());
        let mut stream = String::new();
        let mut results = Vec::new();
        for _pass in 0..2 {
            let mut submissions = 0;
            let mut backend = FatedBackend::new(Box::new(move |_| {
                submissions += 1;
                (10.0, submissions % 4 == 0)
            }));
            let (sink, buffer) = RingBufferSink::new(100_000);
            let result = enact(&mut backend, Obs::new(vec![Box::new(sink)]), &mut store).unwrap();
            stream.extend(buffer.snapshot().iter().map(|e| e.to_json() + "\n"));
            let sinks: Vec<_> = result.sink_counts.into_iter().collect();
            results.push((result.makespan, result.jobs_submitted, sinks));
        }
        (stream, results)
    }

    #[test]
    fn each_compat_shim_enacts_exactly_like_the_enactment_it_forwards_to() {
        let (wf, inputs) = descriptor_chain(9);
        let config = EnactorConfig::sp_dp().with_seed(3);
        // Unlike the default, no retry and no abort: a shim that dropped
        // `ft` would retry where the enactment quarantines.
        let ft = FtConfig::from_legacy(0).with_continue_on_error(true);
        let table: [(&str, WayIn, WayIn); 3] = [
            (
                "run_observed",
                &|b, obs, _| run_observed(&wf, &inputs, config, b, obs),
                &|b, obs, _| Enactment::new(&wf, &inputs, config).obs(obs).run(b),
            ),
            (
                "run_fault_tolerant",
                &|b, obs, _| run_fault_tolerant(&wf, &inputs, config, &ft, b, obs),
                &|b, obs, _| Enactment::new(&wf, &inputs, config).ft(&ft).obs(obs).run(b),
            ),
            (
                "run_fault_tolerant_cached",
                &|b, obs, s| run_fault_tolerant_cached(&wf, &inputs, config, &ft, b, obs, s),
                &|b, obs, s| {
                    let enactment = Enactment::new(&wf, &inputs, config).ft(&ft).obs(obs);
                    enactment.store(Some(s)).run(b)
                },
            ),
        ];
        let mut streams = Vec::new();
        for (name, shim, enactment) in table {
            let forwarded = cold_then_warm(shim);
            assert_eq!(forwarded, cold_then_warm(enactment), "{name}");
            streams.push(forwarded.0);
        }
        // The three rows are three different enactments: what each shim
        // forwards (the observer, `ft`, the store) changed the stream.
        assert!(streams[0].contains("job_resubmitted") && !streams[0].contains("job_failed"));
        assert!(streams[1].contains("job_failed") && !streams[1].contains("cache_hit"));
        assert!(streams[2].contains("job_failed") && streams[2].contains("cache_hit"));
    }

    #[test]
    fn the_history_xml_cache_shim_forwards_to_provenance_key() {
        let mut shim = HistoryXmlCache::new();
        let h = History::derived("p", vec![History::source("s", 0)]);
        for value in [DataValue::from("v"), DataValue::opaque(1u8)] {
            assert_eq!(shim.provenance_key(&value, &h), provenance_key(&value, &h));
        }
    }
}
