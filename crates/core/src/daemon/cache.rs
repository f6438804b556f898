//! The daemon's source cache: a submission whose workflow and inputs
//! texts were seen before shares what the first one's parse made — and
//! its workflow the compiled form the first admission under the same
//! compile bits made — instead of parsing, linting, grouping and
//! compiling them again.

use super::ScuflParser;
use crate::config::EnactorConfig;
use crate::enactor::{CompileBits, CompiledWorkflow, InputData};
use crate::error::MoteurError;
use crate::graph::Workflow;
use crate::store::key::Fnv1a;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

/// Entries kept per table (workflow texts, inputs texts); the oldest
/// leaves first. A daemon serves a handful of applications over and
/// over, so this is the bound on a hostile stream of distinct texts,
/// not a working set.
pub(super) const CAPACITY: usize = 64;

/// A submitted text and its FNV-1a digest. The digest only narrows the
/// search: a hit also compares the text itself.
#[derive(Clone, Copy)]
pub(super) struct Text<'a> {
    digest: u64,
    text: &'a str,
}

impl<'a> Text<'a> {
    pub(super) fn of(text: &'a str) -> Self {
        let mut h = Fnv1a::new();
        h.write_str(text);
        Text {
            digest: h.finish(),
            text,
        }
    }

    fn is(&self, digest: u64, text: &str) -> bool {
        self.digest == digest && self.text == text
    }
}

/// A workflow text the parser accepted: the text, stored once, its
/// parse, and one compiled form per [`CompileBits`], each filled by the
/// first admission under those bits that compiles it.
pub(super) struct Source {
    digest: u64,
    text: Box<str>,
    pub(super) workflow: Workflow,
    compiled: [OnceLock<Arc<CompiledWorkflow>>; 8],
}

/// An inputs text the parser accepted under the workflow text of
/// `source` (compared by pointer).
struct Inputs {
    source: Arc<Source>,
    digest: u64,
    text: Box<str>,
    data: Arc<InputData>,
}

pub(super) struct SourceCache {
    parser: ScuflParser,
    /// Oldest first.
    workflows: VecDeque<Arc<Source>>,
    /// Oldest first.
    inputs: VecDeque<Inputs>,
    /// Parser calls made, for the tests.
    #[cfg(test)]
    pub(super) parses: usize,
    /// `CompiledWorkflow::compile` calls made, for the tests.
    #[cfg(test)]
    pub(super) compiles: usize,
}

impl SourceCache {
    pub(super) fn new(parser: ScuflParser) -> Self {
        SourceCache {
            parser,
            workflows: VecDeque::new(),
            inputs: VecDeque::new(),
            #[cfg(test)]
            parses: 0,
            #[cfg(test)]
            compiles: 0,
        }
    }

    /// The parsed pair, calling the parser only for a pair not seen
    /// before. On a call for a workflow text already known, only the
    /// inputs of the call are kept: the parser is a function of the
    /// two texts, so its workflow equals the known one. A rejection is
    /// returned, never kept (the memo store's rule): the next
    /// submission of the same pair parses again and reports the same
    /// error.
    pub(super) fn parse(
        &mut self,
        workflow: Text<'_>,
        inputs: Text<'_>,
    ) -> Result<(Arc<Source>, Arc<InputData>), MoteurError> {
        let known = self
            .workflows
            .iter()
            .find(|s| workflow.is(s.digest, &s.text))
            .cloned();
        if let Some(source) = &known {
            let hit = self
                .inputs
                .iter()
                .find(|e| Arc::ptr_eq(&e.source, source) && inputs.is(e.digest, &e.text));
            if let Some(e) = hit {
                return Ok((Arc::clone(source), Arc::clone(&e.data)));
            }
        }
        #[cfg(test)]
        {
            self.parses += 1;
        }
        let (parsed, data) = (self.parser)(workflow.text, inputs.text)?;
        let source = known.unwrap_or_else(|| {
            if self.workflows.len() == CAPACITY {
                // Its inputs entries could never be found again.
                let oldest = self.workflows.pop_front().expect("the table is full");
                self.inputs.retain(|e| !Arc::ptr_eq(&e.source, &oldest));
            }
            let source = Arc::new(Source {
                digest: workflow.digest,
                text: workflow.text.into(),
                workflow: parsed,
                compiled: Default::default(),
            });
            self.workflows.push_back(Arc::clone(&source));
            source
        });
        if self.inputs.len() == CAPACITY {
            self.inputs.pop_front();
        }
        let data = Arc::new(data);
        self.inputs.push_back(Inputs {
            source: Arc::clone(&source),
            digest: inputs.digest,
            text: inputs.text.into(),
            data: Arc::clone(&data),
        });
        Ok((source, data))
    }

    /// The compiled form of `source` under `config`'s compile bits,
    /// compiling it when no earlier admission did. A rejection is
    /// returned, never kept: the next admission of the same text
    /// compiles again and reports the same error.
    pub(super) fn compile(
        &mut self,
        source: &Source,
        config: &EnactorConfig,
    ) -> Result<Arc<CompiledWorkflow>, MoteurError> {
        let cell = &source.compiled[usize::from(CompileBits::of(config).as_u8())];
        if let Some(compiled) = cell.get() {
            return Ok(Arc::clone(compiled));
        }
        #[cfg(test)]
        {
            self.compiles += 1;
        }
        let compiled = CompiledWorkflow::compile(&source.workflow, config)?;
        Ok(Arc::clone(cell.get_or_init(|| compiled)))
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Daemon, DaemonConfig, InstanceState, TenantConfig};
    use super::*;
    use crate::backend::VirtualBackend;
    use crate::enactor::tests::items;
    use crate::ft::FtConfig;
    use crate::service::ServiceBinding;
    use crate::store::{DataStore, StoreConfig};
    use crate::token::Token;
    use crate::value::DataValue;

    fn forward(inputs: &[Token]) -> Result<Vec<(String, DataValue)>, String> {
        Ok(vec![("out".into(), inputs[0].value.clone())])
    }

    /// A workflow text is its name: a one-service chain, except that a
    /// text starting `bad` does not parse and `dangling` parses into a
    /// workflow the preflight refuses. An inputs text is an item count.
    fn parser(workflow: &str, inputs: &str) -> Result<(Workflow, InputData), MoteurError> {
        if workflow.starts_with("bad") {
            return Err(MoteurError::new(format!("cannot parse `{workflow}`")));
        }
        let n: u64 = inputs
            .parse()
            .map_err(|_| MoteurError::new(format!("bad item count `{inputs}`")))?;
        let mut wf = Workflow::new(workflow);
        let s = wf.add_source("s");
        let p = wf.add_service("p", &["in"], &["out"], ServiceBinding::local(forward));
        if workflow != "dangling" {
            let k = wf.add_sink("k");
            wf.connect(s, "out", p, "in").unwrap();
            wf.connect(p, "out", k, "in").unwrap();
        }
        Ok((wf, items(n)))
    }

    fn parse(
        cache: &mut SourceCache,
        workflow: &str,
        inputs: &str,
    ) -> Result<(Arc<Source>, Arc<InputData>), MoteurError> {
        cache.parse(Text::of(workflow), Text::of(inputs))
    }

    #[test]
    fn repeating_one_pair_parses_once() {
        let mut cache = SourceCache::new(parser);
        let (source, data) = parse(&mut cache, "a", "3").unwrap();
        for _ in 0..3 {
            let (again, again_data) = parse(&mut cache, "a", "3").unwrap();
            assert!(Arc::ptr_eq(&source, &again) && Arc::ptr_eq(&data, &again_data));
        }
        assert_eq!(cache.parses, 1);
        assert_eq!(source.workflow.name, "a");
        assert_eq!(data.get("s").map(<[DataValue]>::len), Some(3));
    }

    #[test]
    fn new_inputs_under_a_known_workflow_parse_once_and_share_its_entry() {
        let mut cache = SourceCache::new(parser);
        let (one, one_data) = parse(&mut cache, "a", "1").unwrap();
        let (two, two_data) = parse(&mut cache, "a", "2").unwrap();
        let (again, again_data) = parse(&mut cache, "a", "2").unwrap();
        assert_eq!(cache.parses, 2);
        assert!(Arc::ptr_eq(&one, &two) && Arc::ptr_eq(&two, &again));
        assert!(!Arc::ptr_eq(&one_data, &two_data) && Arc::ptr_eq(&two_data, &again_data));
        assert_eq!(two_data.get("s").map(<[DataValue]>::len), Some(2));
        assert_eq!((cache.workflows.len(), cache.inputs.len()), (1, 2));
    }

    #[test]
    fn a_differing_byte_in_either_text_is_a_separate_entry_even_under_one_digest() {
        // Force the collision the digest makes unlikely.
        let text = |text| Text { digest: 7, text };
        let mut cache = SourceCache::new(parser);
        let pairs = [("a", "1"), ("b", "1"), ("a", "2"), ("b", "2")];
        for _ in 0..2 {
            for (workflow, inputs) in pairs {
                let (source, data) = cache.parse(text(workflow), text(inputs)).unwrap();
                assert_eq!(source.workflow.name, workflow);
                let n: usize = inputs.parse().unwrap();
                assert_eq!(data.get("s").map(<[DataValue]>::len), Some(n));
            }
        }
        assert_eq!(cache.parses, 4);
        assert_eq!((cache.workflows.len(), cache.inputs.len()), (2, 4));
    }

    #[test]
    fn a_rejected_pair_is_parsed_on_every_submission_and_never_kept() {
        let mut cache = SourceCache::new(parser);
        parse(&mut cache, "a", "1").unwrap();
        for (workflow, inputs) in [("bad", "1"), ("a", "x")] {
            let before = cache.parses;
            let messages: Vec<String> = (0..2)
                .map(|_| {
                    let err = parse(&mut cache, workflow, inputs).err().expect("rejected");
                    err.message().to_string()
                })
                .collect();
            assert_eq!(messages[0], messages[1]);
            assert_eq!(cache.parses, before + 2, "{workflow} / {inputs}");
        }
        assert_eq!((cache.workflows.len(), cache.inputs.len()), (1, 1));
    }

    #[test]
    fn one_compile_per_text_and_bits() {
        let (pipelined, staged) = (EnactorConfig::sp_dp(), EnactorConfig::dp());
        let mut cache = SourceCache::new(parser);
        let (a, _) = parse(&mut cache, "a", "1").unwrap();
        let first = cache.compile(&a, &pipelined).unwrap();
        let second = cache.compile(&a, &pipelined).unwrap();
        let a_staged = cache.compile(&a, &staged).unwrap();
        assert!(Arc::ptr_eq(&first, &second) && !Arc::ptr_eq(&first, &a_staged));
        let (b, _) = parse(&mut cache, "b", "1").unwrap();
        let b = cache.compile(&b, &pipelined).unwrap();
        assert!(!Arc::ptr_eq(&first, &b));
        assert_eq!(cache.compiles, 3);
    }

    #[test]
    fn a_rejected_workflow_is_compiled_every_time_and_never_kept() {
        let config = EnactorConfig::sp_dp();
        let mut cache = SourceCache::new(parser);
        let (dangling, _) = parse(&mut cache, "dangling", "1").unwrap();
        let messages: Vec<String> = (0..2)
            .map(|_| {
                let err = cache.compile(&dangling, &config).err().expect("rejected");
                err.message().to_string()
            })
            .collect();
        assert_eq!(messages[0], messages[1]);
        assert_eq!(cache.compiles, 2);
        assert!(dangling.compiled.iter().all(|cell| cell.get().is_none()));
    }

    #[test]
    fn past_capacity_the_oldest_entries_leave() {
        let mut cache = SourceCache::new(parser);
        let text = |n: usize| format!("w{n}");
        for n in 0..=CAPACITY {
            parse(&mut cache, &text(n), "1").unwrap();
        }
        assert_eq!(
            (cache.workflows.len(), cache.inputs.len()),
            (CAPACITY, CAPACITY)
        );
        assert!(cache.workflows.iter().all(|s| *s.text != *text(0)));
        let parses = cache.parses;
        parse(&mut cache, &text(CAPACITY), "1").unwrap();
        assert_eq!(cache.parses, parses, "the newest stayed");
        // One workflow, more inputs texts than the table holds.
        for n in 0..=CAPACITY {
            parse(&mut cache, "a", &n.to_string()).unwrap();
        }
        assert_eq!(cache.inputs.len(), CAPACITY);
        assert!(cache.inputs.iter().all(|e| &*e.text != "0"));
    }

    #[test]
    fn a_queued_submission_starts_after_its_entries_are_evicted() {
        let one_at_a_time = TenantConfig {
            max_inflight_workflows: 1,
            ..TenantConfig::default()
        };
        let config = DaemonConfig {
            tenant_defaults: one_at_a_time,
            ..DaemonConfig::default()
        };
        let store = DataStore::in_memory(StoreConfig::default());
        let mut d = Daemon::new(Box::new(VirtualBackend::new()), store, parser, config);
        let submit = |d: &mut Daemon, tenant, workflow: &str| {
            let (config, ft) = (EnactorConfig::sp_dp(), FtConfig::default());
            d.submit(tenant, workflow, "2", config, ft).unwrap()
        };
        let running = submit(&mut d, "t", "a");
        let queued = submit(&mut d, "t", "queued");
        assert_eq!(d.status(queued).unwrap().state, InstanceState::Queued);
        for n in 0..CAPACITY {
            submit(&mut d, "u", &format!("w{n}"));
        }
        let sources = &d.sources;
        assert!(sources.workflows.iter().all(|s| *s.text != *"queued"));
        assert!(sources
            .inputs
            .iter()
            .all(|e| e.source.workflow.name != "queued"));
        d.drain();
        for id in [running, queued] {
            assert_eq!(d.status(id).unwrap().state, InstanceState::Succeeded);
        }
        assert_eq!(d.metrics().succeeded, CAPACITY + 2);
    }
}
