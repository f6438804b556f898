//! The daemon's compiled-workflow cache: a submission whose workflow
//! text and compile bits were seen before shares the
//! [`CompiledWorkflow`] of the first one instead of linting, grouping
//! and compiling its links again.

use crate::config::EnactorConfig;
use crate::enactor::{CompileBits, CompiledWorkflow};
use crate::error::MoteurError;
use crate::graph::Workflow;
use crate::store::key::Fnv1a;
use std::collections::VecDeque;
use std::sync::Arc;

/// Distinct (text, bits) pairs kept; the oldest entry leaves first. A
/// daemon serves a handful of applications over and over, so this is
/// the bound on a hostile stream of distinct texts, not a working set.
pub(super) const CAPACITY: usize = 64;

/// What an entry is found by. The digest only narrows the search: a
/// hit also compares the bits and the text itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct CompileKey {
    digest: u64,
    bits: CompileBits,
}

impl CompileKey {
    pub(super) fn of(text: &str, config: &EnactorConfig) -> Self {
        let bits = CompileBits::of(config);
        let mut h = Fnv1a::new();
        h.write_str(text);
        h.write(&[bits.as_u8()]);
        CompileKey {
            digest: h.finish(),
            bits,
        }
    }
}

/// A submission's workflow on its way to admission.
pub(super) enum Program {
    /// The cache knew the text at submission.
    Compiled(Arc<CompiledWorkflow>),
    /// It did not: compiled, and on success cached, at admission.
    Source {
        workflow: Box<Workflow>,
        text: String,
        key: CompileKey,
    },
}

struct Entry {
    key: CompileKey,
    text: String,
    compiled: Arc<CompiledWorkflow>,
}

#[derive(Default)]
pub(super) struct CompileCache {
    /// Oldest first.
    entries: VecDeque<Entry>,
    /// `CompiledWorkflow::compile` calls made, for the tests.
    #[cfg(test)]
    pub(super) compiles: usize,
}

impl CompileCache {
    pub(super) fn get(&self, key: CompileKey, text: &str) -> Option<Arc<CompiledWorkflow>> {
        self.entries
            .iter()
            .find(|e| e.key == key && e.text == text)
            .map(|e| Arc::clone(&e.compiled))
    }

    /// The compiled form of `program`, compiling and caching it when
    /// no earlier admission did. A rejection is returned, never kept
    /// (the memo store's rule): the next submission of the same text
    /// compiles again and reports the same error.
    pub(super) fn resolve(
        &mut self,
        program: Program,
        config: &EnactorConfig,
    ) -> Result<Arc<CompiledWorkflow>, MoteurError> {
        let (workflow, text, key) = match program {
            Program::Compiled(compiled) => return Ok(compiled),
            Program::Source {
                workflow,
                text,
                key,
            } => (workflow, text, key),
        };
        if let Some(compiled) = self.get(key, &text) {
            return Ok(compiled);
        }
        #[cfg(test)]
        {
            self.compiles += 1;
        }
        let compiled = CompiledWorkflow::compile(&workflow, config)?;
        if self.entries.len() == CAPACITY {
            self.entries.pop_front();
        }
        self.entries.push_back(Entry {
            key,
            text,
            compiled: Arc::clone(&compiled),
        });
        Ok(compiled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceBinding;
    use crate::token::Token;
    use crate::value::DataValue;

    fn forward(inputs: &[Token]) -> Result<Vec<(String, DataValue)>, String> {
        Ok(vec![("out".into(), inputs[0].value.clone())])
    }

    fn chain(name: &str) -> Workflow {
        let mut wf = Workflow::new(name);
        let s = wf.add_source("s");
        let p = wf.add_service("p", &["in"], &["out"], ServiceBinding::local(forward));
        let k = wf.add_sink("k");
        wf.connect(s, "out", p, "in").unwrap();
        wf.connect(p, "out", k, "in").unwrap();
        wf
    }

    fn source(text: &str, key: CompileKey) -> Program {
        Program::Source {
            workflow: Box::new(chain(text)),
            text: text.into(),
            key,
        }
    }

    #[test]
    fn identical_text_and_bits_share_one_compile() {
        let config = EnactorConfig::sp_dp();
        let key = CompileKey::of("a", &config);
        let mut cache = CompileCache::default();
        let first = cache.resolve(source("a", key), &config).unwrap();
        let second = cache.resolve(source("a", key), &config).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert!(Arc::ptr_eq(&first, &cache.get(key, "a").unwrap()));
        assert_eq!(cache.compiles, 1);
    }

    #[test]
    fn a_differing_bit_or_byte_is_a_separate_entry_even_under_one_digest() {
        let pipelined = EnactorConfig::sp_dp();
        let staged = EnactorConfig::dp();
        assert_ne!(
            CompileKey::of("a", &pipelined),
            CompileKey::of("a", &staged)
        );
        // Force the collision the digest makes unlikely: same digest,
        // differing bits; same digest and bits, one differing byte.
        let key = |config: &EnactorConfig| CompileKey {
            digest: 7,
            bits: CompileBits::of(config),
        };
        let mut cache = CompileCache::default();
        let a = cache
            .resolve(source("a", key(&pipelined)), &pipelined)
            .unwrap();
        let a_staged = cache.resolve(source("a", key(&staged)), &staged).unwrap();
        let b = cache
            .resolve(source("b", key(&pipelined)), &pipelined)
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &a_staged) && !Arc::ptr_eq(&a, &b));
        assert_eq!(cache.compiles, 3);
        assert!(Arc::ptr_eq(&a, &cache.get(key(&pipelined), "a").unwrap()));
        assert!(Arc::ptr_eq(&b, &cache.get(key(&pipelined), "b").unwrap()));
        assert!(Arc::ptr_eq(
            &a_staged,
            &cache.get(key(&staged), "a").unwrap()
        ));
    }

    #[test]
    fn one_text_past_capacity_evicts_the_oldest() {
        let config = EnactorConfig::sp_dp();
        let mut cache = CompileCache::default();
        let text = |n: usize| format!("w{n}");
        for n in 0..=CAPACITY {
            let key = CompileKey::of(&text(n), &config);
            cache.resolve(source(&text(n), key), &config).unwrap();
        }
        assert_eq!(cache.entries.len(), CAPACITY);
        let key = |n: usize| CompileKey::of(&text(n), &config);
        assert!(cache.get(key(0), &text(0)).is_none(), "the oldest left");
        assert!(cache.get(key(1), &text(1)).is_some());
        assert!(cache.get(key(CAPACITY), &text(CAPACITY)).is_some());
    }

    #[test]
    fn a_rejected_workflow_is_compiled_every_time_and_never_kept() {
        // A service no link reaches: error-severity lint findings.
        let mut dangling = Workflow::new("bad");
        dangling.add_source("s");
        dangling.add_service("p", &["in"], &["out"], ServiceBinding::local(forward));
        let config = EnactorConfig::sp_dp();
        let key = CompileKey::of("bad", &config);
        let mut cache = CompileCache::default();
        let mut messages = Vec::new();
        for _ in 0..2 {
            let program = Program::Source {
                workflow: Box::new(dangling.clone()),
                text: "bad".into(),
                key,
            };
            let err = cache.resolve(program, &config).err().expect("rejected");
            messages.push(err.message().to_string());
        }
        assert_eq!(messages[0], messages[1]);
        assert_eq!(cache.compiles, 2);
        assert!(cache.entries.is_empty());
    }
}
