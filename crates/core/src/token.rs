//! Tokens: data values tagged with an index vector and a provenance
//! history tree.
//!
//! The paper (§4.1) notes that with data and service parallelism,
//! results are "likely to be computed in a different order in every
//! service, which could lead to wrong dot product computations", and
//! solves it by attaching to each data segment "a history tree
//! containing all the intermediate results computed to process it".
//! [`DataIndex`] is the positional identity used by the iteration
//! strategies; [`History`] is the full provenance tree.

use crate::store::key::Fnv1a;
use crate::value::DataValue;
use std::fmt;
use std::sync::Arc;

/// Taverna-style index vector identifying a datum's position in the
/// (possibly nested, via cross products) input space. Immutable once
/// minted and shared: every token routed, matched and retained for a
/// resubmission holds the same vector by reference count.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct DataIndex(pub Arc<[u32]>);

impl DataIndex {
    /// The scalar index (e.g. a synchronization processor's single
    /// result).
    pub fn scalar() -> Self {
        DataIndex(Arc::from([]))
    }

    pub fn single(i: u32) -> Self {
        DataIndex(Arc::from([i]))
    }

    /// Concatenate two index vectors — the index algebra of the cross
    /// product. One allocation: the chained slices have a known length.
    pub fn concat(&self, other: &DataIndex) -> DataIndex {
        DataIndex(self.0.iter().chain(other.0.iter()).copied().collect())
    }

    pub fn depth(&self) -> usize {
        self.0.len()
    }
}

impl fmt::Display for DataIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (k, i) in self.0.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "]")
    }
}

/// Provenance history tree (paper §4.1): every token records how it was
/// produced, back to the workflow sources. Names are shared: an
/// enactment interns each processor name once, so every node it builds
/// holds its name by reference count.
///
/// Every node carries the structural digest of its subtree, computed
/// once when [`History::source`] or [`History::derived`] mints it (the
/// only ways to build one, so the digest always matches the tree). A
/// source hashes tag `1`, its name and its position; a derived node
/// hashes tag `2`, its processor name, its input count and each input's
/// digest in order. Names are hashed by their bytes, never by pointer,
/// so the digest is the same in every process: it is what
/// [`provenance_key`](crate::provenance_key) keys on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct History {
    node: HistoryNode,
    digest: u64,
}

/// What one [`History`] node records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistoryNode {
    /// Produced by a data source: source name and position in its
    /// stream.
    Source { source: Arc<str>, position: u32 },
    /// Produced by a processor invocation from a set of input tokens.
    Derived {
        processor: Arc<str>,
        inputs: Box<[Arc<History>]>,
    },
}

impl History {
    pub fn source(name: impl Into<Arc<str>>, position: u32) -> Arc<History> {
        let source = name.into();
        let mut h = Fnv1a::new();
        h.write(&[1]);
        h.write_str(&source);
        h.write_u64(u64::from(position));
        Arc::new(History {
            node: HistoryNode::Source { source, position },
            digest: h.finish(),
        })
    }

    pub fn derived(processor: impl Into<Arc<str>>, inputs: Vec<Arc<History>>) -> Arc<History> {
        let processor = processor.into();
        let mut h = Fnv1a::new();
        h.write(&[2]);
        h.write_str(&processor);
        h.write_u64(inputs.len() as u64);
        for input in &inputs {
            h.write_u64(input.digest);
        }
        Arc::new(History {
            node: HistoryNode::Derived {
                processor,
                inputs: inputs.into_boxed_slice(),
            },
            digest: h.finish(),
        })
    }

    /// This node's name, position or inputs.
    pub fn node(&self) -> &HistoryNode {
        &self.node
    }

    /// The structural digest of this subtree (see [`History`]).
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// All source leaves of the tree, in left-to-right order.
    pub fn sources(&self) -> Vec<(String, u32)> {
        match &self.node {
            HistoryNode::Source { source, position } => vec![(source.to_string(), *position)],
            HistoryNode::Derived { inputs, .. } => {
                inputs.iter().flat_map(|i| i.sources()).collect()
            }
        }
    }

    /// Does any ancestor involve `processor`?
    pub fn involves(&self, processor: &str) -> bool {
        match &self.node {
            HistoryNode::Source { .. } => false,
            HistoryNode::Derived {
                processor: p,
                inputs,
            } => **p == *processor || inputs.iter().any(|i| i.involves(processor)),
        }
    }

    /// Depth of the tree (1 for a source leaf).
    pub fn depth(&self) -> usize {
        match &self.node {
            HistoryNode::Source { .. } => 1,
            HistoryNode::Derived { inputs, .. } => {
                1 + inputs.iter().map(|i| i.depth()).max().unwrap_or(0)
            }
        }
    }
}

/// A datum in flight: value + positional index + provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub value: DataValue,
    pub index: DataIndex,
    pub history: Arc<History>,
}

impl Token {
    pub fn from_source(source: impl Into<Arc<str>>, position: u32, value: DataValue) -> Token {
        Token {
            value,
            index: DataIndex::single(position),
            history: History::source(source, position),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_concat_is_associative_with_lengths_adding() {
        let a = DataIndex(Arc::from([1, 2]));
        let b = DataIndex(Arc::from([3]));
        let c = DataIndex(Arc::from([4, 5]));
        assert_eq!(a.concat(&b).concat(&c), a.concat(&b.concat(&c)));
        assert_eq!(a.concat(&b).depth(), 3);
    }

    #[test]
    fn scalar_index_is_identity_for_concat() {
        let a = DataIndex(Arc::from([7, 8]));
        assert_eq!(a.concat(&DataIndex::scalar()), a);
        assert_eq!(DataIndex::scalar().concat(&a), a);
    }

    #[test]
    fn index_display() {
        assert_eq!(DataIndex(Arc::from([1, 2, 3])).to_string(), "[1,2,3]");
        assert_eq!(DataIndex::scalar().to_string(), "[]");
    }

    #[test]
    fn history_sources_collects_leaves_in_order() {
        let h = History::derived(
            "crestMatch",
            vec![
                History::derived("crestLines", vec![History::source("floating", 0)]),
                History::source("reference", 0),
            ],
        );
        assert_eq!(
            h.sources(),
            vec![("floating".to_string(), 0), ("reference".to_string(), 0)]
        );
    }

    #[test]
    fn history_involves_searches_ancestors() {
        let h = History::derived(
            "PFRegister",
            vec![History::derived(
                "PFMatchICP",
                vec![History::source("img", 3)],
            )],
        );
        assert!(h.involves("PFMatchICP"));
        assert!(h.involves("PFRegister"));
        assert!(!h.involves("Yasmina"));
    }

    #[test]
    fn history_depth() {
        let leaf = History::source("s", 0);
        assert_eq!(leaf.depth(), 1);
        let d = History::derived("p", vec![leaf]);
        assert_eq!(d.depth(), 2);
    }

    #[test]
    fn a_history_node_stays_forty_bytes() {
        // Every token of a stream holds its own node: the digest fits in
        // what `Box<[_]>` saves over `Vec`, so the streaming pipeline's
        // live bytes do not grow with it.
        assert!(std::mem::size_of::<History>() <= 40);
    }

    #[test]
    fn token_from_source_sets_index_and_history() {
        let t = Token::from_source("referenceImage", 4, DataValue::from("img4"));
        assert_eq!(t.index, DataIndex::single(4));
        assert_eq!(t.history.sources(), vec![("referenceImage".to_string(), 4)]);
    }

    #[test]
    fn tokens_with_same_source_position_are_distinguished_by_history() {
        // Two different sources can emit position 0; the index collides
        // but the history tree disambiguates (the causality problem).
        let a = Token::from_source("refs", 0, DataValue::from("a"));
        let b = Token::from_source("floats", 0, DataValue::from("b"));
        assert_eq!(a.index, b.index);
        assert_ne!(a.history, b.history);
    }
}
