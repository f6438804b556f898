//! Provenance export: serialise a run's history trees to XML.
//!
//! The paper leans on data provenance twice — to solve the causality
//! problem of out-of-order completions (§3.3/§4.1) and pointing at the
//! semantic-provenance literature for e-Science (its ref. \[32\]). This
//! module makes the recorded provenance a first-class artifact: every
//! sink token's full history tree, exportable as an XML document and
//! reloadable for post-hoc analysis. The document nests one element per
//! derivation, so a history deeper than the XML reader's bound
//! ([`moteur_xml::MAX_XML_DEPTH`], less the three wrapper levels) is
//! refused with [`ProvenanceTooDeep`] instead of written.

use crate::error::MoteurError;
use crate::token::{History, HistoryNode};
use crate::trace::WorkflowResult;
use moteur_xml::Element;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Serialise one history tree.
pub fn history_to_xml(history: &History) -> Element {
    match history.node() {
        HistoryNode::Source { source, position } => Element::new("source")
            .with_attr("name", &**source)
            .with_attr("position", position.to_string()),
        HistoryNode::Derived { processor, inputs } => {
            let mut el = Element::new("derived").with_attr("processor", &**processor);
            for input in inputs.iter() {
                el = el.with_child(history_to_xml(input));
            }
            el
        }
    }
}

/// Parse a history tree back from its XML form.
pub fn history_from_xml(el: &Element) -> Result<Arc<History>, MoteurError> {
    match el.name.as_str() {
        "source" => {
            let name = el
                .attr("name")
                .ok_or_else(|| MoteurError::new("<source> requires a name"))?;
            let position: u32 = el
                .attr("position")
                .ok_or_else(|| MoteurError::new("<source> requires a position"))?
                .parse()
                .map_err(|_| MoteurError::new("bad <source> position"))?;
            Ok(History::source(name, position))
        }
        "derived" => {
            let processor = el
                .attr("processor")
                .ok_or_else(|| MoteurError::new("<derived> requires a processor"))?;
            let inputs = el
                .elements()
                .map(history_from_xml)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(History::derived(processor, inputs))
        }
        other => Err(MoteurError::new(format!(
            "unknown provenance element <{other}>"
        ))),
    }
}

/// Levels the export wraps a history in: `<provenance>`, `<sink>`,
/// `<data>`.
const WRAPPERS: usize = 3;

/// A sink token's history nests deeper than an XML document may:
/// exported, the document would be one [`moteur_xml::parse`] refuses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvenanceTooDeep {
    /// The sink whose token it is.
    pub sink: String,
    /// Elements from the document root to its deepest source.
    pub depth: usize,
    /// The deepest document the reader accepts,
    /// [`moteur_xml::MAX_XML_DEPTH`].
    pub limit: usize,
}

impl std::fmt::Display for ProvenanceTooDeep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "provenance of sink `{}` nests {} elements deep, beyond the {} an XML document may",
            self.sink, self.depth, self.limit
        )
    }
}

impl std::error::Error for ProvenanceTooDeep {}

/// Elements on the longest root-to-source path of `history`, walked
/// with a stack of its own rather than the call stack. Each node is
/// measured once, however many parents list it, so a chain of diamonds
/// costs its nodes rather than its paths.
fn depth(history: &History) -> usize {
    let mut known: BTreeMap<*const History, usize> = BTreeMap::new();
    let mut stack = vec![history];
    while let Some(&node) = stack.last() {
        if known.contains_key(&(node as *const History)) {
            stack.pop();
            continue;
        }
        let inputs = match node.node() {
            HistoryNode::Derived { inputs, .. } => &inputs[..],
            HistoryNode::Source { .. } => &[],
        };
        let pending = stack.len();
        stack.extend(
            inputs
                .iter()
                .filter(|input| !known.contains_key(&Arc::as_ptr(input)))
                .map(|input| &**input),
        );
        if stack.len() == pending {
            let below = inputs.iter().map(|input| known[&Arc::as_ptr(input)]);
            known.insert(node, 1 + below.max().unwrap_or(0));
            stack.pop();
        }
    }
    known[&(history as *const History)]
}

/// Export every sink token's provenance as one `<provenance>` document,
/// or refuse, before writing any of it, a history the document could
/// not hold.
pub fn export_provenance(result: &WorkflowResult) -> Result<String, ProvenanceTooDeep> {
    let limit = moteur_xml::MAX_XML_DEPTH;
    for sink in result.sink_outputs.keys() {
        for token in result.sink(sink) {
            let depth = WRAPPERS + depth(&token.history);
            if depth > limit {
                let sink = sink.clone();
                return Err(ProvenanceTooDeep { sink, depth, limit });
            }
        }
    }
    let mut root = Element::new("provenance");
    for sink in result.sink_outputs.keys() {
        let mut sink_el = Element::new("sink").with_attr("name", sink.clone());
        for token in result.sink(sink) {
            sink_el = sink_el.with_child(
                Element::new("data")
                    .with_attr("index", token.index.to_string())
                    .with_child(history_to_xml(&token.history)),
            );
        }
        root = root.with_child(sink_el);
    }
    Ok(root.to_pretty_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::{DataIndex, Token};
    use crate::value::DataValue;
    use moteur_gridsim::SimDuration;
    use std::collections::BTreeMap;

    fn sample_history() -> Arc<History> {
        History::derived(
            "crestMatch",
            vec![
                History::derived("crestLines", vec![History::source("floatingImage", 3)]),
                History::source("referenceImage", 3),
            ],
        )
    }

    #[test]
    fn history_round_trips_through_xml() {
        let h = sample_history();
        let el = history_to_xml(&h);
        let text = el.to_pretty_string();
        let parsed = moteur_xml::parse(&text).unwrap();
        let back = history_from_xml(&parsed).unwrap();
        assert_eq!(*back, *h);
    }

    #[test]
    fn export_contains_every_sink_token() {
        let mut sink_outputs = BTreeMap::new();
        sink_outputs.insert(
            "results".to_string(),
            vec![
                Token {
                    value: DataValue::from(1.0),
                    index: DataIndex::single(0),
                    history: sample_history(),
                },
                Token {
                    value: DataValue::from(2.0),
                    index: DataIndex::single(1),
                    history: History::source("s", 1),
                },
            ],
        );
        let result = WorkflowResult {
            sink_counts: sink_outputs
                .iter()
                .map(|(k, v)| (k.clone(), v.len()))
                .collect(),
            sink_outputs,
            makespan: SimDuration::from_secs(1),
            completed_invocations: 0,
            jobs_submitted: 2,
            bytes_transferred: 0,
            quarantined: vec![],
        };
        let xml = export_provenance(&result).expect("shallow histories");
        let doc = moteur_xml::parse(&xml).unwrap();
        assert_eq!(doc.name, "provenance");
        let sink = doc.child("sink").unwrap();
        assert_eq!(sink.attr("name"), Some("results"));
        assert_eq!(sink.children_named("data").count(), 2);
        // The nested tree survives.
        let first = sink.children_named("data").next().unwrap();
        let derived = first.child("derived").unwrap();
        assert_eq!(derived.attr("processor"), Some("crestMatch"));
        assert_eq!(
            derived.element_count(),
            4,
            "crestMatch + crestLines + 2 sources"
        );
    }

    /// A result whose one sink holds one token of `history`.
    fn result_of(history: Arc<History>) -> WorkflowResult {
        let token = Token {
            value: DataValue::from(1.0),
            index: DataIndex::single(0),
            history,
        };
        WorkflowResult {
            sink_outputs: BTreeMap::from([("out".to_string(), vec![token])]),
            sink_counts: BTreeMap::from([("out".to_string(), 1)]),
            makespan: SimDuration::ZERO,
            completed_invocations: 1,
            jobs_submitted: 1,
            bytes_transferred: 0,
            quarantined: vec![],
        }
    }

    /// `stages` derivations over one source: `stages + 1` elements.
    fn chain(stages: usize) -> Arc<History> {
        let mut h = History::source("origin", 0);
        for i in 0..stages {
            h = History::derived(format!("stage{i}"), vec![h]);
        }
        h
    }

    #[test]
    fn the_deepest_exportable_history_round_trips_and_one_more_level_is_refused() {
        let limit = moteur_xml::MAX_XML_DEPTH;
        // Three wrapper levels, then `stages + 1` history elements.
        let deepest = chain(limit - WRAPPERS - 1);
        let xml = export_provenance(&result_of(deepest.clone())).expect("within the bound");
        let doc = moteur_xml::parse(&xml).expect("the reader accepts what the export writes");
        let data = doc.child("sink").and_then(|s| s.child("data")).unwrap();
        let history = data.elements().next().expect("the history element");
        assert_eq!(history_from_xml(history).unwrap(), deepest);

        let err = export_provenance(&result_of(chain(limit - WRAPPERS))).unwrap_err();
        assert_eq!(
            err,
            ProvenanceTooDeep {
                sink: "out".to_string(),
                depth: limit + 1,
                limit,
            }
        );
        assert_eq!(
            err.to_string(),
            "provenance of sink `out` nests 129 elements deep, beyond the 128 an XML document may"
        );
        let err = export_provenance(&result_of(chain(1_000))).unwrap_err();
        assert_eq!(err.depth, 1_000 + 1 + WRAPPERS);
    }

    #[test]
    fn a_chain_of_diamonds_is_measured_by_its_nodes_not_its_paths() {
        // Each level derives from the one below twice, as a processor
        // fed twice from one upstream token: 2^200 root-to-source paths.
        let mut h = History::source("origin", 0);
        for i in 0..200 {
            h = History::derived(format!("stage{i}"), vec![h.clone(), h]);
        }
        let err = export_provenance(&result_of(h)).unwrap_err();
        assert_eq!(err.depth, 200 + 1 + WRAPPERS);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        let bad = moteur_xml::parse("<wat/>").unwrap();
        assert!(history_from_xml(&bad).is_err());
        let bad = moteur_xml::parse("<source/>").unwrap();
        assert!(history_from_xml(&bad).is_err());
        let bad = moteur_xml::parse(r#"<source name="s" position="x"/>"#).unwrap();
        assert!(history_from_xml(&bad).is_err());
        let bad = moteur_xml::parse("<derived/>").unwrap();
        assert!(history_from_xml(&bad).is_err());
    }

    #[test]
    fn empty_result_exports_an_empty_document() {
        let result = WorkflowResult {
            sink_outputs: BTreeMap::new(),
            sink_counts: BTreeMap::new(),
            makespan: SimDuration::ZERO,
            completed_invocations: 0,
            jobs_submitted: 0,
            bytes_transferred: 0,
            quarantined: vec![],
        };
        let xml = export_provenance(&result).expect("shallow histories");
        let doc = moteur_xml::parse(&xml).unwrap();
        assert_eq!(doc.element_count(), 1);
    }
}
