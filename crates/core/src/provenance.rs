//! Provenance export: serialise a run's history trees to XML.
//!
//! The paper leans on data provenance twice — to solve the causality
//! problem of out-of-order completions (§3.3/§4.1) and pointing at the
//! semantic-provenance literature for e-Science (its ref. \[32\]). This
//! module makes the recorded provenance a first-class artifact: every
//! sink token's full history tree, exportable as an XML document and
//! reloadable for post-hoc analysis.

use crate::error::MoteurError;
use crate::token::{History, HistoryNode};
use crate::trace::WorkflowResult;
use moteur_xml::Element;
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

/// Export every sink token's provenance as one `<provenance>` document.
pub fn export_provenance(result: &WorkflowResult) -> String {
    let mut root = Element::new("provenance");
    let mut sinks: Vec<&String> = result.sink_outputs.keys().collect();
    sinks.sort();
    for sink in sinks {
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
    root.to_pretty_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::{DataIndex, Token};
    use crate::value::DataValue;
    use moteur_gridsim::SimDuration;
    use std::collections::HashMap;

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
        let mut sink_outputs = HashMap::new();
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
        let xml = export_provenance(&result);
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
            sink_outputs: HashMap::new(),
            sink_counts: HashMap::new(),
            makespan: SimDuration::ZERO,
            completed_invocations: 0,
            jobs_submitted: 0,
            bytes_transferred: 0,
            quarantined: vec![],
        };
        let xml = export_provenance(&result);
        let doc = moteur_xml::parse(&xml).unwrap();
        assert_eq!(doc.element_count(), 1);
    }
}
