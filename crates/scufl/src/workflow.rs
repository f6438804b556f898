//! The Scufl-like workflow language.
//!
//! ```xml
//! <scufl name="bronze">
//!   <source name="referenceImage"/>
//!   <processor name="crestLines" compute="90" iteration="dot">
//!     <executable name="CrestLines.pl"> … Fig. 8 descriptor … </executable>
//!     <param slot="scale" value="2"/>
//!     <outputsize slot="crest_reference" bytes="400000"/>
//!   </processor>
//!   <processor name="MultiTransfoTest" compute="120" sync="true"> … </processor>
//!   <sink name="accuracy_rotation"/>
//!   <link from="referenceImage:out" to="crestLines:reference_image"/>
//!   <coordination from="crestMatch" to="MultiTransfoTest"/>
//! </scufl>
//! ```
//!
//! A processor's input ports are its descriptor's input slots minus the
//! fixed `<param>`s; its output ports are the descriptor's output
//! slots. Stochastic compute costs are supported through a `<cost>`
//! child (`lognormal`, `uniform`, `exponential`, `constant`).

use crate::ScuflError;
use moteur::lint::{Diagnostic, Severity};
use moteur::{
    CostModel, IterationStrategy, ProcId, ProcessorKind, ServiceBinding, ServiceProfile, Workflow,
};
use moteur_gridsim::Distribution;
use moteur_wrapper::ExecutableDescriptor;
use moteur_xml::Element;
use std::collections::BTreeMap;

/// Parse a workflow document strictly: the first parse-stage diagnostic
/// becomes the error, and the result is validated.
pub fn parse_workflow(text: &str) -> Result<Workflow, ScuflError> {
    let (wf, diags) = parse_workflow_lenient(text)?;
    if let Some(d) = diags.iter().find(|d| d.severity == Severity::Error) {
        return Err(ScuflError::new(d.message.clone()));
    }
    wf.validate()?;
    Ok(wf)
}

/// Parse a workflow document leniently: constructs that fail to parse
/// are skipped and reported as `M0xx` [`Diagnostic`]s (codes M060–M064,
/// plus M001 for unresolved link/coordination names) carrying byte
/// spans into `text`. `Err` is reserved for *fatal* conditions — XML
/// that does not parse at all, or a root element other than `<scufl>`.
///
/// The returned workflow is **not** validated; `moteur lint` runs the
/// graph-stage rules on it and merges both diagnostic streams.
pub fn parse_workflow_lenient(text: &str) -> Result<(Workflow, Vec<Diagnostic>), ScuflError> {
    let root = moteur_xml::parse(text)?;
    if root.name != "scufl" {
        return Err(ScuflError::new(format!(
            "expected <scufl>, found <{}>",
            root.name
        )));
    }
    Ok(build_workflow(&root))
}

/// Lenient parse for `moteur lint`: fatal conditions become a single
/// `M000` diagnostic (with the XML error's position when available)
/// instead of an `Err`, so the linter always has something to render.
pub fn lint_source(text: &str) -> (Option<Workflow>, Vec<Diagnostic>) {
    match moteur_xml::parse(text) {
        Err(e) => {
            let d = Diagnostic::error("M000", e.message())
                .primary(e.span(), "XML does not parse beyond this point")
                .with_help("fix the document's well-formedness before linting workflow rules");
            (None, vec![d])
        }
        Ok(root) if root.name != "scufl" => {
            let d = Diagnostic::error("M000", format!("expected <scufl>, found <{}>", root.name))
                .primary(root.span, "root element declared here");
            (None, vec![d])
        }
        Ok(root) => {
            let (wf, diags) = build_workflow(&root);
            (Some(wf), diags)
        }
    }
}

fn build_workflow(root: &Element) -> (Workflow, Vec<Diagnostic>) {
    let mut diags = Vec::new();
    let mut wf = Workflow::new(root.attr("name").unwrap_or("workflow"));
    wf.spans.workflow = root.span;
    // Link and coordination ends resolve by name, the first declaration
    // winning (a later one is M007).
    let mut ids: BTreeMap<&str, ProcId> = BTreeMap::new();
    for el in root.elements() {
        let added = wf.processors.len();
        match el.name.as_str() {
            "source" => {
                if let Some(name) = required(el, "name", &mut diags) {
                    let id = wf.add_source(&name);
                    wf.spans.processors.push(el.span);
                    if let Some(bytes) = el.attr("bytes") {
                        match bytes.parse::<u64>() {
                            Ok(b) => wf.set_item_bytes(id, b),
                            Err(_) => diags.push(
                                Diagnostic::error("M062", "bad source bytes")
                                    .primary(el.span, format!("`{bytes}` is not an integer"))
                                    .with_help("declare the per-item size as a byte count"),
                            ),
                        }
                    }
                }
            }
            "sink" => {
                if let Some(name) = required(el, "name", &mut diags) {
                    wf.add_sink(&name);
                    wf.spans.processors.push(el.span);
                }
            }
            "processor" => parse_processor(&mut wf, el, &mut diags),
            "link" | "coordination" => {} // second pass
            other => diags.push(
                Diagnostic::error("M060", format!("unknown element <{other}>"))
                    .primary(el.span, "not a scufl element")
                    .with_help("expected <source>, <sink>, <processor>, <link> or <coordination>"),
            ),
        }
        if let (Some(name), true) = (el.attr("name"), wf.processors.len() > added) {
            ids.entry(name).or_insert(ProcId(added));
        }
    }
    for el in root.children_named("link") {
        let Some((fp, fport)) = endpoint(el, "from", &mut diags) else {
            continue;
        };
        let Some((tp, tport)) = endpoint(el, "to", &mut diags) else {
            continue;
        };
        let Some(from) = resolve(&ids, &fp, el, "link from unknown processor", &mut diags) else {
            continue;
        };
        let Some(to) = resolve(&ids, &tp, el, "link to unknown processor", &mut diags) else {
            continue;
        };
        match wf.connect(from, &fport, to, &tport) {
            Ok(()) => wf.spans.links.push(el.span),
            Err(e) => diags.push(
                Diagnostic::error("M001", e.message().to_string())
                    .primary(el.span, "link declared here"),
            ),
        }
    }
    for el in root.children_named("coordination") {
        let Some(before) = required(el, "from", &mut diags) else {
            continue;
        };
        let Some(after) = required(el, "to", &mut diags) else {
            continue;
        };
        let Some(b) = resolve(&ids, &before, el, "coordination from unknown", &mut diags) else {
            continue;
        };
        let Some(a) = resolve(&ids, &after, el, "coordination to unknown", &mut diags) else {
            continue;
        };
        wf.add_control(b, a);
        wf.spans.control.push(el.span);
    }
    (wf, diags)
}

fn parse_processor(wf: &mut Workflow, el: &Element, diags: &mut Vec<Diagnostic>) {
    let Some(name) = required(el, "name", diags) else {
        return;
    };
    let Some(exe) = el.child("executable") else {
        diags.push(
            Diagnostic::error("M064", format!("processor `{name}` needs an <executable>"))
                .primary(el.span, "no descriptor in this processor")
                .with_help("embed a Fig. 8 <executable> descriptor"),
        );
        return;
    };
    let descriptor = match ExecutableDescriptor::from_xml(exe) {
        Ok(d) => d,
        Err(e) => {
            diags.push(
                Diagnostic::error("M064", e.to_string())
                    .primary(exe.span_or(el.span), "descriptor declared here"),
            );
            return;
        }
    };

    let mut profile = ServiceProfile::new(0.0);
    if let Some(cost_el) = el.child("cost") {
        // A bad <cost> falls back to zero so the processor still
        // exists for downstream rules; strict parsing stops here.
        profile = profile.with_cost(parse_cost(cost_el, diags).unwrap_or(CostModel::Fixed(0.0)));
    } else {
        match el.attr("compute").unwrap_or("0").parse::<f64>() {
            Ok(compute) => profile = profile.with_cost(CostModel::Fixed(compute)),
            Err(_) => diags.push(
                Diagnostic::error("M062", format!("bad compute value on `{name}`"))
                    .primary(el.attr_span("compute").unwrap_or(el.span), "not a number"),
            ),
        }
    }
    let mut param_spans = Vec::new();
    for p in el.children_named("param") {
        let (Some(slot), Some(value)) = (required(p, "slot", diags), required(p, "value", diags))
        else {
            continue;
        };
        param_spans.push((slot.clone(), p.span));
        profile = profile.with_fixed_param(slot, value);
    }
    let mut outputsize_spans = Vec::new();
    for o in el.children_named("outputsize") {
        let (Some(slot), Some(bytes)) = (required(o, "slot", diags), required(o, "bytes", diags))
        else {
            continue;
        };
        let Ok(bytes) = bytes.parse::<u64>() else {
            diags.push(
                Diagnostic::error("M062", "bad outputsize bytes")
                    .primary(o.attr_span("bytes").unwrap_or(o.span), "not an integer"),
            );
            continue;
        };
        outputsize_spans.push((slot.clone(), o.span));
        profile = profile.with_output_bytes(slot, bytes);
    }

    // Ports: descriptor slots minus fixed params.
    let fixed: Vec<String> = profile
        .fixed_params
        .iter()
        .map(|(s, _)| s.clone())
        .collect();
    let inputs: Vec<String> = descriptor
        .inputs
        .iter()
        .map(|i| i.name.clone())
        .filter(|n| !fixed.contains(n))
        .collect();
    let outputs: Vec<String> = descriptor.outputs.iter().map(|o| o.name.clone()).collect();
    let input_refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
    let output_refs: Vec<&str> = outputs.iter().map(String::as_str).collect();

    let id = wf.add_service(
        &name,
        &input_refs,
        &output_refs,
        ServiceBinding::descriptor(descriptor, profile),
    );
    wf.spans.processors.push(el.span);
    for (slot, span) in param_spans {
        wf.spans.params.push((id, slot, span));
    }
    for (slot, span) in outputsize_spans {
        wf.spans.outputsizes.push((id, slot, span));
    }
    match el.attr("iteration").unwrap_or("dot") {
        "dot" => wf.set_iteration(id, IterationStrategy::Dot),
        "cross" => wf.set_iteration(id, IterationStrategy::Cross),
        other => diags.push(
            Diagnostic::error("M062", format!("unknown iteration `{other}`"))
                .primary(
                    el.attr_span("iteration").unwrap_or(el.span),
                    "not an iteration strategy",
                )
                .with_help("use `dot` or `cross` (paper Fig. 3)"),
        ),
    }
    if el.attr("sync") == Some("true") {
        wf.set_synchronization(id, true);
    }
}

fn parse_cost(el: &Element, diags: &mut Vec<Diagnostic>) -> Option<CostModel> {
    let mut get = |a: &str| -> Option<f64> {
        let v = required(el, a, diags)?;
        match v.parse() {
            Ok(v) => Some(v),
            Err(_) => {
                diags.push(
                    Diagnostic::error("M062", format!("bad <cost> attribute `{a}`"))
                        .primary(el.attr_span(a).unwrap_or(el.span), "not a number"),
                );
                None
            }
        }
    };
    let dist = match el.attr("type") {
        Some("constant") => Distribution::Constant(get("value")?),
        Some("uniform") => Distribution::Uniform {
            lo: get("lo")?,
            hi: get("hi")?,
        },
        Some("exponential") => Distribution::Exponential { mean: get("mean")? },
        Some("lognormal") => Distribution::LogNormal {
            median: get("median")?,
            sigma: get("sigma")?,
        },
        other => {
            diags.push(
                Diagnostic::error("M062", format!("unknown cost type {other:?}"))
                    .primary(el.span, "declared here")
                    .with_help("use constant, uniform, exponential or lognormal"),
            );
            return None;
        }
    };
    Some(CostModel::Stochastic(dist))
}

fn endpoint(el: &Element, attr: &str, diags: &mut Vec<Diagnostic>) -> Option<(String, String)> {
    let v = required(el, attr, diags)?;
    match v.split_once(':') {
        Some((proc, port)) => Some((proc.to_string(), port.to_string())),
        None => {
            diags.push(
                Diagnostic::error("M063", format!("endpoint `{v}` must be `processor:port`"))
                    .primary(el.attr_span(attr).unwrap_or(el.span), "malformed endpoint"),
            );
            None
        }
    }
}

fn resolve(
    ids: &BTreeMap<&str, ProcId>,
    name: &str,
    el: &Element,
    what: &str,
    diags: &mut Vec<Diagnostic>,
) -> Option<ProcId> {
    match ids.get(name) {
        Some(&id) => Some(id),
        None => {
            diags.push(
                Diagnostic::error("M001", format!("{what} `{name}`"))
                    .primary(el.span, "declared here")
                    .with_help("every endpoint must name a declared source, sink or processor"),
            );
            None
        }
    }
}

fn required(el: &Element, attr: &str, diags: &mut Vec<Diagnostic>) -> Option<String> {
    match el.attr(attr) {
        Some(v) => Some(v.to_string()),
        None => {
            diags.push(
                Diagnostic::error("M061", format!("<{}> requires attribute `{attr}`", el.name))
                    .primary(el.span, "declared here"),
            );
            None
        }
    }
}

/// Serialise a workflow back to the Scufl dialect. Only descriptor
/// bindings are expressible; local or grouped bindings are an error
/// (grouping is a run-time transform, not a document feature).
pub fn write_workflow(wf: &Workflow) -> Result<String, ScuflError> {
    let mut root = Element::new("scufl").with_attr("name", wf.name.clone());
    for p in &wf.processors {
        match p.kind {
            ProcessorKind::Source => {
                let mut el = Element::new("source").with_attr("name", p.name.clone());
                // Attribute only when set, so documents without size
                // declarations round-trip unchanged.
                if let Some(bytes) = p.item_bytes {
                    el = el.with_attr("bytes", bytes.to_string());
                }
                root = root.with_child(el);
            }
            ProcessorKind::Sink => {
                root = root.with_child(Element::new("sink").with_attr("name", p.name.clone()));
            }
            ProcessorKind::Service => {
                let Some(ServiceBinding::Descriptor {
                    descriptor,
                    profile,
                }) = &p.binding
                else {
                    return Err(ScuflError::new(format!(
                        "processor `{}` has a non-descriptor binding and cannot be serialised",
                        p.name
                    )));
                };
                let mut el = Element::new("processor").with_attr("name", p.name.clone());
                el = el.with_attr(
                    "iteration",
                    match p.iteration {
                        IterationStrategy::Dot => "dot",
                        IterationStrategy::Cross => "cross",
                    },
                );
                if p.synchronization {
                    el = el.with_attr("sync", "true");
                }
                match &profile.compute {
                    CostModel::Fixed(v) => {
                        el = el.with_attr("compute", format!("{v}"));
                    }
                    CostModel::Stochastic(d) => {
                        el = el.with_child(write_cost(d)?);
                    }
                    CostModel::ByIndex(_) => {
                        return Err(ScuflError::new(format!(
                            "processor `{}` has a programmatic cost model",
                            p.name
                        )))
                    }
                }
                let desc_doc = descriptor.to_xml();
                let exe = desc_doc
                    .child("executable")
                    .expect("descriptor serialisation always nests <executable>")
                    .clone();
                el = el.with_child(exe);
                for (slot, value) in &profile.fixed_params {
                    el = el.with_child(
                        Element::new("param")
                            .with_attr("slot", slot.clone())
                            .with_attr("value", value.clone()),
                    );
                }
                for (slot, bytes) in &profile.output_bytes {
                    el = el.with_child(
                        Element::new("outputsize")
                            .with_attr("slot", slot.clone())
                            .with_attr("bytes", bytes.to_string()),
                    );
                }
                root = root.with_child(el);
            }
        }
    }
    for l in &wf.links {
        let fp = &wf.processors[l.from.proc.0];
        let tp = &wf.processors[l.to.proc.0];
        root = root.with_child(
            Element::new("link")
                .with_attr("from", format!("{}:{}", fp.name, fp.outputs[l.from.port]))
                .with_attr("to", format!("{}:{}", tp.name, tp.inputs[l.to.port])),
        );
    }
    for (b, a) in &wf.control {
        root = root.with_child(
            Element::new("coordination")
                .with_attr("from", wf.processors[b.0].name.clone())
                .with_attr("to", wf.processors[a.0].name.clone()),
        );
    }
    Ok(root.to_pretty_string())
}

fn write_cost(d: &Distribution) -> Result<Element, ScuflError> {
    let el = Element::new("cost");
    Ok(match d {
        Distribution::Constant(v) => el
            .with_attr("type", "constant")
            .with_attr("value", v.to_string()),
        Distribution::Uniform { lo, hi } => el
            .with_attr("type", "uniform")
            .with_attr("lo", lo.to_string())
            .with_attr("hi", hi.to_string()),
        Distribution::Exponential { mean } => el
            .with_attr("type", "exponential")
            .with_attr("mean", mean.to_string()),
        Distribution::LogNormal { median, sigma } => el
            .with_attr("type", "lognormal")
            .with_attr("median", median.to_string())
            .with_attr("sigma", sigma.to_string()),
        other => {
            return Err(ScuflError::new(format!(
                "cost distribution {other:?} not expressible"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = r#"
<scufl name="demo">
  <source name="images"/>
  <processor name="crestLines" compute="90">
    <executable name="CrestLines.pl">
      <value value="CrestLines.pl"/>
      <input name="img" option="-im1"><access type="GFN"/></input>
      <input name="scale" option="-s"/>
      <output name="crest" option="-c1"><access type="GFN"/></output>
    </executable>
    <param slot="scale" value="2"/>
    <outputsize slot="crest" bytes="400000"/>
  </processor>
  <sink name="results"/>
  <link from="images:out" to="crestLines:img"/>
  <link from="crestLines:crest" to="results:in"/>
</scufl>"#;

    #[test]
    fn parses_a_valid_document() {
        let wf = parse_workflow(DEMO).unwrap();
        assert_eq!(wf.name, "demo");
        assert_eq!(wf.processors.len(), 3);
        assert_eq!(wf.links.len(), 2);
        let p = wf.processor(wf.find("crestLines").unwrap());
        // `scale` is a fixed param, so not an input port.
        assert_eq!(p.inputs, vec!["img"]);
        assert_eq!(p.outputs, vec!["crest"]);
        match p.binding.as_ref().unwrap() {
            ServiceBinding::Descriptor { profile, .. } => {
                assert_eq!(profile.fixed_param("scale"), Some("2"));
                assert_eq!(profile.output_size("crest"), 400_000);
                assert!(matches!(profile.compute, CostModel::Fixed(v) if v == 90.0));
            }
            other => panic!("unexpected binding {other:?}"),
        }
    }

    #[test]
    fn round_trips_through_the_writer() {
        let wf = parse_workflow(DEMO).unwrap();
        let text = write_workflow(&wf).unwrap();
        let wf2 = parse_workflow(&text).unwrap();
        assert_eq!(wf2.processors.len(), wf.processors.len());
        assert_eq!(wf2.links.len(), wf.links.len());
        let p = wf2.processor(wf2.find("crestLines").unwrap());
        assert_eq!(p.inputs, vec!["img"]);
    }

    #[test]
    fn source_bytes_parses_and_round_trips() {
        let text = DEMO.replace(
            r#"<source name="images"/>"#,
            r#"<source name="images" bytes="7864320"/>"#,
        );
        let wf = parse_workflow(&text).unwrap();
        let src = wf.processor(wf.find("images").unwrap());
        assert_eq!(src.item_bytes, Some(7_864_320));

        let written = write_workflow(&wf).unwrap();
        assert!(written.contains(r#"bytes="7864320""#));
        let wf2 = parse_workflow(&written).unwrap();
        let src2 = wf2.processor(wf2.find("images").unwrap());
        assert_eq!(src2.item_bytes, Some(7_864_320));

        // Documents without the attribute keep emitting none.
        let plain = parse_workflow(DEMO).unwrap();
        assert!(!write_workflow(&plain).unwrap().contains("bytes=\"7"));
    }

    #[test]
    fn bad_source_bytes_is_rejected() {
        let text = DEMO.replace(
            r#"<source name="images"/>"#,
            r#"<source name="images" bytes="lots"/>"#,
        );
        let (_, diags) = parse_workflow_lenient(&text).unwrap();
        assert!(diags.iter().any(|d| d.code == "M062"));
    }

    #[test]
    fn sync_and_iteration_attributes() {
        let text = DEMO.replace(
            r#"<processor name="crestLines" compute="90">"#,
            r#"<processor name="crestLines" compute="90" sync="true" iteration="cross">"#,
        );
        let wf = parse_workflow(&text).unwrap();
        let p = wf.processor(wf.find("crestLines").unwrap());
        assert!(p.synchronization);
        assert_eq!(p.iteration, IterationStrategy::Cross);
    }

    #[test]
    fn stochastic_cost_parses_and_round_trips() {
        let text = DEMO.replace(
            r#"<processor name="crestLines" compute="90">"#,
            r#"<processor name="crestLines"><cost type="lognormal" median="90" sigma="0.5"/>"#,
        );
        let wf = parse_workflow(&text).unwrap();
        let p = wf.processor(wf.find("crestLines").unwrap());
        match p.binding.as_ref().unwrap() {
            ServiceBinding::Descriptor { profile, .. } => match &profile.compute {
                CostModel::Stochastic(Distribution::LogNormal { median, sigma }) => {
                    assert_eq!(*median, 90.0);
                    assert_eq!(*sigma, 0.5);
                }
                other => panic!("unexpected cost {other:?}"),
            },
            _ => unreachable!(),
        }
        let round = parse_workflow(&write_workflow(&wf).unwrap()).unwrap();
        assert_eq!(round.processors.len(), 3);
    }

    #[test]
    fn coordination_constraints_parse() {
        let text = DEMO.replace(
            "</scufl>",
            r#"<coordination from="images" to="crestLines"/></scufl>"#,
        );
        let wf = parse_workflow(&text).unwrap();
        assert_eq!(wf.control.len(), 1);
    }

    #[test]
    fn error_cases() {
        assert!(parse_workflow("<notscufl/>")
            .unwrap_err()
            .to_string()
            .contains("expected <scufl>"));
        assert!(parse_workflow(r#"<scufl><mystery/></scufl>"#)
            .unwrap_err()
            .to_string()
            .contains("unknown element"));
        let bad_link = DEMO.replace("images:out", "nope:out");
        assert!(parse_workflow(&bad_link)
            .unwrap_err()
            .to_string()
            .contains("unknown processor"));
        let bad_endpoint = DEMO.replace("images:out", "images");
        assert!(parse_workflow(&bad_endpoint)
            .unwrap_err()
            .to_string()
            .contains("must be `processor:port`"));
        let bad_iter = DEMO.replace(r#"compute="90""#, r#"compute="90" iteration="zip""#);
        assert!(parse_workflow(&bad_iter)
            .unwrap_err()
            .to_string()
            .contains("unknown iteration"));
    }

    #[test]
    fn unconnected_port_fails_validation() {
        let text = DEMO.replace(r#"<link from="images:out" to="crestLines:img"/>"#, "");
        assert!(parse_workflow(&text)
            .unwrap_err()
            .to_string()
            .contains("not connected"));
    }

    #[test]
    fn lenient_parse_collects_diagnostics_instead_of_stopping() {
        let text = DEMO
            .replace(
                "<sink name=\"results\"/>",
                "<sink name=\"results\"/><mystery/>",
            )
            .replace("images:out", "nope:out");
        let (wf, diags) = parse_workflow_lenient(&text).unwrap();
        // Both problems reported, and the rest of the document parsed.
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert_eq!(codes, ["M060", "M001"]);
        assert_eq!(wf.processors.len(), 3);
        assert_eq!(wf.links.len(), 1, "the bad link was skipped");
        // Spans resolve to the offending constructs in the source.
        let m060 = &text[diags[0].primary_span().start..diags[0].primary_span().end];
        assert_eq!(m060, "<mystery/>");
        let m001 = &text[diags[1].primary_span().start..diags[1].primary_span().end];
        assert!(m001.starts_with("<link") && m001.contains("nope:out"));
    }

    #[test]
    fn lenient_parse_populates_source_spans() {
        let (wf, diags) = parse_workflow_lenient(DEMO).unwrap();
        assert!(diags.is_empty());
        assert_eq!(wf.spans.processors.len(), wf.processors.len());
        let crest = wf.find("crestLines").unwrap();
        let pspan = wf.spans.processor(crest);
        assert!(DEMO[pspan.start..pspan.end].starts_with("<processor name=\"crestLines\""));
        assert_eq!(wf.spans.links.len(), wf.links.len());
        assert!(DEMO[wf.spans.link(0).start..wf.spans.link(0).end].starts_with("<link"));
        let param = wf.spans.param(crest, "scale");
        assert!(DEMO[param.start..param.end].starts_with("<param slot=\"scale\""));
        let osize = wf.spans.outputsize(crest, "crest");
        assert!(DEMO[osize.start..osize.end].starts_with("<outputsize"));
    }

    #[test]
    fn lint_source_reports_fatal_conditions_as_m000() {
        let (wf, diags) = lint_source("<scufl><oops</scufl>");
        assert!(wf.is_none());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "M000");
        let (wf, diags) = lint_source("<notscufl/>");
        assert!(wf.is_none());
        assert_eq!(diags[0].code, "M000");
        assert!(diags[0].message.contains("expected <scufl>"));
        let (wf, diags) = lint_source(DEMO);
        assert!(wf.is_some());
        assert!(diags.is_empty());
    }

    #[test]
    fn local_bindings_cannot_be_serialised() {
        let mut wf = parse_workflow(DEMO).unwrap();
        let id = wf.find("crestLines").unwrap();
        let svc = |_: &[moteur::Token]| -> Result<Vec<(String, moteur::DataValue)>, String> {
            Ok(vec![])
        };
        wf.processor_mut(id).binding = Some(ServiceBinding::local(svc));
        assert!(write_workflow(&wf)
            .unwrap_err()
            .to_string()
            .contains("non-descriptor"));
    }
}
