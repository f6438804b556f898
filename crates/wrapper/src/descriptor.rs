//! The executable-descriptor language of paper Fig. 8.
//!
//! A descriptor tells the generic wrapper service everything it needs to
//! invoke a legacy executable: where to fetch the binary, which
//! sandboxed side files it needs, and how each input/parameter/output
//! maps to a command-line option. Input *files* carry an access method
//! but no value (values are bound at invocation time — the service-based
//! "dynamic declaration" of data); *parameters* are inputs without an
//! access method.

use crate::error::WrapperError;
use moteur_xml::Element;

/// How a file is located and fetched/registered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessMethod {
    /// Downloadable from a server (`<access type="URL"><path value=…/></access>`).
    Url { server: String },
    /// A Grid File Name resolved through the replica catalog.
    Gfn,
    /// A plain local file on the execution host.
    Local,
}

impl AccessMethod {
    fn parse(el: &Element) -> Result<AccessMethod, WrapperError> {
        match el.attr("type") {
            Some("URL") => {
                let server = el
                    .child("path")
                    .and_then(|p| p.attr("value"))
                    .ok_or_else(|| WrapperError::new("URL access requires <path value=...>"))?;
                Ok(AccessMethod::Url {
                    server: server.to_string(),
                })
            }
            Some("GFN") => Ok(AccessMethod::Gfn),
            Some("LFN") | Some("Local") | Some("local") => Ok(AccessMethod::Local),
            Some(other) => Err(WrapperError::new(format!("unknown access type `{other}`"))),
            None => Err(WrapperError::new("<access> requires a type attribute")),
        }
    }

    fn to_xml(&self) -> Element {
        match self {
            AccessMethod::Url { server } => Element::new("access")
                .with_attr("type", "URL")
                .with_child(Element::new("path").with_attr("value", server.clone())),
            AccessMethod::Gfn => Element::new("access").with_attr("type", "GFN"),
            AccessMethod::Local => Element::new("access").with_attr("type", "Local"),
        }
    }
}

/// A concrete file shipped with the job: the executable itself or a
/// sandboxed side file (script, dynamic library…).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileItem {
    /// Logical name (the `name` attribute).
    pub name: String,
    pub access: AccessMethod,
    /// The file name to fetch (the `<value value=…/>` child).
    pub value: String,
}

/// An input slot: a file (has an access method) or a parameter (no
/// access method, passed literally on the command line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputSlot {
    pub name: String,
    /// Command-line option, e.g. `-im1`. Empty means positional.
    pub option: String,
    /// `None` for value parameters.
    pub access: Option<AccessMethod>,
    /// Declared per-item size in bytes (`bytes="…"` on `<input>`) — the
    /// expected size of each file arriving on this slot, consumed by
    /// the static transfer model when the producer declares nothing.
    pub bytes: Option<u64>,
}

impl InputSlot {
    pub fn is_file(&self) -> bool {
        self.access.is_some()
    }
}

/// An output slot; always a file with a registration method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputSlot {
    pub name: String,
    pub option: String,
    pub access: AccessMethod,
}

/// A full executable descriptor (paper Fig. 8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutableDescriptor {
    pub executable: FileItem,
    pub inputs: Vec<InputSlot>,
    pub outputs: Vec<OutputSlot>,
    pub sandboxes: Vec<FileItem>,
    /// The executable's outputs are not a pure function of its inputs
    /// (wall-clock stamps, random seeds, hardware-dependent rounding…).
    /// Declared with `nondeterministic="true"` on `<executable>`; such
    /// services are never memoized by the data manager.
    pub nondeterministic: bool,
}

impl ExecutableDescriptor {
    /// Parse the `<description><executable …>` document.
    pub fn from_xml(root: &Element) -> Result<Self, WrapperError> {
        let exe_el = if root.name == "executable" {
            root
        } else {
            root.child("executable")
                .ok_or_else(|| WrapperError::new("missing <executable> element"))?
        };
        let name = exe_el
            .attr("name")
            .ok_or_else(|| WrapperError::new("<executable> requires a name"))?
            .to_string();
        let access = exe_el
            .child("access")
            .map(AccessMethod::parse)
            .transpose()?
            .unwrap_or(AccessMethod::Local);
        let value = exe_el
            .child("value")
            .and_then(|v| v.attr("value"))
            .map_or_else(|| name.clone(), str::to_string);
        let executable = FileItem {
            name,
            access,
            value,
        };

        let mut inputs = Vec::new();
        for el in exe_el.children_named("input") {
            let bytes = match el.attr("bytes") {
                None => None,
                Some(v) => Some(v.parse::<u64>().map_err(|_| {
                    WrapperError::new(format!("<input> `bytes` is not an integer: `{v}`"))
                })?),
            };
            inputs.push(InputSlot {
                name: required_name(el, "input")?,
                option: el.attr("option").unwrap_or_default().to_string(),
                access: el.child("access").map(AccessMethod::parse).transpose()?,
                bytes,
            });
        }
        let mut outputs = Vec::new();
        for el in exe_el.children_named("output") {
            outputs.push(OutputSlot {
                name: required_name(el, "output")?,
                option: el.attr("option").unwrap_or_default().to_string(),
                access: el
                    .child("access")
                    .map(AccessMethod::parse)
                    .transpose()?
                    .unwrap_or(AccessMethod::Gfn),
            });
        }
        let mut sandboxes = Vec::new();
        for el in exe_el.children_named("sandbox") {
            let name = required_name(el, "sandbox")?;
            let access = el
                .child("access")
                .map(AccessMethod::parse)
                .transpose()?
                .ok_or_else(|| WrapperError::new("<sandbox> requires an <access>"))?;
            let value = el
                .child("value")
                .and_then(|v| v.attr("value"))
                .map_or_else(|| name.clone(), str::to_string);
            sandboxes.push(FileItem {
                name,
                access,
                value,
            });
        }

        let d = ExecutableDescriptor {
            executable,
            inputs,
            outputs,
            sandboxes,
            nondeterministic: exe_el.attr("nondeterministic") == Some("true"),
        };
        d.validate()?;
        Ok(d)
    }

    /// Parse from descriptor XML text.
    pub fn parse(text: &str) -> Result<Self, WrapperError> {
        let root = moteur_xml::parse(text)
            .map_err(|e| WrapperError::new(format!("descriptor XML: {e}")))?;
        Self::from_xml(&root)
    }

    /// Serialise back to the Fig. 8 XML dialect.
    pub fn to_xml(&self) -> Element {
        let mut exe = Element::new("executable").with_attr("name", self.executable.name.clone());
        // Attribute only when set: deterministic descriptors keep
        // byte-identical round-trips with pre-existing documents.
        if self.nondeterministic {
            exe = exe.with_attr("nondeterministic", "true");
        }
        exe = exe
            .with_child(self.executable.access.to_xml())
            .with_child(Element::new("value").with_attr("value", self.executable.value.clone()));
        for i in &self.inputs {
            let mut el = Element::new("input")
                .with_attr("name", i.name.clone())
                .with_attr("option", i.option.clone());
            // Attribute only when set, like `nondeterministic` above.
            if let Some(b) = i.bytes {
                el = el.with_attr("bytes", b.to_string());
            }
            if let Some(a) = &i.access {
                el = el.with_child(a.to_xml());
            }
            exe = exe.with_child(el);
        }
        for o in &self.outputs {
            exe = exe.with_child(
                Element::new("output")
                    .with_attr("name", o.name.clone())
                    .with_attr("option", o.option.clone())
                    .with_child(o.access.to_xml()),
            );
        }
        for s in &self.sandboxes {
            exe = exe.with_child(
                Element::new("sandbox")
                    .with_attr("name", s.name.clone())
                    .with_child(s.access.to_xml())
                    .with_child(Element::new("value").with_attr("value", s.value.clone())),
            );
        }
        Element::new("description").with_child(exe)
    }

    /// Slot-name uniqueness and basic well-formedness.
    pub fn validate(&self) -> Result<(), WrapperError> {
        let mut seen = std::collections::BTreeSet::new();
        for n in self
            .inputs
            .iter()
            .map(|i| &i.name)
            .chain(self.outputs.iter().map(|o| &o.name))
        {
            if !seen.insert(n) {
                return Err(WrapperError::new(format!("duplicate slot name `{n}`")));
            }
        }
        if self.executable.value.is_empty() {
            return Err(WrapperError::new("executable value must not be empty"));
        }
        Ok(())
    }

    pub fn input(&self, name: &str) -> Option<&InputSlot> {
        self.inputs.iter().find(|i| i.name == name)
    }

    pub fn output(&self, name: &str) -> Option<&OutputSlot> {
        self.outputs.iter().find(|o| o.name == name)
    }

    /// Input slots that are files (need staging).
    pub fn file_inputs(&self) -> impl Iterator<Item = &InputSlot> {
        self.inputs.iter().filter(|i| i.is_file())
    }

    /// Input slots that are plain parameters.
    pub fn parameters(&self) -> impl Iterator<Item = &InputSlot> {
        self.inputs.iter().filter(|i| !i.is_file())
    }
}

fn required_name(el: &Element, what: &str) -> Result<String, WrapperError> {
    el.attr("name")
        .map(str::to_string)
        .ok_or_else(|| WrapperError::new(format!("<{what}> requires a name")))
}

/// The paper's Fig. 8 example: the `crestLines` service descriptor.
pub fn crest_lines_example() -> ExecutableDescriptor {
    ExecutableDescriptor {
        executable: FileItem {
            name: "CrestLines.pl".into(),
            access: AccessMethod::Url {
                server: "http://colors.unice.fr".into(),
            },
            value: "CrestLines.pl".into(),
        },
        inputs: vec![
            InputSlot {
                name: "floating_image".into(),
                option: "-im1".into(),
                access: Some(AccessMethod::Gfn),
                bytes: None,
            },
            InputSlot {
                name: "reference_image".into(),
                option: "-im2".into(),
                access: Some(AccessMethod::Gfn),
                bytes: None,
            },
            InputSlot {
                name: "scale".into(),
                option: "-s".into(),
                access: None,
                bytes: None,
            },
        ],
        outputs: vec![
            OutputSlot {
                name: "crest_reference".into(),
                option: "-c1".into(),
                access: AccessMethod::Gfn,
            },
            OutputSlot {
                name: "crest_floating".into(),
                option: "-c2".into(),
                access: AccessMethod::Gfn,
            },
        ],
        sandboxes: vec![
            FileItem {
                name: "convert8bits".into(),
                access: AccessMethod::Url {
                    server: "http://colors.unice.fr".into(),
                },
                value: "Convert8bits.pl".into(),
            },
            FileItem {
                name: "copy".into(),
                access: AccessMethod::Url {
                    server: "http://colors.unice.fr".into(),
                },
                value: "copy".into(),
            },
            FileItem {
                name: "cmatch".into(),
                access: AccessMethod::Url {
                    server: "http://colors.unice.fr".into(),
                },
                value: "cmatch".into(),
            },
        ],
        nondeterministic: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG8: &str = r#"
<description>
  <executable name="CrestLines.pl">
    <access type="URL"><path value="http://colors.unice.fr"/></access>
    <value value="CrestLines.pl"/>
    <input name="floating_image" option="-im1"><access type="GFN"/></input>
    <input name="reference_image" option="-im2"><access type="GFN"/></input>
    <input name="scale" option="-s"/>
    <output name="crest_reference" option="-c1"><access type="GFN"/></output>
    <output name="crest_floating" option="-c2"><access type="GFN"/></output>
    <sandbox name="convert8bits">
      <access type="URL"><path value="http://colors.unice.fr"/></access>
      <value value="Convert8bits.pl"/>
    </sandbox>
    <sandbox name="copy">
      <access type="URL"><path value="http://colors.unice.fr"/></access>
      <value value="copy"/>
    </sandbox>
    <sandbox name="cmatch">
      <access type="URL"><path value="http://colors.unice.fr"/></access>
      <value value="cmatch"/>
    </sandbox>
  </executable>
</description>"#;

    #[test]
    fn parses_the_papers_fig8_descriptor() {
        let d = ExecutableDescriptor::parse(FIG8).unwrap();
        assert_eq!(d, crest_lines_example());
    }

    #[test]
    fn fig8_round_trips_through_xml() {
        let d = crest_lines_example();
        let text = d.to_xml().to_pretty_string();
        assert_eq!(ExecutableDescriptor::parse(&text).unwrap(), d);
    }

    #[test]
    fn file_inputs_vs_parameters_split() {
        let d = crest_lines_example();
        let files: Vec<_> = d.file_inputs().map(|i| i.name.as_str()).collect();
        let params: Vec<_> = d.parameters().map(|i| i.name.as_str()).collect();
        assert_eq!(files, ["floating_image", "reference_image"]);
        assert_eq!(params, ["scale"]);
    }

    #[test]
    fn rejects_duplicate_slot_names() {
        let bad = r#"<description><executable name="x">
            <value value="x"/>
            <input name="a" option="-a"/>
            <output name="a" option="-o"><access type="GFN"/></output>
        </executable></description>"#;
        assert!(ExecutableDescriptor::parse(bad)
            .unwrap_err()
            .to_string()
            .contains("duplicate"));
    }

    #[test]
    fn rejects_missing_executable() {
        assert!(ExecutableDescriptor::parse("<description/>").is_err());
    }

    #[test]
    fn rejects_unknown_access_type() {
        let bad = r#"<description><executable name="x"><value value="x"/>
            <input name="a" option="-a"><access type="FTP"/></input>
        </executable></description>"#;
        assert!(ExecutableDescriptor::parse(bad).is_err());
    }

    #[test]
    fn url_access_requires_path() {
        let bad = r#"<description><executable name="x">
            <access type="URL"/><value value="x"/>
        </executable></description>"#;
        assert!(ExecutableDescriptor::parse(bad).is_err());
    }

    #[test]
    fn executable_value_defaults_to_name() {
        let d =
            ExecutableDescriptor::parse(r#"<description><executable name="tool"/></description>"#)
                .unwrap();
        assert_eq!(d.executable.value, "tool");
        assert_eq!(d.executable.access, AccessMethod::Local);
    }

    #[test]
    fn nondeterministic_attribute_round_trips() {
        let text = r#"<description><executable name="x" nondeterministic="true">
            <value value="x"/>
        </executable></description>"#;
        let d = ExecutableDescriptor::parse(text).unwrap();
        assert!(d.nondeterministic);
        let again = ExecutableDescriptor::parse(&d.to_xml().to_pretty_string()).unwrap();
        assert!(again.nondeterministic);
        // Deterministic descriptors never grow the attribute.
        let det = crest_lines_example();
        assert!(!det.to_xml().to_pretty_string().contains("nondeterministic"));
    }

    #[test]
    fn slot_lookup_helpers() {
        let d = crest_lines_example();
        assert!(d.input("scale").is_some());
        assert!(d.input("nope").is_none());
        assert_eq!(d.output("crest_floating").unwrap().option, "-c2");
    }
}
