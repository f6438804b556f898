//! Static checks over a single [`ExecutableDescriptor`].
//!
//! These are *lints*, not validation: [`ExecutableDescriptor::validate`]
//! rejects descriptors that cannot be represented at all (duplicate slot
//! names), while this module flags descriptors that parse fine but will
//! misbehave when the wrapper synthesises a command line. `moteur lint`
//! surfaces each finding as an `M050` diagnostic on the processor that
//! embeds the descriptor.

use crate::descriptor::ExecutableDescriptor;
use std::collections::BTreeMap;

/// One suspicious fact about a descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DescriptorFinding {
    /// Slot name the finding is about, when it concerns one slot.
    pub slot: Option<String>,
    /// Human-readable statement of the problem.
    pub message: String,
}

impl DescriptorFinding {
    fn new(slot: Option<&str>, message: impl Into<String>) -> Self {
        DescriptorFinding {
            slot: slot.map(str::to_string),
            message: message.into(),
        }
    }
}

/// Lint one descriptor. An empty result means the wrapper can build an
/// unambiguous command line from it.
pub fn lint_descriptor(desc: &ExecutableDescriptor) -> Vec<DescriptorFinding> {
    let mut findings = Vec::new();

    // Two slots sharing a command-line option produce an ambiguous
    // invocation: the executable sees the same flag twice and the
    // wrapper cannot know which value belongs to which slot.
    let mut by_option: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for slot in &desc.inputs {
        if !slot.option.is_empty() {
            by_option.entry(&slot.option).or_default().push(&slot.name);
        }
    }
    for slot in &desc.outputs {
        if !slot.option.is_empty() {
            by_option.entry(&slot.option).or_default().push(&slot.name);
        }
    }
    for (option, slots) in by_option.iter().filter(|(_, slots)| slots.len() > 1) {
        findings.push(DescriptorFinding::new(
            None,
            format!(
                "option `{option}` is shared by slots {}: the command line is ambiguous",
                slots
                    .iter()
                    .map(|s| format!("`{s}`"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ));
    }

    // A file slot with no option has nowhere to appear on the command
    // line: the wrapper stages the file in, then never names it.
    for slot in desc.file_inputs() {
        if slot.option.is_empty() {
            findings.push(DescriptorFinding::new(
                Some(&slot.name),
                format!(
                    "file input `{}` has no command-line option: the staged file is \
                     never passed to the executable",
                    slot.name
                ),
            ));
        }
    }
    for slot in &desc.outputs {
        if slot.option.is_empty() {
            findings.push(DescriptorFinding::new(
                Some(&slot.name),
                format!(
                    "output `{}` has no command-line option: the executable is never \
                     told where to write it",
                    slot.name
                ),
            ));
        }
    }

    // A declared item size of zero is almost certainly a typo: the
    // static transfer model would treat every item on the slot as
    // free, silently hiding the edge from `moteur plan`.
    for slot in &desc.inputs {
        if slot.bytes == Some(0) {
            findings.push(DescriptorFinding::new(
                Some(&slot.name),
                format!(
                    "input `{}` declares `bytes=\"0\"`: the static transfer model \
                     would treat its data as free",
                    slot.name
                ),
            ));
        }
    }

    // An executable that declares no outputs produces nothing to
    // register — downstream services can never consume its results.
    if desc.outputs.is_empty() {
        findings.push(DescriptorFinding::new(
            None,
            format!(
                "descriptor `{}` declares no outputs: the job produces nothing to register",
                desc.executable.name
            ),
        ));
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::{crest_lines_example, AccessMethod, FileItem, InputSlot, OutputSlot};

    fn minimal() -> ExecutableDescriptor {
        ExecutableDescriptor {
            executable: FileItem {
                name: "tool".into(),
                access: AccessMethod::Local,
                value: "tool".into(),
            },
            inputs: vec![],
            outputs: vec![OutputSlot {
                name: "out".into(),
                option: "-o".into(),
                access: AccessMethod::Gfn,
            }],
            sandboxes: vec![],
            nondeterministic: false,
        }
    }

    #[test]
    fn fig8_descriptor_is_clean() {
        assert!(lint_descriptor(&crest_lines_example()).is_empty());
    }

    #[test]
    fn duplicate_option_is_flagged_once_per_option() {
        let mut d = minimal();
        d.inputs = vec![
            InputSlot {
                name: "a".into(),
                option: "-x".into(),
                access: Some(AccessMethod::Gfn),
                bytes: None,
            },
            InputSlot {
                name: "b".into(),
                option: "-x".into(),
                access: Some(AccessMethod::Gfn),
                bytes: None,
            },
        ];
        let findings = lint_descriptor(&d);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("`-x`"));
        assert!(findings[0].message.contains("`a`") && findings[0].message.contains("`b`"));
    }

    #[test]
    fn optionless_file_slots_are_flagged_but_parameters_are_not() {
        let mut d = minimal();
        d.inputs = vec![
            InputSlot {
                name: "img".into(),
                option: String::new(),
                access: Some(AccessMethod::Gfn),
                bytes: None,
            },
            InputSlot {
                name: "scale".into(),
                option: String::new(),
                access: None, // positional parameter: legal
                bytes: None,
            },
        ];
        let findings = lint_descriptor(&d);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].slot.as_deref(), Some("img"));
    }

    #[test]
    fn zero_byte_item_size_is_flagged() {
        let mut d = minimal();
        d.inputs = vec![InputSlot {
            name: "img".into(),
            option: "-i".into(),
            access: Some(AccessMethod::Gfn),
            bytes: Some(0),
        }];
        let findings = lint_descriptor(&d);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].slot.as_deref(), Some("img"));
        assert!(findings[0].message.contains("bytes=\"0\""));
    }

    #[test]
    fn missing_outputs_are_flagged() {
        let mut d = minimal();
        d.outputs.clear();
        let findings = lint_descriptor(&d);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("no outputs"));
    }
}
