//! Binding descriptor slots to concrete values and synthesising the
//! command line and transfer plan of one job.
//!
//! This is the "dynamic composition of the command line from the list
//! of parameters at the service invocation time" of paper §3.6: the
//! descriptor is static, the data values arrive with each invocation.
//! A [`Binding`] names every value up front; [`plan_single`] and
//! [`command_line`] turn it into the one stage of a
//! [`JobTemplate`](crate::JobTemplate) and fill it at once.

use crate::catalog::Catalog;
use crate::compose::bound_job;
use crate::descriptor::ExecutableDescriptor;
use crate::error::WrapperError;

/// A value bound to an input slot at invocation time.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundValue {
    /// A file identified by GFN/URL, staged in before execution.
    File { gfn: String },
    /// A literal command-line parameter.
    Value(String),
}

/// An output produced by the invocation: where to register it and the
/// expected size (for the transfer model).
#[derive(Debug, Clone, PartialEq)]
pub struct BoundOutput {
    pub slot: String,
    pub gfn: String,
    pub bytes: u64,
}

/// The per-invocation binding of a descriptor's slots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Binding {
    pub inputs: Vec<(String, BoundValue)>,
    pub outputs: Vec<BoundOutput>,
}

impl Binding {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn bind_file(mut self, slot: impl Into<String>, gfn: impl Into<String>) -> Self {
        self.inputs
            .push((slot.into(), BoundValue::File { gfn: gfn.into() }));
        self
    }

    pub fn bind_value(mut self, slot: impl Into<String>, value: impl Into<String>) -> Self {
        self.inputs
            .push((slot.into(), BoundValue::Value(value.into())));
        self
    }

    pub fn bind_output(
        mut self,
        slot: impl Into<String>,
        gfn: impl Into<String>,
        bytes: u64,
    ) -> Self {
        self.outputs.push(BoundOutput {
            slot: slot.into(),
            gfn: gfn.into(),
            bytes,
        });
        self
    }
}

/// A file the job must fetch or register, with its size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferFile {
    pub name: String,
    pub bytes: u64,
}

/// Everything the generic wrapper needs to run one grid job: the
/// command line(s) to execute, the files to stage in and the outputs to
/// register afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct JobPlan {
    pub command_lines: Vec<String>,
    pub fetch: Vec<TransferFile>,
    pub store: Vec<TransferFile>,
}

impl JobPlan {
    pub fn fetch_bytes(&self) -> u64 {
        self.fetch.iter().map(|f| f.bytes).sum()
    }

    pub fn store_bytes(&self) -> u64 {
        self.store.iter().map(|f| f.bytes).sum()
    }

    /// Run `other`'s commands after this plan's in the same job: a file
    /// both stage in is fetched once.
    pub fn absorb(&mut self, other: JobPlan) {
        self.command_lines.extend(other.command_lines);
        for f in other.fetch {
            if !self.fetch.iter().any(|g| g.name == f.name) {
                self.fetch.push(f);
            }
        }
        self.store.extend(other.store);
    }
}

/// Local (worker-side) file name for a GFN/URL: its last path segment.
pub fn local_name(gfn: &str) -> &str {
    gfn.rsplit('/').next().unwrap_or(gfn)
}

/// Synthesise the command line for one invocation, slots in descriptor
/// order. Every slot must be bound; extra bound names are an error.
pub fn command_line(
    desc: &ExecutableDescriptor,
    binding: &Binding,
) -> Result<String, WrapperError> {
    let mut plan = plan_single(desc, binding, &Catalog::new())?;
    Ok(plan.command_lines.swap_remove(0))
}

/// Build the full [`JobPlan`] for one (ungrouped) invocation.
///
/// Stage-in covers the executable, every sandboxed file and every bound
/// input file; input sizes come from the `catalog`.
pub fn plan_single(
    desc: &ExecutableDescriptor,
    binding: &Binding,
    catalog: &Catalog,
) -> Result<JobPlan, WrapperError> {
    bound_job(&[(desc, binding)], catalog, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::crest_lines_example;

    fn binding() -> Binding {
        Binding::new()
            .bind_file("floating_image", "gfn://img/float.hdr")
            .bind_file("reference_image", "gfn://img/ref.hdr")
            .bind_value("scale", "2")
            .bind_output("crest_reference", "gfn://out/crest_ref.crest", 400_000)
            .bind_output("crest_floating", "gfn://out/crest_float.crest", 400_000)
    }

    #[test]
    fn command_line_matches_descriptor_order() {
        let cmd = command_line(&crest_lines_example(), &binding()).unwrap();
        assert_eq!(
            cmd,
            "CrestLines.pl -im1 float.hdr -im2 ref.hdr -s 2 -c1 crest_ref.crest -c2 crest_float.crest"
        );
    }

    #[test]
    fn unbound_input_is_an_error() {
        let mut b = binding();
        b.inputs.retain(|(n, _)| n != "scale");
        let err = command_line(&crest_lines_example(), &b).unwrap_err();
        assert!(err.to_string().contains("unbound input `scale`"));
    }

    #[test]
    fn unbound_output_is_an_error() {
        let mut b = binding();
        b.outputs.retain(|o| o.slot != "crest_floating");
        assert!(command_line(&crest_lines_example(), &b)
            .unwrap_err()
            .to_string()
            .contains("unbound output"));
    }

    #[test]
    fn binding_type_mismatches_are_errors() {
        let d = crest_lines_example();
        let b = binding().bind_value("floating_image", "oops");
        let mut b2 = Binding::new()
            .bind_file("floating_image", "gfn://a")
            .bind_file("reference_image", "gfn://b")
            .bind_file("scale", "gfn://c");
        b2.outputs = binding().outputs;
        // First bound value wins for a slot; rebinding same slot keeps original.
        assert!(
            command_line(&d, &b).is_ok(),
            "duplicate binding: first one is used"
        );
        assert!(command_line(&d, &b2)
            .unwrap_err()
            .to_string()
            .contains("is a parameter but was bound to a file"));
    }

    #[test]
    fn unknown_binding_names_are_rejected() {
        let b = binding().bind_value("mystery", "1");
        assert!(command_line(&crest_lines_example(), &b)
            .unwrap_err()
            .to_string()
            .contains("unknown input"));
    }

    #[test]
    fn plan_includes_executable_sandboxes_and_input_files() {
        let mut catalog = Catalog::new();
        catalog.register("gfn://img/float.hdr", 7_800_000);
        catalog.register("gfn://img/ref.hdr", 7_800_000);
        catalog.default_size = 50_000;
        let plan = plan_single(&crest_lines_example(), &binding(), &catalog).unwrap();
        assert_eq!(plan.command_lines.len(), 1);
        // 1 executable + 3 sandboxes + 2 input images.
        assert_eq!(plan.fetch.len(), 6);
        assert_eq!(plan.fetch_bytes(), 7_800_000 * 2 + 50_000 * 4);
        assert_eq!(plan.store.len(), 2);
        assert_eq!(plan.store_bytes(), 800_000);
    }

    #[test]
    fn duplicate_fetches_are_coalesced() {
        // Same file bound to both inputs: fetched once.
        let mut catalog = Catalog::new();
        catalog.register("gfn://img/same.hdr", 1000);
        let b = Binding::new()
            .bind_file("floating_image", "gfn://img/same.hdr")
            .bind_file("reference_image", "gfn://img/same.hdr")
            .bind_value("scale", "1")
            .bind_output("crest_reference", "gfn://o1", 1)
            .bind_output("crest_floating", "gfn://o2", 1);
        let plan = plan_single(&crest_lines_example(), &b, &catalog).unwrap();
        let image_fetches = plan
            .fetch
            .iter()
            .filter(|f| f.name.contains("same.hdr"))
            .count();
        assert_eq!(image_fetches, 1);
    }

    #[test]
    fn absorbing_a_plan_keeps_both_jobs_and_fetches_shared_files_once() {
        let catalog = Catalog::new();
        let other_pair = Binding::new()
            .bind_file("floating_image", "gfn://img/float2.hdr")
            .bind_file("reference_image", "gfn://img/ref.hdr")
            .bind_value("scale", "2")
            .bind_output("crest_reference", "gfn://out/crest_ref2.crest", 1)
            .bind_output("crest_floating", "gfn://out/crest_float2.crest", 1);
        let mut plan = plan_single(&crest_lines_example(), &binding(), &catalog).unwrap();
        let other = plan_single(&crest_lines_example(), &other_pair, &catalog).unwrap();
        let alone = plan.clone();
        plan.absorb(other.clone());
        assert_eq!(
            plan.command_lines,
            [alone.command_lines, other.command_lines].concat()
        );
        // Only the second floating image is new: the executable, the
        // sandboxes and the reference image are already staged in.
        assert_eq!(plan.fetch.len(), alone.fetch.len() + 1);
        assert_eq!(plan.store, [alone.store, other.store].concat());
    }

    #[test]
    fn local_name_takes_last_segment() {
        assert_eq!(local_name("gfn://a/b/c.img"), "c.img");
        assert_eq!(local_name("plain.txt"), "plain.txt");
    }

    #[test]
    fn positional_slots_omit_the_option() {
        use crate::descriptor::{
            AccessMethod, ExecutableDescriptor, FileItem, InputSlot, OutputSlot,
        };
        let d = ExecutableDescriptor {
            executable: FileItem {
                name: "cat".into(),
                access: AccessMethod::Local,
                value: "cat".into(),
            },
            inputs: vec![InputSlot {
                name: "in".into(),
                option: String::new(),
                access: Some(AccessMethod::Gfn),
                bytes: None,
            }],
            outputs: vec![OutputSlot {
                name: "out".into(),
                option: String::new(),
                access: AccessMethod::Gfn,
            }],
            sandboxes: vec![],
            nondeterministic: false,
        };
        let b = Binding::new()
            .bind_file("in", "gfn://x/in.txt")
            .bind_output("out", "gfn://x/out.txt", 1);
        assert_eq!(command_line(&d, &b).unwrap(), "cat in.txt out.txt");
    }
}
