//! The binding API: every value of a job named up front (paper §3.6).
//!
//! The descriptor is static, the data values arrive with each
//! invocation: a [`Binding`] names them, a [`Catalog`] sizes the files
//! they name, and [`compose_group`] builds the job that runs a sequence
//! of bound invocations, a *virtual grouped service* (Fig. 7 bottom)
//! when there are several. Their command lines run in order on one
//! worker, and a file an earlier member writes and a later member reads
//! stays on the worker's scratch space: it is not transferred through a
//! storage element and costs no extra submission. That is the whole
//! point of the optimization: one grid overhead instead of N, and fewer
//! transfers.
//!
//! [`compose_group`] has no builder of its own: each binding becomes a
//! stage of a [`JobTemplate`](crate::JobTemplate), compiled and filled at
//! once.

use crate::descriptor::ExecutableDescriptor;
use crate::error::WrapperError;
use crate::template::{
    compile_with, BoundOutput, Feed, JobPlan, SlotValue, StageSpec, UNKNOWN_FILE_BYTES,
};
use std::collections::BTreeMap;

/// A replica-catalog stand-in: the size of each Grid File Name (or URL),
/// so the transfer model knows what a stage-in costs. A file it does not
/// list is 64 KiB (a small script fetched from a web server, say).
///
/// The real EGEE data-management stack resolves a GFN to physical
/// replicas on storage elements; the simulation needs only the size.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    sizes: BTreeMap<String, u64>,
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or update) a file's size.
    pub fn register(&mut self, name: impl Into<String>, bytes: u64) {
        self.sizes.insert(name.into(), bytes);
    }

    fn size_of(&self, name: &str) -> u64 {
        self.sizes.get(name).copied().unwrap_or(UNKNOWN_FILE_BYTES)
    }
}

/// A value bound to an input slot at invocation time.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundValue {
    /// A file identified by GFN/URL, staged in before execution.
    File { gfn: String },
    /// A literal command-line parameter.
    Value(String),
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

/// One member of a job: a descriptor plus its invocation binding.
#[derive(Debug, Clone)]
pub struct GroupMember {
    pub descriptor: ExecutableDescriptor,
    pub binding: Binding,
}

/// The plan of one job running `members` in order, every value fixed by
/// its binding; one member is an ungrouped job.
///
/// Each member's command line shows its slots in descriptor order: every
/// slot must be bound, the first binding of a slot is the one shown, and
/// a binding must name a slot. Member order must follow the data
/// dependencies (earlier members produce, later members consume). A file
/// a later member reads from an earlier one is neither fetched nor
/// stored, unless it is one of `external_outputs` (needed downstream of
/// the group): then it is still stored. A GFN bound to several outputs
/// is registered once, by its first writer. Every fetched file (the
/// executables, the sandboxes and the bound inputs, each once) is sized
/// by `catalog`.
pub fn compose_group(
    members: &[GroupMember],
    catalog: &Catalog,
    external_outputs: &[String],
) -> Result<JobPlan, WrapperError> {
    let mut files = Vec::new();
    let mut stages = Vec::with_capacity(members.len());
    for (k, member) in members.iter().enumerate() {
        let mut feeds = Vec::with_capacity(member.binding.inputs.len());
        for (slot, value) in &member.binding.inputs {
            let feed = match value {
                BoundValue::Value(value) => Feed::Param(value),
                BoundValue::File { gfn } => match writer(&members[..k], gfn) {
                    Some((stage, slot)) => Feed::Stage { stage, slot },
                    None => {
                        files.push(BoundFile(gfn));
                        Feed::Port(files.len() - 1)
                    }
                },
            };
            feeds.push((slot.as_str(), feed));
        }
        stages.push(StageSpec {
            group_member: None,
            descriptor: &member.descriptor,
            feeds,
            output_bytes: Vec::new(),
        });
    }
    let exposed: Vec<_> = external_outputs
        .iter()
        .filter_map(|gfn| writer(members, gfn))
        .map(|(stage, slot)| (slot, stage, slot))
        .collect();
    let fixed: Vec<_> = members
        .iter()
        .map(|m| m.binding.outputs.as_slice())
        .collect();
    let template = compile_with("", "", &stages, &exposed, &fixed);
    template.check(&files, |_| {})?;
    let mut plan = template.render(std::iter::once((files.as_slice(), 0)));
    for file in &mut plan.fetch {
        file.bytes = catalog.size_of(&file.name);
    }
    Ok(plan)
}

/// The first of `members` to write `gfn`, and the output slot it is
/// written from.
fn writer<'a>(members: &'a [GroupMember], gfn: &str) -> Option<(usize, &'a str)> {
    members.iter().enumerate().find_map(|(k, member)| {
        let output = member.binding.outputs.iter().find(|o| o.gfn == gfn)?;
        Some((k, output.slot.as_str()))
    })
}

/// A file a binding names, as a job input. It is sized from the catalog
/// once the plan is filled.
struct BoundFile<'a>(&'a str);

impl SlotValue for BoundFile<'_> {
    fn file(&self) -> Option<(&str, u64)> {
        Some((self.0, 0))
    }
    fn write_param(&self, out: &mut String) {
        out.push_str(self.0);
    }
    fn describe(&self) -> String {
        self.0.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::{crest_lines_example, AccessMethod, FileItem, InputSlot, OutputSlot};
    use crate::template::{JobTemplate, TransferFile};

    /// The plan of one ungrouped job.
    fn single(
        descriptor: &ExecutableDescriptor,
        binding: &Binding,
        catalog: &Catalog,
    ) -> Result<JobPlan, WrapperError> {
        let member = GroupMember {
            descriptor: descriptor.clone(),
            binding: binding.clone(),
        };
        compose_group(&[member], catalog, &[])
    }

    /// The command line of one ungrouped job.
    fn command_line(
        desc: &ExecutableDescriptor,
        binding: &Binding,
    ) -> Result<String, WrapperError> {
        let mut plan = single(desc, binding, &Catalog::new())?;
        Ok(plan.command_lines.swap_remove(0))
    }

    /// crestLines over two images with a fixed scale, as the doc example.
    fn crest_binding() -> Binding {
        Binding::new()
            .bind_file("floating_image", "gfn://img/float.hdr")
            .bind_file("reference_image", "gfn://img/ref.hdr")
            .bind_value("scale", "2")
            .bind_output("crest_reference", "gfn://out/crest_ref.crest", 400_000)
            .bind_output("crest_floating", "gfn://out/crest_float.crest", 400_000)
    }

    /// `tool <in> -o <out>`-style single-input single-output descriptor.
    fn simple_desc(name: &str) -> ExecutableDescriptor {
        ExecutableDescriptor {
            executable: FileItem {
                name: name.into(),
                access: AccessMethod::Url {
                    server: "http://host".into(),
                },
                value: name.into(),
            },
            inputs: vec![InputSlot {
                name: "in".into(),
                option: "-i".into(),
                access: Some(AccessMethod::Gfn),
                bytes: None,
            }],
            outputs: vec![OutputSlot {
                name: "out".into(),
                option: "-o".into(),
                access: AccessMethod::Gfn,
            }],
            sandboxes: vec![],
            nondeterministic: false,
        }
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register("gfn://data/input.img", 7_800_000);
        for exe in ["crestLines", "crestMatch", "register"] {
            c.register(format!("http://host/{exe}"), 10_000);
        }
        c
    }

    fn two_member_chain() -> Vec<GroupMember> {
        vec![
            GroupMember {
                descriptor: simple_desc("crestLines"),
                binding: Binding::new()
                    .bind_file("in", "gfn://data/input.img")
                    .bind_output("out", "gfn://tmp/crests.dat", 500_000),
            },
            GroupMember {
                descriptor: simple_desc("crestMatch"),
                binding: Binding::new()
                    .bind_file("in", "gfn://tmp/crests.dat")
                    .bind_output("out", "gfn://res/transfo.trf", 2_000),
            },
        ]
    }

    #[test]
    fn group_concatenates_command_lines_in_order() {
        let plan = compose_group(&two_member_chain(), &catalog(), &[]).unwrap();
        assert_eq!(plan.command_lines.len(), 2);
        assert!(plan.command_lines[0].starts_with("crestLines"));
        assert!(plan.command_lines[1].starts_with("crestMatch"));
    }

    #[test]
    fn intermediate_file_is_neither_fetched_nor_stored() {
        let plan = compose_group(&two_member_chain(), &catalog(), &[]).unwrap();
        assert!(
            !plan.fetch.iter().any(|f| f.name.contains("crests.dat")),
            "intermediate must not be staged in: {:?}",
            plan.fetch
        );
        assert!(
            !plan.store.iter().any(|f| f.name.contains("crests.dat")),
            "intermediate must not be registered: {:?}",
            plan.store
        );
        // External input fetched, final output stored.
        assert!(plan.fetch.iter().any(|f| f.name == "gfn://data/input.img"));
        assert_eq!(plan.store.len(), 1);
        assert_eq!(plan.store[0].name, "gfn://res/transfo.trf");
    }

    #[test]
    fn grouping_transfers_less_than_separate_jobs() {
        let members = two_member_chain();
        let cat = catalog();
        let grouped = compose_group(&members, &cat, &[]).unwrap();
        let separate: u64 = members
            .iter()
            .map(|m| {
                single(&m.descriptor, &m.binding, &cat)
                    .unwrap()
                    .fetch_bytes()
            })
            .sum();
        assert!(
            grouped.fetch_bytes() < separate,
            "grouped {} vs separate {}",
            grouped.fetch_bytes(),
            separate
        );
    }

    #[test]
    fn intermediate_needed_downstream_is_still_stored() {
        let plan = compose_group(
            &two_member_chain(),
            &catalog(),
            &["gfn://tmp/crests.dat".into()],
        )
        .unwrap();
        assert!(plan.store.iter().any(|f| f.name == "gfn://tmp/crests.dat"));
    }

    #[test]
    fn empty_group_is_an_error() {
        assert!(compose_group(&[], &catalog(), &[]).is_err());
    }

    #[test]
    fn shared_sandboxes_are_fetched_once() {
        let mut a = simple_desc("stepA");
        let mut b = simple_desc("stepB");
        let shared = FileItem {
            name: "lib".into(),
            access: AccessMethod::Url {
                server: "http://host".into(),
            },
            value: "libshared.so".into(),
        };
        a.sandboxes.push(shared.clone());
        b.sandboxes.push(shared);
        let members = vec![
            GroupMember {
                descriptor: a,
                binding: Binding::new()
                    .bind_file("in", "gfn://data/input.img")
                    .bind_output("out", "gfn://tmp/x", 1),
            },
            GroupMember {
                descriptor: b,
                binding: Binding::new().bind_file("in", "gfn://tmp/x").bind_output(
                    "out",
                    "gfn://res/y",
                    1,
                ),
            },
        ];
        let plan = compose_group(&members, &catalog(), &[]).unwrap();
        let lib_fetches = plan
            .fetch
            .iter()
            .filter(|f| f.name.contains("libshared"))
            .count();
        assert_eq!(lib_fetches, 1);
    }

    #[test]
    fn an_output_only_an_earlier_member_reads_is_stored() {
        // `a` reads X and writes Y; `b` reads Y and writes X over it.
        let members = vec![
            GroupMember {
                descriptor: simple_desc("a"),
                binding: Binding::new()
                    .bind_file("in", "gfn://X")
                    .bind_output("out", "gfn://Y", 10),
            },
            GroupMember {
                descriptor: simple_desc("b"),
                binding: Binding::new()
                    .bind_file("in", "gfn://Y")
                    .bind_output("out", "gfn://X", 20),
            },
        ];
        let plan = compose_group(&members, &catalog(), &[]).unwrap();
        let stored: Vec<_> = plan.store.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(stored, ["gfn://X"], "b's product is registered; Y stays");
        assert!(plan.fetch.iter().any(|f| f.name == "gfn://X"));
        assert!(!plan.fetch.iter().any(|f| f.name == "gfn://Y"));
    }

    #[test]
    fn a_gfn_two_members_write_is_registered_once() {
        let members: Vec<_> = ["a", "b"]
            .into_iter()
            .map(|name| GroupMember {
                descriptor: simple_desc(name),
                binding: Binding::new()
                    .bind_file("in", "gfn://data/input.img")
                    .bind_output("out", "gfn://res/G", 10),
            })
            .collect();
        let g = [TransferFile {
            name: "gfn://res/G".into(),
            bytes: 10,
        }];
        for external in [vec![], vec!["gfn://res/G".to_owned()]] {
            let plan = compose_group(&members, &catalog(), &external).unwrap();
            assert_eq!(plan.store, g, "external {external:?}");
        }

        // One binding writing G from two slots registers it at the first
        // slot's size.
        let twice = Binding::new()
            .bind_file("floating_image", "gfn://img/float.hdr")
            .bind_file("reference_image", "gfn://img/ref.hdr")
            .bind_value("scale", "2")
            .bind_output("crest_reference", "gfn://res/G", 10)
            .bind_output("crest_floating", "gfn://res/G", 20);
        let plan = single(&crest_lines_example(), &twice, &catalog()).unwrap();
        assert_eq!(plan.store, g);
    }

    #[test]
    fn three_deep_chain_elides_both_intermediates() {
        let mut members = two_member_chain();
        members.push(GroupMember {
            descriptor: simple_desc("register"),
            binding: Binding::new()
                .bind_file("in", "gfn://res/transfo.trf")
                .bind_output("out", "gfn://res/final.trf", 100),
        });
        let plan = compose_group(&members, &catalog(), &[]).unwrap();
        assert_eq!(plan.store.len(), 1);
        assert_eq!(plan.store[0].name, "gfn://res/final.trf");
        assert_eq!(plan.command_lines.len(), 3);
        // Only the true external input is fetched (plus executables).
        let data_fetches: Vec<_> = plan
            .fetch
            .iter()
            .filter(|f| f.name.starts_with("gfn://"))
            .collect();
        assert_eq!(data_fetches.len(), 1);
    }

    #[test]
    fn command_line_matches_descriptor_order() {
        let cmd = command_line(&crest_lines_example(), &crest_binding()).unwrap();
        assert_eq!(
            cmd,
            "CrestLines.pl -im1 float.hdr -im2 ref.hdr -s 2 -c1 crest_ref.crest -c2 crest_float.crest"
        );
    }

    #[test]
    fn unbound_input_is_an_error() {
        let mut b = crest_binding();
        b.inputs.retain(|(n, _)| n != "scale");
        let err = command_line(&crest_lines_example(), &b).unwrap_err();
        assert!(err.to_string().contains("unbound input `scale`"));
    }

    #[test]
    fn unbound_output_is_an_error() {
        let mut b = crest_binding();
        b.outputs.retain(|o| o.slot != "crest_floating");
        assert!(command_line(&crest_lines_example(), &b)
            .unwrap_err()
            .to_string()
            .contains("unbound output"));
    }

    #[test]
    fn binding_type_mismatches_are_errors() {
        let d = crest_lines_example();
        let b = crest_binding().bind_value("floating_image", "oops");
        let mut b2 = Binding::new()
            .bind_file("floating_image", "gfn://a")
            .bind_file("reference_image", "gfn://b")
            .bind_file("scale", "gfn://c");
        b2.outputs = crest_binding().outputs;
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
        let b = crest_binding().bind_value("mystery", "1");
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
        for exe in ["CrestLines.pl", "Convert8bits.pl", "copy", "cmatch"] {
            catalog.register(format!("http://colors.unice.fr/{exe}"), 50_000);
        }
        let plan = single(&crest_lines_example(), &crest_binding(), &catalog).unwrap();
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
        let plan = single(&crest_lines_example(), &b, &catalog).unwrap();
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
        let mut plan = single(&crest_lines_example(), &crest_binding(), &catalog).unwrap();
        let other = single(&crest_lines_example(), &other_pair, &catalog).unwrap();
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
    fn positional_slots_omit_the_option() {
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

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new();
        c.register("gfn://images/patient1.hdr", 7_800_000);
        assert_eq!(c.size_of("gfn://images/patient1.hdr"), 7_800_000);
    }

    #[test]
    fn unknown_files_use_default_size() {
        assert_eq!(Catalog::new().size_of("nope"), 64 * 1024);
    }

    #[test]
    fn reregistering_updates_size() {
        let mut c = Catalog::new();
        c.register("f", 10);
        c.register("f", 20);
        assert_eq!(c.size_of("f"), 20);
    }

    /// A 7.8 MB image as the enactor binds it to a job input.
    struct Image(&'static str);

    impl SlotValue for Image {
        fn file(&self) -> Option<(&str, u64)> {
            Some((self.0, 7_800_000))
        }
        fn write_param(&self, out: &mut String) {
            out.push_str(self.0);
        }
        fn describe(&self) -> String {
            self.0.to_owned()
        }
    }

    const IMAGES: [Image; 2] = [Image("gfn://img/f.hdr"), Image("gfn://img/r.hdr")];

    /// The catalog the enactor's images imply.
    fn images_catalog() -> Catalog {
        let mut catalog = Catalog::new();
        catalog.register("gfn://img/f.hdr", 7_800_000);
        catalog.register("gfn://img/r.hdr", 7_800_000);
        catalog
    }

    /// crestLines fed the job's two images and a fixed scale.
    fn crest_lines_stage(desc: &ExecutableDescriptor) -> StageSpec<'_> {
        StageSpec {
            group_member: None,
            descriptor: desc,
            feeds: vec![
                ("floating_image", Feed::Port(0)),
                ("reference_image", Feed::Port(1)),
                ("scale", Feed::Param("2")),
            ],
            output_bytes: vec![400_000, 400_000],
        }
    }

    #[test]
    fn a_fill_renders_the_plan_the_binding_would() {
        let desc = crest_lines_example();
        let exposed: Vec<_> = (desc.outputs.iter())
            .map(|o| (o.name.as_str(), 0, o.name.as_str()))
            .collect();
        let template = JobTemplate::compile("wf", "crest", &[crest_lines_stage(&desc)], &exposed);
        let mut staged = Vec::new();
        let job = template.fill(&IMAGES, 7, |port| staged.push(port)).unwrap();
        assert_eq!(staged, [0, 1]);

        let binding = Binding::new()
            .bind_file("floating_image", "gfn://img/f.hdr")
            .bind_file("reference_image", "gfn://img/r.hdr")
            .bind_value("scale", "2")
            .bind_output(
                "crest_reference",
                "gfn://wf/crest/7/crest_reference",
                400_000,
            )
            .bind_output("crest_floating", "gfn://wf/crest/7/crest_floating", 400_000);
        assert_eq!(
            job.plan,
            single(&desc, &binding, &images_catalog()).unwrap()
        );
        assert_eq!(job.outputs, binding.outputs);
        assert_eq!(job.outputs, template.outputs(7));
    }

    #[test]
    fn a_fill_renders_the_plan_the_group_binding_would() {
        let lines = crest_lines_example();
        let matcher = ExecutableDescriptor::parse(
            r#"<description><executable name="CrestMatch">
                 <access type="URL"><path value="http://colors.unice.fr"/></access>
                 <value value="cmatch"/>
                 <input name="c1" option="-c1"><access type="GFN"/></input>
                 <input name="c2" option="-c2"><access type="GFN"/></input>
                 <output name="transfo" option="-o"><access type="GFN"/></output>
               </executable></description>"#,
        )
        .unwrap();
        let mut first = crest_lines_stage(&lines);
        first.group_member = Some("crestLines");
        let crest = |slot| Feed::Stage { stage: 0, slot };
        let second = StageSpec {
            group_member: Some("crestMatch"),
            descriptor: &matcher,
            feeds: vec![
                ("c1", crest("crest_reference")),
                ("c2", crest("crest_floating")),
            ],
            output_bytes: vec![2048],
        };
        let template =
            JobTemplate::compile("wf", "g", &[first, second], &[("transfo", 1, "transfo")]);
        let job = template.fill(&IMAGES, 3, |_| {});

        let (crest_ref, crest_float) = (
            "gfn://wf/g~crestLines/3/crest_reference",
            "gfn://wf/g~crestLines/3/crest_floating",
        );
        let transfo = "gfn://wf/g~crestMatch/3/transfo";
        let members = [
            GroupMember {
                descriptor: lines.clone(),
                binding: Binding::new()
                    .bind_file("floating_image", "gfn://img/f.hdr")
                    .bind_file("reference_image", "gfn://img/r.hdr")
                    .bind_value("scale", "2")
                    .bind_output("crest_reference", crest_ref, 400_000)
                    .bind_output("crest_floating", crest_float, 400_000),
            },
            GroupMember {
                descriptor: matcher.clone(),
                binding: Binding::new()
                    .bind_file("c1", crest_ref)
                    .bind_file("c2", crest_float)
                    .bind_output("transfo", transfo, 2048),
            },
        ];
        let grouped = compose_group(&members, &images_catalog(), &[transfo.to_owned()]);
        assert_eq!(job.unwrap().plan, grouped.unwrap());
    }
}
