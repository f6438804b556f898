//! Virtual grouped services (paper §3.6, Fig. 7 bottom).
//!
//! Grouping merges the jobs of sequential processors into a single grid
//! job: the wrapper concatenates their command lines and runs them in
//! order on one worker. Files produced by an earlier member and
//! consumed by a later member stay on the worker's scratch space — they
//! are *not* transferred through a storage element and they cost no
//! extra submission/queuing overhead. That is the whole point of the
//! optimization: one grid overhead instead of N, and fewer transfers.

use crate::catalog::Catalog;
use crate::descriptor::ExecutableDescriptor;
use crate::error::WrapperError;
use crate::invocation::{Binding, BoundValue, JobPlan};
use crate::template::{compile_with, Feed, SlotValue, StageSpec};

/// One member of a grouped job: a descriptor plus its invocation
/// binding.
#[derive(Debug, Clone)]
pub struct GroupMember {
    pub descriptor: ExecutableDescriptor,
    pub binding: Binding,
}

/// Compose a sequence of invocations into a single [`JobPlan`].
///
/// Member order must follow the data dependencies (earlier members
/// produce, later members consume). Intermediate files — outputs of one
/// member consumed by a later member — are elided from both `fetch` and
/// `store`. An intermediate that is *also* listed in
/// `external_outputs` (needed downstream of the group) is still stored.
pub fn compose_group(
    members: &[GroupMember],
    catalog: &Catalog,
    external_outputs: &[String],
) -> Result<JobPlan, WrapperError> {
    let members: Vec<_> = members
        .iter()
        .map(|m| (&m.descriptor, &m.binding))
        .collect();
    bound_job(&members, catalog, external_outputs)
}

/// The plan of one job running `members` in order, every value fixed by
/// its binding. Each binding becomes a stage of a
/// [`JobTemplate`](crate::JobTemplate): a literal is a parameter, a file
/// an earlier member writes is that member's output, and any other file
/// is a job input at its `catalog` size. The template is filled at once.
/// Each of `external` that a member writes is exposed, so it is
/// registered even when a later member reads it.
pub(crate) fn bound_job(
    members: &[(&ExecutableDescriptor, &Binding)],
    catalog: &Catalog,
    external: &[String],
) -> Result<JobPlan, WrapperError> {
    let mut files = Vec::new();
    let mut stages = Vec::with_capacity(members.len());
    for (k, &(descriptor, binding)) in members.iter().enumerate() {
        let mut feeds = Vec::with_capacity(binding.inputs.len());
        for (slot, value) in &binding.inputs {
            let feed = match value {
                BoundValue::Value(value) => Feed::Param(value),
                BoundValue::File { gfn } => match writer(&members[..k], gfn) {
                    Some((stage, slot)) => Feed::Stage { stage, slot },
                    None => {
                        files.push(BoundFile(gfn, catalog.size_of(gfn)));
                        Feed::Port(files.len() - 1)
                    }
                },
            };
            feeds.push((slot.as_str(), feed));
        }
        stages.push(StageSpec {
            group_member: None,
            descriptor,
            feeds,
            output_bytes: Vec::new(),
        });
    }
    let exposed: Vec<_> = external
        .iter()
        .filter_map(|gfn| writer(members, gfn))
        .map(|(stage, slot)| (slot, stage, slot))
        .collect();
    let fixed: Vec<_> = members.iter().map(|(_, b)| b.outputs.as_slice()).collect();
    let template = compile_with("", "", &stages, &exposed, catalog, &fixed);
    Ok(template.plan(&files, 0, |_| {})?)
}

/// The first of `members` to write `gfn`, and the output slot it is
/// written from.
fn writer<'a>(
    members: &[(&ExecutableDescriptor, &'a Binding)],
    gfn: &str,
) -> Option<(usize, &'a str)> {
    members.iter().enumerate().find_map(|(k, (_, binding))| {
        let output = binding.outputs.iter().find(|o| o.gfn == gfn)?;
        Some((k, output.slot.as_str()))
    })
}

/// A file a binding names, as a job input: its GFN and catalog size.
struct BoundFile<'a>(&'a str, u64);

impl SlotValue for BoundFile<'_> {
    fn file(&self) -> Option<(&str, u64)> {
        Some((self.0, self.1))
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
    use crate::descriptor::{AccessMethod, FileItem, InputSlot, OutputSlot};
    use crate::invocation::TransferFile;

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
        c.default_size = 10_000;
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
                crate::invocation::plan_single(&m.descriptor, &m.binding, &cat)
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
    fn single_member_group_equals_plan_single() {
        let members = &two_member_chain()[..1];
        let cat = catalog();
        let grouped = compose_group(members, &cat, &[]).unwrap();
        let single =
            crate::invocation::plan_single(&members[0].descriptor, &members[0].binding, &cat)
                .unwrap();
        assert_eq!(grouped, single);
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
        for external in [vec![], vec!["gfn://res/G".to_owned()]] {
            let plan = compose_group(&members, &catalog(), &external).unwrap();
            assert_eq!(
                plan.store,
                [TransferFile {
                    name: "gfn://res/G".into(),
                    bytes: 10
                }],
                "external {external:?}"
            );
        }
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
}
