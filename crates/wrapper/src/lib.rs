//! # moteur-wrapper
//!
//! The paper's *generic code wrapper* (§3.6): a service that can run any
//! legacy executable from a declarative XML descriptor, and — the key
//! enabler for the job-grouping optimization — compose several such
//! invocations into one *virtual grouped service* submitted as a single
//! grid job.
//!
//! The descriptor (paper Fig. 8) declares:
//!
//! 1. the executable's name and access method (URL / GFN / Local),
//! 2. sandboxed side files (scripts, libraries) fetched alongside it,
//! 3. file inputs with their command-line options — *without* values,
//!    which arrive at invocation time (service-style dynamic data),
//! 4. value parameters (inputs without an access method),
//! 5. outputs with registration methods.
//!
//! One builder turns a descriptor into the [`JobPlan`] (files to stage
//! in, command lines to run, outputs to register) that the grid backend
//! executes: a [`JobTemplate`], the static half of a plan, which the
//! enactor compiles once per processor and fills per firing. Grouped
//! templates keep intermediate files on the worker — one submission
//! overhead and fewer transfers, which is precisely what the JG
//! configurations measure. [`compose_group`] is a thin adapter for
//! values all known up front: a [`Binding`] per invocation becomes a
//! template stage, filled at once, and one member is an ungrouped job.
//!
//! ```
//! use moteur_wrapper::{compose_group, crest_lines_example, Binding, Catalog, GroupMember};
//!
//! let binding = Binding::new()
//!     .bind_file("floating_image", "gfn://img/float.hdr")
//!     .bind_file("reference_image", "gfn://img/ref.hdr")
//!     .bind_value("scale", "2")
//!     .bind_output("crest_reference", "gfn://out/cr.crest", 400_000)
//!     .bind_output("crest_floating", "gfn://out/cf.crest", 400_000);
//! // The paper's Fig. 8 descriptor, as a job of one member.
//! let member = GroupMember { descriptor: crest_lines_example(), binding };
//! let plan = compose_group(&[member], &Catalog::new(), &[]).unwrap();
//! assert!(plan.command_lines[0].starts_with("CrestLines.pl -im1 float.hdr -im2 ref.hdr -s 2"));
//! assert_eq!(plan.store.len(), 2, "both crest files are registered");
//! ```

mod compose;
mod descriptor;
mod error;
mod lint;
mod template;

pub use compose::{compose_group, Binding, BoundValue, Catalog, GroupMember};
pub use descriptor::{
    crest_lines_example, AccessMethod, ExecutableDescriptor, FileItem, InputSlot, OutputSlot,
};
pub use error::WrapperError;
pub use lint::{lint_descriptor, DescriptorFinding};
pub use template::{
    BoundOutput, Feed, FillError, FilledJob, JobPlan, JobTemplate, SlotValue, StageSpec,
    TransferFile,
};
