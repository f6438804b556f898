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
//! configurations measure. [`command_line`], [`plan_single`] and
//! [`compose_group`] are thin adapters for values all known up front: a
//! [`Binding`] per invocation becomes a template stage, filled at once.
//!
//! ```
//! use moteur_wrapper::{crest_lines_example, plan_single, Binding, Catalog};
//!
//! let desc = crest_lines_example(); // the paper's Fig. 8 descriptor
//! let binding = Binding::new()
//!     .bind_file("floating_image", "gfn://img/float.hdr")
//!     .bind_file("reference_image", "gfn://img/ref.hdr")
//!     .bind_value("scale", "2")
//!     .bind_output("crest_reference", "gfn://out/cr.crest", 400_000)
//!     .bind_output("crest_floating", "gfn://out/cf.crest", 400_000);
//! let plan = plan_single(&desc, &binding, &Catalog::new()).unwrap();
//! assert!(plan.command_lines[0].starts_with("CrestLines.pl -im1 float.hdr -im2 ref.hdr -s 2"));
//! assert_eq!(plan.store.len(), 2, "both crest files are registered");
//! ```

pub mod catalog;
pub mod compose;
pub mod descriptor;
pub mod error;
pub mod invocation;
pub mod lint;
pub mod template;

pub use catalog::Catalog;
pub use compose::{compose_group, GroupMember};
pub use descriptor::{
    crest_lines_example, AccessMethod, ExecutableDescriptor, FileItem, InputSlot, OutputSlot,
};
pub use error::WrapperError;
pub use invocation::{
    command_line, plan_single, Binding, BoundOutput, BoundValue, JobPlan, TransferFile,
};
pub use lint::{lint_descriptor, DescriptorFinding};
pub use template::{Feed, FillError, FilledJob, JobTemplate, SlotValue, StageSpec};
