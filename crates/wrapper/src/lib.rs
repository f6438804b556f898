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
//! From a descriptor plus a per-invocation [`Binding`], this crate
//! synthesises the exact command line and the [`JobPlan`] (files to
//! stage in, command lines to run, outputs to register) that the grid
//! backend executes. [`compose_group`] merges several plans, keeping
//! intermediate files on the worker — one submission overhead and fewer
//! transfers, which is precisely what the JG configurations measure.
//! Both render through a [`JobTemplate`]: the static half of a plan,
//! which the enactor builds once per processor and fills per firing.
//!
//! ```
//! use moteur_wrapper::{crest_lines_example, command_line, Binding};
//!
//! let desc = crest_lines_example(); // the paper's Fig. 8 descriptor
//! let binding = Binding::new()
//!     .bind_file("floating_image", "gfn://img/float.hdr")
//!     .bind_file("reference_image", "gfn://img/ref.hdr")
//!     .bind_value("scale", "2")
//!     .bind_output("crest_reference", "gfn://out/cr.crest", 400_000)
//!     .bind_output("crest_floating", "gfn://out/cf.crest", 400_000);
//! let cmd = command_line(&desc, &binding).unwrap();
//! assert!(cmd.starts_with("CrestLines.pl -im1 float.hdr -im2 ref.hdr -s 2"));
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
