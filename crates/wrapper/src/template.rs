//! Job-plan templates: the static half of a job's plan, built once, and
//! the fill that completes it for one invocation.
//!
//! Paper §3.6 splits the generic wrapper into a static part, the
//! descriptor, and a part that arrives with each invocation: "dynamic
//! composition of the command line from the list of parameters at the
//! service invocation time". A [`JobTemplate`] holds everything a job's
//! plan does not owe to its input values: the executables and sandboxes
//! to stage in (resolved and de-duplicated), where each slot is fed
//! from, the command line's option text, and each output's size and
//! whether it is registered or stays on the worker. [`JobTemplate::fill`]
//! then only writes the values into their holes and names the outputs.
//!
//! The enactor compiles one template per processor
//! ([`JobTemplate::compile`]) and fills it per firing.
//! [`compose_group`](crate::compose_group) is a thin adapter over the
//! same builder: each binding becomes a stage (a literal is a
//! [`Feed::Param`], a file an earlier member writes a [`Feed::Stage`],
//! any other file a [`Feed::Port`]) that keeps the output GFNs the
//! binding fixed, and the template is compiled and filled once. So every
//! plan is rendered by one piece of code. A template stages executables
//! and sandboxes in at a fixed 64 KiB; the adapter sizes the filled
//! plan's files afterwards.

use crate::descriptor::{AccessMethod, ExecutableDescriptor, InputSlot};
use crate::error::WrapperError;
use std::fmt::Write as _;

/// The size of a file nothing declares: the executables and sandboxes a
/// template stages in, and a file a catalog does not list.
pub(crate) const UNKNOWN_FILE_BYTES: u64 = 64 * 1024;

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

/// An output produced by the invocation: where to register it and the
/// expected size (for the transfer model).
#[derive(Debug, Clone, PartialEq)]
pub struct BoundOutput {
    pub slot: String,
    pub gfn: String,
    pub bytes: u64,
}

/// Local (worker-side) file name for a GFN/URL: its last path segment.
pub(crate) fn local_name(gfn: &str) -> &str {
    gfn.rsplit('/').next().unwrap_or(gfn)
}

/// What a template needs of the value one job input carries.
pub trait SlotValue {
    /// The GFN and size of a file value; `None` for any other value.
    fn file(&self) -> Option<(&str, u64)>;
    /// Append the value as a literal command-line parameter.
    fn write_param(&self, out: &mut String);
    /// The value as an error message quotes it.
    fn describe(&self) -> String;
}

/// Where one slot of a stage is fed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed<'a> {
    /// The job's input `i` (the processor's input port `i`).
    Port(usize),
    /// A parameter fixed when the service was bound.
    Param(&'a str),
    /// Output `slot` of the earlier stage `stage`: a file that stays on
    /// the worker.
    Stage { stage: usize, slot: &'a str },
}

/// One stage of a job as the enactor binds it.
#[derive(Debug, Clone)]
pub struct StageSpec<'a> {
    /// The stage's name inside a grouped job; `None` for a processor
    /// bound to one descriptor. It names the outputs' GFNs.
    pub group_member: Option<&'a str>,
    pub descriptor: &'a ExecutableDescriptor,
    /// Every slot binding, in binding order: the first binding of a slot
    /// is the one its command line shows.
    pub feeds: Vec<(&'a str, Feed<'a>)>,
    /// Size of each of the descriptor's outputs, in descriptor order.
    pub output_bytes: Vec<u64>,
}

/// Why a job could not be filled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FillError {
    /// A slot could not take what feeds it; the message names the
    /// processor.
    Bind(String),
    /// The bound job has no valid command line.
    Plan(WrapperError),
}

impl From<FillError> for WrapperError {
    fn from(e: FillError) -> Self {
        match e {
            FillError::Bind(message) => WrapperError::new(message),
            FillError::Plan(e) => e,
        }
    }
}

/// A filled job: its plan and the files it delivers.
#[derive(Debug, Clone, PartialEq)]
pub struct FilledJob {
    pub plan: JobPlan,
    /// One per output port, in port order; `slot` is the port's name.
    pub outputs: Vec<BoundOutput>,
}

/// The static half of a job's plan. See the module documentation.
///
/// ```
/// use moteur_wrapper::{crest_lines_example, Feed, JobTemplate, SlotValue, StageSpec};
///
/// /// A job input: the GFN of a 7.8 MB image.
/// struct Image(&'static str);
/// impl SlotValue for Image {
///     fn file(&self) -> Option<(&str, u64)> { Some((self.0, 7_800_000)) }
///     fn write_param(&self, out: &mut String) { out.push_str(self.0) }
///     fn describe(&self) -> String { self.0.into() }
/// }
///
/// let desc = crest_lines_example(); // the paper's Fig. 8 descriptor
/// let stage = StageSpec {
///     group_member: None,
///     descriptor: &desc,
///     feeds: vec![
///         ("floating_image", Feed::Port(0)),
///         ("reference_image", Feed::Port(1)),
///         ("scale", Feed::Param("2")),
///     ],
///     output_bytes: vec![400_000, 400_000],
/// };
/// // Once per processor, delivering one output on port `crest`…
/// let template = JobTemplate::compile("wf", "p", &[stage], &[("crest", 0, "crest_reference")]);
/// // …then once per invocation.
/// let images = [Image("gfn://img/f.hdr"), Image("gfn://img/r.hdr")];
/// let job = template.fill(&images, 7, |_| {}).unwrap();
/// assert!(job.plan.command_lines[0].starts_with("CrestLines.pl -im1 f.hdr -im2 r.hdr -s 2"));
/// assert_eq!(job.outputs[0].gfn, "gfn://wf/p/7/crest_reference");
/// ```
#[derive(Debug, Clone)]
pub struct JobTemplate {
    processor: String,
    stages: Vec<Stage>,
    exposed: Vec<Exposed>,
    /// The first fault found once every slot is bound: `fill` returns it
    /// after the per-slot checks pass.
    fault: Option<FillError>,
    /// Upper bounds of the plan's fetch and store lists.
    fetch_len: usize,
    store_len: usize,
}

#[derive(Debug, Clone)]
struct Stage {
    /// `gfn://{workflow}/{processor}/` or `gfn://{workflow}/{processor}~{stage}/`.
    prefix: String,
    /// The executable and sandboxes, resolved; none an earlier stage
    /// already stages in.
    fetch: Vec<TransferFile>,
    /// The bindings a fill acts on, in binding order.
    binds: Vec<Bind>,
    /// The command line: text, then the value of a job input.
    line: Vec<Piece>,
    line_len: usize,
    outputs: Vec<Output>,
}

#[derive(Debug, Clone)]
enum Bind {
    /// Job input `port` bound into `slot`; a file slot stages it in.
    Port {
        port: usize,
        slot: String,
        file: bool,
    },
    /// A structural fault: filling stops here.
    Fault(FillError),
}

#[derive(Debug, Clone)]
struct Piece {
    text: String,
    /// The job input whose value follows, and whether its slot is a file.
    hole: Option<(usize, bool)>,
}

#[derive(Debug, Clone)]
struct Output {
    /// The GFN a binding fixed, or else the slot that names the file
    /// `{prefix}{invocation}/{slot}`.
    name: String,
    fixed: bool,
    bytes: u64,
    /// Registered after the job, rather than left on the worker.
    stored: bool,
}

#[derive(Debug, Clone)]
struct Exposed {
    port: String,
    stage: usize,
    output: usize,
    /// Its position in the plan's store list, when registered.
    stored_at: Option<usize>,
}

/// A slot binding while a template is built.
enum Src<'a> {
    /// Job input `port`; `file` when it is known to carry a file.
    Port {
        port: usize,
        file: bool,
    },
    Param(&'a str),
    Produced {
        stage: usize,
        output: usize,
    },
    Fault(FillError),
}

/// A stage while a template is built.
struct Draft<'a> {
    descriptor: &'a ExecutableDescriptor,
    binds: Vec<(&'a str, Src<'a>)>,
    /// Output bindings, in binding order.
    outputs: Vec<(&'a str, Output)>,
}

impl JobTemplate {
    /// The template of processor `processor` of workflow `workflow`,
    /// whose job runs `stages` in order and delivers `exposed` — `(port,
    /// stage, output slot)` per output port, in port order. An output
    /// a later stage consumes and no port exposes stays on the worker.
    ///
    /// Structural faults are not errors here: they are kept and returned
    /// by the first [`JobTemplate::fill`], so a processor that never
    /// fires never reports them.
    pub fn compile(
        workflow: &str,
        processor: &str,
        stages: &[StageSpec<'_>],
        exposed: &[(&str, usize, &str)],
    ) -> JobTemplate {
        compile_with(workflow, processor, stages, exposed, &[])
    }

    /// Complete the plan for one invocation over `inputs`, one value per
    /// job input: `staged(i)` is called as input `i` is bound, in
    /// binding order. A file input stages in at its own size (a name
    /// bound twice, at the size bound last), each output GFN is
    /// formatted once, and a file that stays on the worker is only named
    /// on the command line.
    pub fn fill<V: SlotValue>(
        &self,
        inputs: &[V],
        invocation: u64,
        staged: impl FnMut(usize),
    ) -> Result<FilledJob, FillError> {
        let plan = self.plan(inputs, invocation, staged)?;
        let outputs = self.deliver(invocation, &plan.store);
        Ok(FilledJob { plan, outputs })
    }

    /// [`JobTemplate::fill`]'s plan, without naming the delivered files.
    pub(crate) fn plan<V: SlotValue>(
        &self,
        inputs: &[V],
        invocation: u64,
        mut staged: impl FnMut(usize),
    ) -> Result<JobPlan, FillError> {
        for bind in self.stages.iter().flat_map(|s| &s.binds) {
            match bind {
                Bind::Port { port, slot, file } => {
                    staged(*port);
                    if *file && inputs[*port].file().is_none() {
                        return Err(FillError::Bind(format!(
                            "`{}`: file slot `{slot}` received a non-file value {}",
                            self.processor,
                            inputs[*port].describe()
                        )));
                    }
                }
                Bind::Fault(e) => return Err(e.clone()),
            }
        }
        if let Some(e) = &self.fault {
            return Err(e.clone());
        }
        let mut plan = JobPlan {
            command_lines: Vec::with_capacity(self.stages.len()),
            fetch: Vec::with_capacity(self.fetch_len),
            store: Vec::with_capacity(self.store_len),
        };
        for stage in &self.stages {
            for f in &stage.fetch {
                if !plan.fetch.iter().any(|g| g.name == f.name) {
                    plan.fetch.push(f.clone());
                }
            }
            for bind in &stage.binds {
                let (name, bytes) = match bind {
                    Bind::Port {
                        port, file: true, ..
                    } => inputs[*port].file().expect("checked while binding"),
                    _ => continue,
                };
                match plan.fetch.iter_mut().find(|f| f.name == name) {
                    Some(f) => f.bytes = bytes,
                    None => plan.fetch.push(TransferFile {
                        name: name.to_owned(),
                        bytes,
                    }),
                }
            }
            plan.command_lines.push(stage.render(inputs));
            for out in stage.outputs.iter().filter(|o| o.stored) {
                plan.store.push(TransferFile {
                    name: stage.gfn(out, invocation),
                    bytes: out.bytes,
                });
            }
        }
        Ok(plan)
    }

    /// The files a job of this template delivers under `invocation`, as
    /// [`JobTemplate::fill`] names them, without binding any input.
    pub fn outputs(&self, invocation: u64) -> Vec<BoundOutput> {
        self.deliver(invocation, &[])
    }

    /// The output ports' files: a registered one shares the GFN its
    /// `store` entry already formatted.
    fn deliver(&self, invocation: u64, store: &[TransferFile]) -> Vec<BoundOutput> {
        self.exposed
            .iter()
            .map(|e| {
                let stage = &self.stages[e.stage];
                let out = &stage.outputs[e.output];
                let gfn = match e.stored_at.and_then(|k| store.get(k)) {
                    Some(stored) => stored.name.clone(),
                    None => stage.gfn(out, invocation),
                };
                BoundOutput {
                    slot: e.port.clone(),
                    gfn,
                    bytes: out.bytes,
                }
            })
            .collect()
    }
}

impl Stage {
    fn gfn(&self, out: &Output, invocation: u64) -> String {
        if out.fixed {
            return out.name.clone();
        }
        let mut gfn = String::with_capacity(self.prefix.len() + 21 + out.name.len());
        gfn.push_str(&self.prefix);
        let _ = write!(gfn, "{invocation}/");
        gfn.push_str(&out.name);
        gfn
    }

    fn render<V: SlotValue>(&self, inputs: &[V]) -> String {
        let holes: usize = self
            .line
            .iter()
            .filter_map(|p| p.hole)
            .map(|(port, file)| match inputs[port].file() {
                Some((gfn, _)) if file => local_name(gfn).len(),
                _ => 16,
            })
            .sum();
        let mut line = String::with_capacity(self.line_len + holes);
        for piece in &self.line {
            line.push_str(&piece.text);
            match piece.hole.map(|(port, file)| (&inputs[port], file)) {
                Some((value, true)) => {
                    line.push_str(local_name(value.file().expect("a file slot").0));
                }
                Some((value, false)) => value.write_param(&mut line),
                None => {}
            }
        }
        line
    }
}

/// [`JobTemplate::compile`], with some output GFNs fixed up front. Stage
/// `k` is a binding's when `fixed` has an entry for it: its outputs are
/// `fixed[k]`, in binding order and under the GFNs bound there, and
/// every job input it reads is a file; a GFN bound to several outputs is
/// registered once at most, by its first writer. Any other stage's
/// outputs are its descriptor's, named by slot and sized by
/// `output_bytes`.
pub(crate) fn compile_with<'a>(
    workflow: &str,
    processor: &str,
    stages: &[StageSpec<'a>],
    exposed: &[(&str, usize, &str)],
    fixed: &[&'a [BoundOutput]],
) -> JobTemplate {
    let mut drafts: Vec<Draft<'a>> = Vec::with_capacity(stages.len());
    for (k, spec) in stages.iter().enumerate() {
        let mut binds = Vec::with_capacity(spec.feeds.len());
        for &(slot, feed) in &spec.feeds {
            let src = match feed {
                Feed::Port(port) => Src::Port {
                    port,
                    file: k < fixed.len(),
                },
                Feed::Param(value) => Src::Param(value),
                // Only the stages before `k` are drafted yet.
                Feed::Stage { stage, slot: out } => match output_index(&drafts, stage, out) {
                    Some(output) => {
                        // Read on the worker: registered only if exposed.
                        drafts[stage].outputs[output].1.stored = false;
                        Src::Produced { stage, output }
                    }
                    None => Src::Fault(FillError::Bind(format!(
                        "grouped `{processor}`: stage {k} consumes missing output `{out}` of stage {stage}"
                    ))),
                },
            };
            binds.push((slot, src));
        }
        let output = |slot, name: &String, fixed, bytes, stored| {
            let output = Output {
                name: name.clone(),
                fixed,
                bytes,
                stored,
            };
            (slot, output)
        };
        let outputs = match fixed.get(k) {
            Some(outputs) => (outputs.iter().enumerate())
                .map(|(i, o)| {
                    let earlier = fixed[..k].iter().flat_map(|f| f.iter());
                    let again = earlier.chain(&outputs[..i]).any(|e| e.gfn == o.gfn);
                    output(o.slot.as_str(), &o.gfn, true, o.bytes, !again)
                })
                .collect(),
            None => (spec.descriptor.outputs.iter().zip(&spec.output_bytes))
                .map(|(o, &bytes)| output(o.name.as_str(), &o.name, false, bytes, true))
                .collect(),
        };
        drafts.push(Draft {
            descriptor: spec.descriptor,
            binds,
            outputs,
        });
    }
    let mut fault = None;
    let mut ports = Vec::with_capacity(exposed.len());
    for &(port, stage, slot) in exposed {
        match output_index(&drafts, stage, slot) {
            Some(output) => {
                drafts[stage].outputs[output].1.stored = true;
                ports.push((port, stage, output));
            }
            None => {
                fault = fault.or(Some(FillError::Bind(format!(
                    "grouped `{processor}`: exposed output `{slot}` missing from stage {stage}"
                ))));
            }
        }
    }
    if stages.is_empty() {
        fault = fault.or(Some(FillError::Plan(WrapperError::new(
            "cannot compose an empty group",
        ))));
    }

    let mut statics: Vec<String> = Vec::new();
    let mut built = Vec::with_capacity(drafts.len());
    let mut fetch_len = 0;
    for (k, (draft, spec)) in drafts.iter().zip(stages).enumerate() {
        let d = draft.descriptor;
        let mut fetch = Vec::new();
        for item in std::iter::once(&d.executable).chain(&d.sandboxes) {
            let name = match &item.access {
                AccessMethod::Url { server } => format!("{server}/{}", item.value),
                AccessMethod::Gfn => item.value.clone(),
                // Local files are already on the execution host: no transfer.
                AccessMethod::Local => continue,
            };
            if !statics.contains(&name) {
                statics.push(name.clone());
                fetch.push(TransferFile {
                    bytes: UNKNOWN_FILE_BYTES,
                    name,
                });
            }
        }
        let mut binds = Vec::new();
        for (slot, src) in &draft.binds {
            match src {
                Src::Port { port, file: bound } => {
                    let input = d.input(slot);
                    binds.push(Bind::Port {
                        port: *port,
                        slot: (*slot).to_owned(),
                        file: input.is_some_and(InputSlot::is_file),
                    });
                    // A binding's unknown name is its command line's fault.
                    if input.is_none() && !bound {
                        binds.push(Bind::Fault(FillError::Bind(format!(
                            "`{processor}`: input port `{slot}` has no matching descriptor slot"
                        ))));
                    }
                }
                Src::Fault(e) => binds.push(Bind::Fault(e.clone())),
                Src::Param(_) | Src::Produced { .. } => {}
            }
        }
        fetch_len += fetch.len() + binds.len();
        let line = compile_line(draft, &drafts).unwrap_or_else(|e| {
            fault = fault.take().or(Some(FillError::Plan(e)));
            Vec::new()
        });
        built.push(Stage {
            // A binding's stage names every output by a fixed GFN.
            prefix: match spec.group_member {
                _ if k < fixed.len() => String::new(),
                Some(member) => format!("gfn://{workflow}/{processor}~{member}/"),
                None => format!("gfn://{workflow}/{processor}/"),
            },
            fetch,
            binds,
            line_len: line.iter().map(|p| p.text.len()).sum(),
            line,
            outputs: draft.outputs.iter().map(|(_, o)| o.clone()).collect(),
        });
    }
    let mut stored_at = Vec::new();
    for (k, stage) in built.iter().enumerate() {
        for (o, out) in stage.outputs.iter().enumerate() {
            if out.stored {
                stored_at.push((k, o));
            }
        }
    }
    JobTemplate {
        processor: processor.to_owned(),
        exposed: ports
            .into_iter()
            .map(|(port, stage, output)| Exposed {
                port: port.to_owned(),
                stage,
                output,
                stored_at: stored_at.iter().position(|&at| at == (stage, output)),
            })
            .collect(),
        store_len: stored_at.len(),
        stages: built,
        fault,
        fetch_len,
    }
}

/// The position of output `slot` among `stage`'s output bindings.
fn output_index(drafts: &[Draft<'_>], stage: usize, slot: &str) -> Option<usize> {
    let outputs = &drafts.get(stage)?.outputs;
    outputs.iter().position(|&(name, _)| name == slot)
}

/// A parameter slot fed a file.
fn bound_to_file(slot: &str) -> WrapperError {
    WrapperError::new(format!(
        "input `{slot}` is a parameter but was bound to a file"
    ))
}

/// The command line of one stage, slots in descriptor order: every slot
/// must be bound, the first binding of a slot is the one shown, and a
/// binding must name a slot.
fn compile_line(draft: &Draft<'_>, drafts: &[Draft<'_>]) -> Result<Vec<Piece>, WrapperError> {
    let d = draft.descriptor;
    let mut pieces = Vec::new();
    let mut text = d.executable.value.clone();
    for slot in &d.inputs {
        let src = draft
            .binds
            .iter()
            .find(|(name, _)| *name == slot.name)
            .map(|(_, src)| src)
            .ok_or_else(|| WrapperError::new(format!("unbound input `{}`", slot.name)))?;
        option(&mut text, &slot.option);
        match (slot.is_file(), src) {
            (true, Src::Param(_)) => {
                return Err(WrapperError::new(format!(
                    "input `{}` is a file slot but was bound to a literal value",
                    slot.name
                )))
            }
            (false, Src::Produced { .. } | Src::Port { file: true, .. }) => {
                return Err(bound_to_file(&slot.name))
            }
            (file, Src::Port { port, .. }) => pieces.push(Piece {
                text: std::mem::take(&mut text),
                hole: Some((*port, file)),
            }),
            (_, Src::Param(value)) => text.push_str(value),
            (_, Src::Produced { stage, output }) => {
                text.push_str(local_name(&drafts[*stage].outputs[*output].1.name));
            }
            // Filling stops at the fault before any line is rendered.
            (_, Src::Fault(_)) => {}
        }
    }
    for slot in &d.outputs {
        let (_, out) = draft
            .outputs
            .iter()
            .find(|(name, _)| *name == slot.name)
            .ok_or_else(|| WrapperError::new(format!("unbound output `{}`", slot.name)))?;
        option(&mut text, &slot.option);
        text.push_str(local_name(&out.name));
    }
    if let Some((name, _)) = draft.binds.iter().find(|(n, _)| d.input(n).is_none()) {
        return Err(WrapperError::new(format!(
            "binding names unknown input `{name}`"
        )));
    }
    if let Some((slot, _)) = draft.outputs.iter().find(|(n, _)| d.output(n).is_none()) {
        return Err(WrapperError::new(format!(
            "binding names unknown output `{slot}`"
        )));
    }
    pieces.push(Piece { text, hole: None });
    Ok(pieces)
}

/// Separate the next part of a command line, and write its option.
fn option(text: &mut String, option: &str) {
    text.push(' ');
    if !option.is_empty() {
        text.push_str(option);
        text.push(' ');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::crest_lines_example;

    /// A job input of the tests: a file or a literal.
    #[derive(Debug)]
    enum V {
        File(&'static str, u64),
        Lit(&'static str),
    }

    impl SlotValue for V {
        fn file(&self) -> Option<(&str, u64)> {
            match self {
                V::File(gfn, bytes) => Some((gfn, *bytes)),
                V::Lit(_) => None,
            }
        }
        fn write_param(&self, out: &mut String) {
            match self {
                V::File(gfn, _) => out.push_str(gfn),
                V::Lit(v) => out.push_str(v),
            }
        }
        fn describe(&self) -> String {
            format!("{self:?}")
        }
    }

    /// crestLines bound the way the enactor binds it: two image ports,
    /// the scale fixed, 400 kB crest files.
    fn crest_lines(desc: &ExecutableDescriptor) -> StageSpec<'_> {
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

    fn exposed(desc: &ExecutableDescriptor) -> Vec<(&str, usize, &str)> {
        let outputs = desc.outputs.iter();
        outputs
            .map(|o| (o.name.as_str(), 0, o.name.as_str()))
            .collect()
    }

    fn images() -> [V; 2] {
        [
            V::File("gfn://img/f.hdr", 7_800_000),
            V::File("gfn://img/r.hdr", 7_800_000),
        ]
    }

    fn crest_match() -> ExecutableDescriptor {
        ExecutableDescriptor::parse(
            r#"<description><executable name="CrestMatch">
                 <access type="URL"><path value="http://colors.unice.fr"/></access>
                 <value value="cmatch"/>
                 <input name="c1" option="-c1"><access type="GFN"/></input>
                 <input name="c2" option="-c2"><access type="GFN"/></input>
                 <output name="transfo" option="-o"><access type="GFN"/></output>
               </executable></description>"#,
        )
        .unwrap()
    }

    /// The Bronze Standard's group: crestLines feeding both crest files
    /// to crestMatch, whose transform the job delivers.
    fn crest_group(lines: &ExecutableDescriptor, matcher: &ExecutableDescriptor) -> JobTemplate {
        let mut first = crest_lines(lines);
        first.group_member = Some("crestLines");
        let second = StageSpec {
            group_member: Some("crestMatch"),
            descriptor: matcher,
            feeds: vec![
                (
                    "c1",
                    Feed::Stage {
                        stage: 0,
                        slot: "crest_reference",
                    },
                ),
                (
                    "c2",
                    Feed::Stage {
                        stage: 0,
                        slot: "crest_floating",
                    },
                ),
            ],
            output_bytes: vec![2048],
        };
        JobTemplate::compile("wf", "g", &[first, second], &[("transfo", 1, "transfo")])
    }

    #[test]
    fn a_group_keeps_its_intermediates_on_the_worker() {
        let (lines, matcher) = (crest_lines_example(), crest_match());
        let template = crest_group(&lines, &matcher);
        let job = template.fill(&images(), 3, |_| {}).unwrap();
        assert_eq!(
            job.plan.command_lines,
            [
                "CrestLines.pl -im1 f.hdr -im2 r.hdr -s 2 -c1 crest_reference -c2 crest_floating",
                "cmatch -c1 crest_reference -c2 crest_floating -o transfo",
            ]
        );
        let fetched: Vec<_> = job.plan.fetch.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            fetched,
            [
                "http://colors.unice.fr/CrestLines.pl",
                "http://colors.unice.fr/Convert8bits.pl",
                "http://colors.unice.fr/copy",
                "http://colors.unice.fr/cmatch",
                "gfn://img/f.hdr",
                "gfn://img/r.hdr",
            ],
            "the shared cmatch sandbox is fetched once, before the images"
        );
        let gfn = "gfn://wf/g~crestMatch/3/transfo";
        assert_eq!(
            job.plan.store,
            [TransferFile {
                name: gfn.into(),
                bytes: 2048
            }]
        );
        assert_eq!(
            job.outputs,
            [BoundOutput {
                slot: "transfo".into(),
                gfn: gfn.into(),
                bytes: 2048
            }]
        );
    }

    #[test]
    fn a_name_bound_twice_stages_in_once_at_its_last_size() {
        let desc = crest_lines_example();
        let template = JobTemplate::compile("wf", "p", &[crest_lines(&desc)], &exposed(&desc));
        let inputs = [V::File("gfn://img/same", 10), V::File("gfn://img/same", 20)];
        let job = template.fill(&inputs, 0, |_| {}).unwrap();
        let same: Vec<_> = job
            .plan
            .fetch
            .iter()
            .filter(|f| f.name == "gfn://img/same")
            .collect();
        assert_eq!(
            same,
            [&TransferFile {
                name: "gfn://img/same".into(),
                bytes: 20
            }]
        );
    }

    #[test]
    fn structural_faults_wait_for_the_first_fill_in_binding_order() {
        let desc = crest_lines_example();
        let mut spec = crest_lines(&desc);
        spec.feeds.insert(1, ("mystery", Feed::Port(2)));
        let template = JobTemplate::compile("wf", "p", &[spec], &exposed(&desc));
        let mut staged = Vec::new();
        let inputs = [V::File("gfn://a", 1), V::File("gfn://b", 1), V::Lit("x")];
        let err = template
            .fill(&inputs, 0, |port| staged.push(port))
            .unwrap_err();
        let bind = "`p`: input port `mystery` has no matching descriptor slot";
        assert_eq!(err, FillError::Bind(bind.into()));
        assert_eq!(staged, [0, 2], "ports up to the faulty one are staged");

        // A literal on a file slot before it is reported first.
        let inputs = [V::Lit("x"), V::File("gfn://b", 1), V::Lit("x")];
        let err = template.fill(&inputs, 0, |_| {}).unwrap_err();
        let bind = "`p`: file slot `floating_image` received a non-file value Lit(\"x\")";
        assert_eq!(err, FillError::Bind(bind.into()));

        // A slot nothing feeds is a command-line fault, once all is bound.
        let mut spec = crest_lines(&desc);
        spec.feeds.pop();
        let template = JobTemplate::compile("wf", "p", &[spec], &exposed(&desc));
        let err = template.fill(&images(), 0, |_| {}).unwrap_err();
        assert_eq!(
            err,
            FillError::Plan(WrapperError::new("unbound input `scale`"))
        );

        let err = JobTemplate::compile("wf", "g", &[], &[]).fill::<V>(&[], 0, |_| {});
        let empty = WrapperError::new("cannot compose an empty group");
        assert_eq!(err.unwrap_err(), FillError::Plan(empty));
    }

    #[test]
    fn a_stage_fed_by_a_missing_output_is_a_binding_fault() {
        let desc = crest_lines_example();
        let mut spec = crest_lines(&desc);
        spec.group_member = Some("a");
        spec.feeds[1].1 = Feed::Stage {
            stage: 0,
            slot: "crest_reference",
        };
        let template = JobTemplate::compile("wf", "g", &[spec], &[]);
        let err = template.fill(&images(), 0, |_| {}).unwrap_err();
        let bind = "grouped `g`: stage 0 consumes missing output `crest_reference` of stage 0";
        assert_eq!(err, FillError::Bind(bind.into()));
    }

    #[test]
    fn local_name_takes_last_segment() {
        assert_eq!(local_name("gfn://a/b/c.img"), "c.img");
        assert_eq!(local_name("plain.txt"), "plain.txt");
    }
}
