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
//! ([`JobTemplate::compile`]), [checks](JobTemplate::check) each
//! firing's values against it, and hands the template and the values to
//! the backend, which [renders](JobTemplate::render) the plan only if it
//! reads it; the file sizes come from [`JobTemplate::fetch`]'s walk.
//! [`compose_group`](crate::compose_group) is a thin adapter over the
//! same builder: each binding becomes a stage (a literal is a
//! [`Feed::Param`], a file an earlier member writes a [`Feed::Stage`],
//! any other file a [`Feed::Port`]) that keeps the output GFNs the
//! binding fixed, and the template is compiled, checked and rendered
//! once. So every plan is rendered by one piece of code. A template
//! stages executables and sandboxes in at a fixed 64 KiB; the adapter
//! sizes the rendered plan's files afterwards.

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
    /// What one invocation stages in, repeats included, in plan order:
    /// per stage its executable and sandboxes, then its file inputs in
    /// binding order.
    staged: Vec<Staged>,
    /// The registered outputs of one invocation, `(stage, output)` in
    /// plan order.
    stored: Vec<(usize, usize)>,
    /// The first fault found once every slot is bound: `check` returns
    /// it after the per-slot checks pass.
    fault: Option<FillError>,
    /// The first stage's executable.
    executable: String,
    /// `gfn://{workflow}/{processor}`.
    gfn_head: String,
}

/// One stage-in of an invocation.
#[derive(Debug, Clone)]
enum Staged {
    /// An executable or sandbox, resolved, at [`UNKNOWN_FILE_BYTES`]. No
    /// two are equal: a stage leaves out what an earlier one stages in.
    Static(String),
    /// The file job input `port` carries, at its own size.
    Port(usize),
}

impl Staged {
    /// The file's name over `inputs`, and its size when bound there.
    fn resolve<'a, V: SlotValue>(&'a self, inputs: &'a [V]) -> Option<(&'a str, Option<u64>)> {
        match self {
            Staged::Static(name) => Some((name, None)),
            Staged::Port(port) => (inputs[*port].file()).map(|(name, bytes)| (name, Some(bytes))),
        }
    }
}

#[derive(Debug, Clone)]
struct Stage {
    /// What follows the template's `gfn_head` in the GFN directory of
    /// this stage's outputs: `/`, or `~{stage}/` in a group. The head
    /// is kept once, not per stage, as a group's processor name grows
    /// with its stage count.
    prefix: String,
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
    /// `{gfn_head}{prefix}{invocation}/{slot}`.
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
    /// by the first [`JobTemplate::check`] (or [`JobTemplate::fill`]), so
    /// a processor that never fires never reports them.
    pub fn compile(
        workflow: &str,
        processor: &str,
        stages: &[StageSpec<'_>],
        exposed: &[(&str, usize, &str)],
    ) -> JobTemplate {
        compile_with(workflow, processor, stages, exposed, &[])
    }

    /// Complete the plan for one invocation over `inputs`, one value per
    /// job input: [`JobTemplate::check`] the binding, then
    /// [`JobTemplate::render`] the plan of a job running it alone and
    /// name the files it delivers.
    pub fn fill<V: SlotValue>(
        &self,
        inputs: &[V],
        invocation: u64,
        staged: impl FnMut(usize),
    ) -> Result<FilledJob, FillError> {
        self.check(inputs, staged)?;
        let plan = self.render(std::iter::once((inputs, invocation)));
        Ok(FilledJob {
            plan,
            outputs: self.outputs(invocation),
        })
    }

    /// Bind `inputs`, one value per job input, without rendering
    /// anything: `staged(i)` is called as input `i` is bound, in binding
    /// order, a file slot must receive a file, and a structural fault of
    /// the template is returned at its place in the binding walk. A
    /// binding that passes renders (see [`JobTemplate::render`]).
    pub fn check<V: SlotValue>(
        &self,
        inputs: &[V],
        mut staged: impl FnMut(usize),
    ) -> Result<(), FillError> {
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
        match &self.fault {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// How many stages a job of this template runs: the command lines
    /// one invocation renders.
    pub fn stages(&self) -> usize {
        self.stages.len()
    }

    /// The executable the first stage runs, as its command line names it.
    pub fn executable(&self) -> &str {
        &self.executable
    }

    /// The plan of one job running `members` in order, each `(inputs,
    /// invocation)` already [checked](JobTemplate::check): their command
    /// lines, the files [`JobTemplate::fetch`] walks, and each member's
    /// registered outputs. One member renders what [`JobTemplate::fill`]
    /// returns; several render the first member's plan with each later
    /// one [absorbed](JobPlan::absorb) in turn.
    pub fn render<'a, V, I>(&'a self, members: I) -> JobPlan
    where
        V: SlotValue + 'a,
        I: Iterator<Item = (&'a [V], u64)> + Clone,
    {
        let fetch = self.fetch(members.clone().map(|(inputs, _)| inputs));
        let mut plan = JobPlan {
            command_lines: Vec::new(),
            fetch: fetch
                .map(|(name, bytes)| TransferFile {
                    name: name.to_owned(),
                    bytes,
                })
                .collect(),
            store: Vec::new(),
        };
        for (inputs, invocation) in members {
            plan.command_lines
                .extend(self.stages.iter().map(|stage| stage.render(inputs)));
            plan.store.extend(self.stored.iter().map(|&(s, o)| {
                let (stage, out) = (&self.stages[s], &self.stages[s].outputs[o]);
                TransferFile {
                    name: stage.gfn(&self.gfn_head, out, invocation),
                    bytes: out.bytes,
                }
            }));
        }
        plan
    }

    /// Every file a job running `members` (each member's checked inputs,
    /// in order) stages in, as `(name, bytes)` in the order its plan
    /// lists them, without allocating. This walk is the one place the
    /// rule lives: within one member a name staged twice (two ports, or
    /// a port and an executable or sandbox) is fetched once, at its first
    /// position and at the size bound last, and across members the first
    /// member to stage a name fetches it.
    pub fn fetch<'a, V, I>(&'a self, members: I) -> impl Iterator<Item = (&'a str, u64)> + 'a
    where
        V: SlotValue + 'a,
        I: Iterator<Item = &'a [V]> + Clone + 'a,
    {
        Fetch {
            template: self,
            all: members.clone(),
            members: members.enumerate(),
            member: None,
            next: 0,
        }
    }

    /// The sizes of the files a job running `members` invocations
    /// registers, in plan order.
    pub fn store_sizes(&self, members: usize) -> impl Iterator<Item = u64> + '_ {
        let sizes = self
            .stored
            .iter()
            .map(|&(s, o)| self.stages[s].outputs[o].bytes);
        (0..members).flat_map(move |_| sizes.clone())
    }

    /// The files a job of this template delivers under `invocation`, as
    /// [`JobTemplate::fill`] names them, without binding any input.
    pub fn outputs(&self, invocation: u64) -> Vec<BoundOutput> {
        self.exposed
            .iter()
            .map(|e| {
                let stage = &self.stages[e.stage];
                let out = &stage.outputs[e.output];
                BoundOutput {
                    slot: e.port.clone(),
                    gfn: stage.gfn(&self.gfn_head, out, invocation),
                    bytes: out.bytes,
                }
            })
            .collect()
    }

    /// The fetch entry of stage-in `i` over one member's `inputs`: none
    /// when an earlier stage-in names the same file, else its name at the
    /// size the last input bound to it carries ([`UNKNOWN_FILE_BYTES`]
    /// for an executable or sandbox no input names).
    fn fetched<'a, V: SlotValue>(&'a self, inputs: &'a [V], i: usize) -> Option<(&'a str, u64)> {
        let (name, mut bytes) = self.staged[i].resolve(inputs)?;
        let (before, after) = self.staged.split_at(i);
        for earlier in before {
            // Executables and sandboxes never repeat one another.
            let both_static = bytes.is_none() && matches!(earlier, Staged::Static(_));
            if !both_static && earlier.resolve(inputs).is_some_and(|(n, _)| n == name) {
                return None;
            }
        }
        for later in &after[1..] {
            if let Some((n, Some(b))) = later.resolve(inputs) {
                if n == name {
                    bytes = Some(b);
                }
            }
        }
        Some((name, bytes.unwrap_or(UNKNOWN_FILE_BYTES)))
    }

    /// Whether one member's `inputs` stage `name` in.
    fn stages_in<V: SlotValue>(&self, inputs: &[V], name: &str) -> bool {
        (self.staged.iter()).any(|e| e.resolve(inputs).is_some_and(|(n, _)| n == name))
    }
}

/// The walk [`JobTemplate::fetch`] returns.
struct Fetch<'a, V, I> {
    template: &'a JobTemplate,
    all: I,
    members: std::iter::Enumerate<I>,
    /// The member being walked, and its position.
    member: Option<(usize, &'a [V])>,
    /// Its next stage-in.
    next: usize,
}

impl<'a, V: SlotValue, I: Iterator<Item = &'a [V]> + Clone> Iterator for Fetch<'a, V, I> {
    type Item = (&'a str, u64);

    fn next(&mut self) -> Option<(&'a str, u64)> {
        let template = self.template;
        loop {
            let (k, inputs) = match self.member {
                Some(member) => member,
                None => {
                    self.next = 0;
                    *self.member.insert(self.members.next()?)
                }
            };
            while self.next < template.staged.len() {
                let i = self.next;
                self.next += 1;
                let Some((name, bytes)) = template.fetched(inputs, i) else {
                    continue;
                };
                let mut earlier = self.all.clone().take(k);
                if !earlier.any(|e| template.stages_in(e, name)) {
                    return Some((name, bytes));
                }
            }
            self.member = None;
        }
    }
}

impl Stage {
    fn gfn(&self, head: &str, out: &Output, invocation: u64) -> String {
        if out.fixed {
            return out.name.clone();
        }
        let mut gfn = String::with_capacity(head.len() + self.prefix.len() + 21 + out.name.len());
        gfn.push_str(head);
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
    let mut staged = Vec::new();
    let mut built = Vec::with_capacity(drafts.len());
    for (k, (draft, spec)) in drafts.iter().zip(stages).enumerate() {
        let d = draft.descriptor;
        for item in std::iter::once(&d.executable).chain(&d.sandboxes) {
            let name = match &item.access {
                AccessMethod::Url { server } => format!("{server}/{}", item.value),
                AccessMethod::Gfn => item.value.clone(),
                // Local files are already on the execution host: no transfer.
                AccessMethod::Local => continue,
            };
            if !statics.contains(&name) {
                statics.push(name.clone());
                staged.push(Staged::Static(name));
            }
        }
        let mut binds = Vec::new();
        for (slot, src) in &draft.binds {
            match src {
                Src::Port { port, file: bound } => {
                    let input = d.input(slot);
                    let file = input.is_some_and(InputSlot::is_file);
                    if file {
                        staged.push(Staged::Port(*port));
                    }
                    binds.push(Bind::Port {
                        port: *port,
                        slot: (*slot).to_owned(),
                        file,
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
        let line = compile_line(draft, &drafts).unwrap_or_else(|e| {
            fault = fault.take().or(Some(FillError::Plan(e)));
            Vec::new()
        });
        built.push(Stage {
            // A binding's stage names every output by a fixed GFN.
            prefix: match spec.group_member {
                _ if k < fixed.len() => String::new(),
                Some(member) => format!("~{member}/"),
                None => "/".to_owned(),
            },
            binds,
            line_len: line.iter().map(|p| p.text.len()).sum(),
            line,
            outputs: draft.outputs.iter().map(|(_, o)| o.clone()).collect(),
        });
    }
    let mut stored = Vec::new();
    for (k, stage) in built.iter().enumerate() {
        let outputs = stage.outputs.iter().enumerate();
        stored.extend(outputs.filter(|(_, o)| o.stored).map(|(o, _)| (k, o)));
    }
    JobTemplate {
        processor: processor.to_owned(),
        gfn_head: format!("gfn://{workflow}/{processor}"),
        staged,
        stored,
        exposed: ports
            .into_iter()
            .map(|(port, stage, output)| Exposed {
                port: port.to_owned(),
                stage,
                output,
            })
            .collect(),
        executable: stages
            .first()
            .map_or_else(String::new, |s| s.descriptor.executable.value.clone()),
        stages: built,
        fault,
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

    /// crestLines, then a matcher whose executable no earlier stage
    /// stages in.
    fn pf_match() -> ExecutableDescriptor {
        ExecutableDescriptor::parse(
            r#"<description><executable name="PFMatchICP">
                 <access type="URL"><path value="http://colors.unice.fr"/></access>
                 <value value="PFMatchICP"/>
                 <input name="c1" option="-c1"><access type="GFN"/></input>
                 <input name="c2" option="-c2"><access type="GFN"/></input>
                 <output name="transfo" option="-o"><access type="GFN"/></output>
               </executable></description>"#,
        )
        .unwrap()
    }

    fn files(list: &[(&str, u64)]) -> Vec<TransferFile> {
        let file = |&(name, bytes): &(&str, u64)| TransferFile {
            name: name.into(),
            bytes,
        };
        list.iter().map(file).collect()
    }

    const CREST: &str = "http://colors.unice.fr/CrestLines.pl";
    const CONVERT: &str = "http://colors.unice.fr/Convert8bits.pl";
    const COPY: &str = "http://colors.unice.fr/copy";
    const CMATCH: &str = "http://colors.unice.fr/cmatch";
    const UNKNOWN: u64 = UNKNOWN_FILE_BYTES;
    const LINES: &str = "-s 2 -c1 crest_reference -c2 crest_floating";

    /// Render `members` and hold the plan to `want`, which the eager
    /// builder (fill each member, absorb the later ones) rendered before
    /// plans were rendered on read; then hold the sizing walk to the
    /// rendered plan's files.
    fn assert_renders(template: &JobTemplate, members: &[(&[V], u64)], want: &JobPlan) {
        let rendered = template.render(members.iter().copied());
        assert_eq!(&rendered, want);
        let (first, rest) = members.split_first().unwrap();
        let mut eager = template.fill(first.0, first.1, |_| {}).unwrap().plan;
        for &(inputs, invocation) in rest {
            eager.absorb(template.fill(inputs, invocation, |_| {}).unwrap().plan);
        }
        assert_eq!(&eager, want);
        let walked: Vec<_> = template.fetch(members.iter().map(|m| m.0)).collect();
        let fetched: Vec<_> = (want.fetch.iter())
            .map(|f| (f.name.as_str(), f.bytes))
            .collect();
        assert_eq!(walked, fetched);
        let stored: Vec<_> = want.store.iter().map(|f| f.bytes).collect();
        assert_eq!(
            template.store_sizes(members.len()).collect::<Vec<_>>(),
            stored
        );
    }

    /// A GFN bound to both image ports at two sizes stages in once, at
    /// the last size; a GFN equal to an executable or sandbox URL is that
    /// file, staged at the place the executable or sandbox has and at the
    /// input's size, or at the input's place when a later stage's
    /// executable names it; across the members of a batch the first to
    /// stage a name fetches it.
    #[test]
    fn a_plan_rendered_on_read_is_the_eager_plan() {
        let (lines, matcher, pf) = (crest_lines_example(), crest_match(), pf_match());
        let single = JobTemplate::compile("wf", "p", &[crest_lines(&lines)], &exposed(&lines));
        let group = crest_group(&lines, &matcher);
        let other = crest_group(&lines, &pf);
        let same = [V::File("gfn://img/same", 10), V::File("gfn://img/same", 20)];
        let sandbox = [V::File(COPY, 5), V::File("gfn://img/r.hdr", 7_800_000)];
        let later_exe = [
            V::File("gfn://img/f.hdr", 6),
            V::File("http://colors.unice.fr/PFMatchICP", 9),
        ];
        let statics = |copy| {
            vec![
                (CREST, UNKNOWN),
                (CONVERT, UNKNOWN),
                (COPY, copy),
                (CMATCH, UNKNOWN),
            ]
        };
        let crest_store = |inv: u64| {
            let name = |slot| format!("gfn://wf/p/{inv}/{slot}");
            [name("crest_reference"), name("crest_floating")].map(|name| TransferFile {
                name,
                bytes: 400_000,
            })
        };
        let transfo = |stage: &str, inv: u64| TransferFile {
            name: format!("gfn://wf/g~{stage}/{inv}/transfo"),
            bytes: 2048,
        };
        let cmatch_line = "cmatch -c1 crest_reference -c2 crest_floating -o transfo";

        let mut fetch = statics(UNKNOWN);
        fetch.push(("gfn://img/same", 20));
        let plan = JobPlan {
            command_lines: vec![format!("CrestLines.pl -im1 same -im2 same {LINES}")],
            fetch: files(&fetch),
            store: crest_store(5).into(),
        };
        assert_renders(&single, &[(&same, 5)], &plan);
        let plan = JobPlan {
            command_lines: vec![plan.command_lines[0].clone(), cmatch_line.into()],
            store: vec![transfo("crestMatch", 5)],
            ..plan
        };
        assert_renders(&group, &[(&same, 5)], &plan);

        let mut fetch = statics(5);
        fetch.push(("gfn://img/r.hdr", 7_800_000));
        let plan = JobPlan {
            command_lines: vec![format!("CrestLines.pl -im1 copy -im2 r.hdr {LINES}")],
            fetch: files(&fetch),
            store: crest_store(5).into(),
        };
        assert_renders(&single, &[(&sandbox, 5)], &plan);
        let plan = JobPlan {
            command_lines: vec![plan.command_lines[0].clone(), cmatch_line.into()],
            store: vec![transfo("crestMatch", 5)],
            ..plan
        };
        assert_renders(&group, &[(&sandbox, 5)], &plan);

        let mut fetch = statics(UNKNOWN);
        fetch.extend([
            ("gfn://img/f.hdr", 6),
            ("http://colors.unice.fr/PFMatchICP", 9),
        ]);
        let plan = JobPlan {
            command_lines: vec![
                format!("CrestLines.pl -im1 f.hdr -im2 PFMatchICP {LINES}"),
                "PFMatchICP -c1 crest_reference -c2 crest_floating -o transfo".into(),
            ],
            fetch: files(&fetch),
            store: vec![transfo("crestMatch", 5)],
        };
        assert_renders(&other, &[(&later_exe, 5)], &plan);

        // A batch of three, as `data_batching = 3` submits one.
        let second = [V::File(CREST, 3), V::File("gfn://img/same", 40)];
        let third = [V::File("gfn://img/x", 1), V::File("gfn://img/y", 2)];
        let batch: [(&[V], u64); 3] = [
            (&same, 7_000_000),
            (&second, 7_000_001),
            (&third, 7_000_002),
        ];
        let mut fetch = statics(UNKNOWN);
        fetch.extend([
            ("gfn://img/same", 20),
            ("gfn://img/x", 1),
            ("gfn://img/y", 2),
        ]);
        let lines = [
            format!("CrestLines.pl -im1 same -im2 same {LINES}"),
            format!("CrestLines.pl -im1 CrestLines.pl -im2 same {LINES}"),
            format!("CrestLines.pl -im1 x -im2 y {LINES}"),
        ];
        let plan = JobPlan {
            command_lines: lines.to_vec(),
            fetch: files(&fetch),
            store: (7_000_000..7_000_003).flat_map(crest_store).collect(),
        };
        assert_renders(&single, &batch, &plan);
        let plan = JobPlan {
            command_lines: lines
                .iter()
                .flat_map(|l| [l.clone(), cmatch_line.into()])
                .collect(),
            store: (7_000_000..7_000_003)
                .map(|inv| transfo("crestMatch", inv))
                .collect(),
            ..plan
        };
        assert_renders(&group, &batch, &plan);
    }

    #[test]
    fn local_name_takes_last_segment() {
        assert_eq!(local_name("gfn://a/b/c.img"), "c.img");
        assert_eq!(local_name("plain.txt"), "plain.txt");
    }
}
