//! The rule documentation registry (`moteur lint --explain M0xx`).
//!
//! One entry per rule code the suite can emit, table-driven so CI
//! failures are self-describing: the renderer prints the code, the
//! registry explains what it means and how to fix it. This table is
//! the only list of codes: the JSON codec interns against it
//! ([`crate::lint::intern_code`]), the fixture suite holds every
//! emission site to its row's severity, and a root-package test holds
//! README's rule table to its rows.

use crate::lint::diag::Severity;

/// Documentation of one rule code.
#[derive(Debug, Clone, Copy)]
pub struct RuleDoc {
    /// Stable rule code (`M0xx`).
    pub code: &'static str,
    /// Severity the rule emits at (the *strongest* one, for rules that
    /// emit at several).
    pub severity: Severity,
    /// One-line summary; the README rule table repeats it.
    pub summary: &'static str,
    /// Longer explanation: what the finding means and what to do.
    pub doc: &'static str,
}

/// Every documented rule, in code order.
pub const RULE_DOCS: &[RuleDoc] = &[
    RuleDoc {
        code: "M000",
        severity: Severity::Error,
        summary: "document is not parseable scufl",
        doc: "The XML does not parse, or the root element is not <scufl>. Nothing \
              beyond this point can be analyzed; fix well-formedness first.",
    },
    RuleDoc {
        code: "M001",
        severity: Severity::Error,
        summary: "dangling link or coordination reference",
        doc: "A <link> or <coordination> names a processor or port that does not \
              exist. The edge is dropped, so the workflow that enacts is not the \
              workflow you wrote.",
    },
    RuleDoc {
        code: "M002",
        severity: Severity::Error,
        summary: "processor unreachable from any source",
        doc: "No chain of data links connects any <source> to this processor: it \
              never receives a token and never fires. Connect it or remove it.",
    },
    RuleDoc {
        code: "M003",
        severity: Severity::Warning,
        summary: "processor cannot reach any sink",
        doc: "The processor fires, but nothing it produces can ever arrive at a \
              <sink>: its results are computed and silently discarded.",
    },
    RuleDoc {
        code: "M004",
        severity: Severity::Error,
        summary: "closed data-link cycle",
        doc: "A cycle no link ever leaves cannot deliver a result — tokens \
              circulate forever. Paper Fig. 2 cycles are legal only with an exit \
              link for conditional routing.",
    },
    RuleDoc {
        code: "M005",
        severity: Severity::Warning,
        summary: "processor linked to itself",
        doc: "A self-loop makes the processor its own predecessor. Only meaningful \
              with conditional routing; usually a wiring mistake.",
    },
    RuleDoc {
        code: "M006",
        severity: Severity::Note,
        summary: "cycle bounded at run time",
        doc: "A data-link cycle with an exit link: the iteration count is decided \
              at run time by conditional output routing (optimization loops). \
              Static cardinalities downstream become unbounded intervals.",
    },
    RuleDoc {
        code: "M007",
        severity: Severity::Error,
        summary: "duplicate processor name",
        doc: "Two processors share a name, so links and input bindings resolve \
              ambiguously. Rename one.",
    },
    RuleDoc {
        code: "M008",
        severity: Severity::Error,
        summary: "service without a binding, or source/sink with one",
        doc: "A service processor with no executable descriptor (or local binding) \
              can never be invoked; a source or sink carrying a binding would never \
              invoke it.",
    },
    RuleDoc {
        code: "M010",
        severity: Severity::Error,
        summary: "input port not connected",
        doc: "An input port with no inbound link: the iteration strategy can never \
              assemble a complete input tuple, so the processor silently never \
              fires. Add a <link> or fix the slot with a <param>.",
    },
    RuleDoc {
        code: "M011",
        severity: Severity::Warning,
        summary: "input port fed by several links",
        doc: "Streams merging on one port interleave in completion order, so \
              iteration pairing is non-deterministic. Barriers are exempt (they \
              consume whole streams).",
    },
    RuleDoc {
        code: "M012",
        severity: Severity::Error,
        summary: "<param> names an unknown slot",
        doc: "The fixed parameter names a slot the descriptor does not declare: it \
              fixes nothing and the real slot stays dangling.",
    },
    RuleDoc {
        code: "M013",
        severity: Severity::Warning,
        summary: "<outputsize> names an unknown slot",
        doc: "The size declaration names a slot the descriptor does not declare, \
              so the transfer model never sees it.",
    },
    RuleDoc {
        code: "M014",
        severity: Severity::Note,
        summary: "output port never consumed",
        doc: "The port's files are produced, transferred and registered for \
              nobody. Legal, but see M083 when the stream is heavy.",
    },
    RuleDoc {
        code: "M020",
        severity: Severity::Warning,
        summary: "dot product over unequal cardinalities",
        doc: "Index-wise pairing truncates to the shortest stream, silently \
              dropping the tail of the longer one. Use iteration=\"cross\" to \
              combine all items, or sync=\"true\" to consume whole streams.",
    },
    RuleDoc {
        code: "M021",
        severity: Severity::Warning,
        summary: "cross product multiplies stream sizes",
        doc: "The invocation count grows as a power (degree ≥ 2) of the input set \
              size. If the streams are index-correlated, iteration=\"dot\" avoids \
              the blowup.",
    },
    RuleDoc {
        code: "M030",
        severity: Severity::Note,
        summary: "job grouping opportunity",
        doc: "Two services in sequence satisfy the §3.6 grouping criterion: one \
              grid job could run both, halving submission overhead.",
    },
    RuleDoc {
        code: "M031",
        severity: Severity::Note,
        summary: "sequential pair that job grouping cannot fuse",
        doc: "A service feeds only one other service, yet a §3.6 condition forbids \
              running them as one grid job: one of them is a barrier, sits in a \
              cycle, iterates by cross product, has no executable descriptor or is \
              under a coordination constraint, or the consumer's port mixes other \
              producers. The message names the condition.",
    },
    RuleDoc {
        code: "M040",
        severity: Severity::Warning,
        summary: "synchronization barrier never waits",
        doc: "A sync=\"true\" processor has no inbound data, or every stream reaching \
              it carries a single item: there is nothing to wait for, but the \
              barrier still blocks service parallelism through it. Drop \
              sync=\"true\" or connect the streams it should gather.",
    },
    RuleDoc {
        code: "M041",
        severity: Severity::Error,
        summary: "coordination constraint contradicts the existing order",
        doc: "`a before b` is declared while b already precedes a through data links \
              or other constraints (or a is b): b waits on a, whose inputs wait on \
              b, and enactment deadlocks. Drop the constraint or reverse it.",
    },
    RuleDoc {
        code: "M042",
        severity: Severity::Warning,
        summary: "coordination constraint duplicates a data link",
        doc: "A data link already orders the two processors, so the constraint adds \
              nothing and disqualifies both from job grouping (§3.6). Remove it.",
    },
    RuleDoc {
        code: "M050",
        severity: Severity::Warning,
        summary: "suspicious executable descriptor",
        doc: "The embedded descriptor parses but will misbehave when the wrapper \
              synthesizes a command line (duplicate options, optionless file \
              slots, zero-byte item sizes, no outputs).",
    },
    RuleDoc {
        code: "M051",
        severity: Severity::Error,
        summary: "ports and descriptor slots disagree",
        doc: "A processor port matches no descriptor slot (or a file slot is \
              never fed by a port or <param>): the wrapper cannot plan the job.",
    },
    RuleDoc {
        code: "M060",
        severity: Severity::Error,
        summary: "unknown scufl element",
        doc: "The document contains an element the dialect does not define. \
              Expected <source>, <sink>, <processor>, <link> or <coordination>.",
    },
    RuleDoc {
        code: "M061",
        severity: Severity::Error,
        summary: "missing required attribute",
        doc: "A scufl element lacks an attribute the parser needs (e.g. a \
              <link> without from=/to=). The construct is skipped.",
    },
    RuleDoc {
        code: "M062",
        severity: Severity::Error,
        summary: "attribute value does not parse",
        doc: "A numeric attribute (compute=, bytes=, <outputsize bytes=>, a <cost> \
              parameter) is not a number, or iteration= / the <cost> type names \
              nothing the dialect defines.",
    },
    RuleDoc {
        code: "M063",
        severity: Severity::Error,
        summary: "malformed endpoint",
        doc: "A link endpoint is not of the form `processor:port`.",
    },
    RuleDoc {
        code: "M064",
        severity: Severity::Error,
        summary: "missing or malformed <executable> descriptor",
        doc: "The processor embeds no <executable>, or the one it embeds does not \
              parse as a Fig. 8 descriptor; the processor is skipped.",
    },
    RuleDoc {
        code: "M070",
        severity: Severity::Warning,
        summary: "non-deterministic service is never memoized",
        doc: "The descriptor declares nondeterministic=\"true\": memoizing it \
              would replay stale outputs, so the data manager re-executes it on \
              every warm run. See M085 for the downstream consequence.",
    },
    RuleDoc {
        code: "M080",
        severity: Severity::Warning,
        summary: "cardinality explosion beyond the cap",
        doc: "The interval cardinality analysis proves the service can fire more \
              times than the explosion cap (10⁶ by default): the campaign grows \
              combinatorially. Replace cross-products on correlated streams with \
              iteration=\"dot\", or reduce upstream fan-out.",
    },
    RuleDoc {
        code: "M081",
        severity: Severity::Note,
        summary: "transfer-dominated edge",
        doc: "One edge carries at least half of all statically-bounded bytes (and \
              at least 1 MiB): the enactor's routing load concentrates there. \
              `moteur plan` reports a site partition that internalizes it.",
    },
    RuleDoc {
        code: "M082",
        severity: Severity::Warning,
        summary: "service can never fire",
        doc: "The interval analysis proves the invocation count is exactly zero \
              under the declared inputs — an upstream port receives no items, so \
              this service (unlike M002's unreachable case, it may be fully \
              wired) starves transitively.",
    },
    RuleDoc {
        code: "M083",
        severity: Severity::Warning,
        summary: "heavy output port never consumed",
        doc: "An unconsumed output port (M014) whose stream is statically bounded \
              at 1 MiB or more per campaign: the bytes are produced, transferred \
              and registered for nobody. Link the port or drop the output.",
    },
    RuleDoc {
        code: "M084",
        severity: Severity::Note,
        summary: "barrier serializes a pipelinable chain",
        doc: "A synchronization barrier sits between upstream and downstream \
              services with a multi-item stream: service parallelism cannot \
              stream through it, so the downstream chain waits for the entire \
              upstream campaign. Drop sync=\"true\" if the whole stream is not \
              actually needed at once.",
    },
    RuleDoc {
        code: "M085",
        severity: Severity::Note,
        summary: "memoization defeated downstream of nondeterminism",
        doc: "A deterministic service whose inputs derive from a \
              nondeterministic one (M070): its cache keys never repeat across \
              runs, so invocation memoization and warm restarts silently stop \
              helping from that point on.",
    },
];

/// Look up one rule's documentation.
pub fn explain(code: &str) -> Option<&'static RuleDoc> {
    RULE_DOCS.iter().find(|d| d.code == code)
}

/// Render one rule's documentation as the CLI prints it.
pub fn render_explain(doc: &RuleDoc) -> String {
    format!(
        "{} ({}): {}\n\n{}\n",
        doc.code,
        doc.severity.name(),
        doc.summary,
        doc.doc
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explain_finds_rules_by_code() {
        let doc = explain("M080").unwrap();
        assert_eq!(doc.severity, Severity::Warning);
        let text = render_explain(doc);
        assert!(text.starts_with("M080 (warning): cardinality explosion"));
        assert!(explain("M999").is_none());
    }
}
