//! In-memory spans around the driver's own calls into the product.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! id of the op it belongs to. Spans are kept in memory and written out
//! once, when the run ends. A layer's *self time* is its span's
//! duration minus the part its child spans cover.

use crate::json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u32,
}

/// Handle returned by [`Tracer::enter`]; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u32,
}

impl Tracer {
    /// Tracing disabled: `enter`/`exit` cost one branch each.
    pub fn off() -> Self {
        Tracer::new(false)
    }

    pub fn on() -> Self {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Spans entered from here on belong to op `op`. Spans a failed op
    /// left open are closed here, so one failure cannot misparent the
    /// spans of the ops after it.
    pub fn begin_op(&mut self, op: u32) {
        let now = self.now_ns();
        while let Some(id) = self.stack.pop() {
            self.spans[id].end_ns = now;
        }
        self.op = op;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON document holding every span (`moteur-benchmark/trace/v1`).
    pub fn to_json(&self, workload: &str) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
                format!(
                    "{{\"id\":{id},\"name\":{},\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                    json::quote(s.name),
                    s.op,
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!(
            "{{\"schema\":\"moteur-benchmark/trace/v1\",\"workload\":{},\"spans\":[\n{}\n]}}\n",
            json::quote(workload),
            spans.join(",\n")
        )
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus
/// the durations of its direct children, summed over spans of one name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    let mut by_name = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        *by_name.entry(s.name).or_insert(0) += ns;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let spans = [
            span("op", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("enact", 30, 90, Some(0)),
            span("fire", 40, 60, Some(2)),
            span("parse", 100, 110, None),
        ];
        let own = self_times(&spans);
        assert_eq!(own["op"], 20, "100 - (20 + 60)");
        assert_eq!(own["enact"], 40, "60 - 20");
        assert_eq!(own["fire"], 20);
        assert_eq!(own["parse"], 30, "summed over both spans of the name");
        assert_eq!(
            own.values().sum::<u64>(),
            110,
            "self times partition the roots"
        );
    }

    #[test]
    fn tracer_records_nesting_and_op_ids() {
        let mut t = Tracer::on();
        t.begin_op(7);
        let op = t.enter("op");
        let inner = t.enter("enact");
        t.exit(inner);
        t.exit(op);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let doc = json::Value::parse(&t.to_json("w")).unwrap();
        assert_eq!(doc.get("spans").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let s = t.enter("op");
        t.exit(s);
        assert!(t.spans().is_empty());
    }
}
