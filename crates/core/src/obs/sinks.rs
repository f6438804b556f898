//! Built-in [`EventSink`] implementations: bounded in-memory ring
//! buffer and JSONL stream writer.
//!
//! [`JsonlSink`] renders each event's line straight into the one output
//! buffer it keeps and hands the writer whole buffers, so a line is
//! written once and copied once, by the writer. Recording stays on the
//! emitting thread: on a host with no spare core a writer thread only
//! moves the same work, plus a copy of each event, onto a contended
//! one.

use super::{EventSink, TraceEvent};
use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Bytes of rendered lines a [`JsonlSink`] hands its writer at once.
const HANDOVER: usize = 32 * 1024;

/// Its buffer's capacity: a handover plus room for the line that
/// crosses it (the lines of a grid run are under 200 bytes), so the
/// buffer never grows for them.
const BUFFER: usize = HANDOVER + 4 * 1024;

/// Shared view over a [`RingBufferSink`]'s contents.
#[derive(Debug, Clone)]
pub struct EventBuffer {
    events: Arc<Mutex<VecDeque<TraceEvent>>>,
    dropped: Arc<Mutex<u64>>,
}

impl EventBuffer {
    /// Copy of the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .expect("event buffer lock")
            .iter()
            .cloned()
            .collect()
    }

    pub fn len(&self) -> usize {
        self.events.lock().expect("event buffer lock").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        *self.dropped.lock().expect("event buffer lock")
    }
}

/// Keeps the most recent `capacity` events in memory.
#[derive(Debug)]
pub struct RingBufferSink {
    events: Arc<Mutex<VecDeque<TraceEvent>>>,
    dropped: Arc<Mutex<u64>>,
    capacity: usize,
}

impl RingBufferSink {
    /// Returns the sink and a shared [`EventBuffer`] handle to read the
    /// retained events after (or during) a run.
    pub fn new(capacity: usize) -> (Self, EventBuffer) {
        let events = Arc::new(Mutex::new(VecDeque::with_capacity(capacity.min(4096))));
        let dropped = Arc::new(Mutex::new(0));
        let buffer = EventBuffer {
            events: events.clone(),
            dropped: dropped.clone(),
        };
        (
            RingBufferSink {
                events,
                dropped,
                capacity: capacity.max(1),
            },
            buffer,
        )
    }
}

impl EventSink for RingBufferSink {
    fn record(&mut self, event: &TraceEvent) {
        let mut events = self.events.lock().expect("event buffer lock");
        if events.len() == self.capacity {
            events.pop_front();
            *self.dropped.lock().expect("event buffer lock") += 1;
        }
        events.push_back(event.clone());
    }
}

/// Writes one JSON object per line (JSONL / NDJSON).
pub struct JsonlSink {
    out: Box<dyn Write + Send>,
    /// Whole lines not yet handed to `out`.
    buf: String,
    /// First write error, reported on [`EventSink::flush`]. Event
    /// recording itself stays infallible: after an error, events are
    /// dropped until the flush that reports it.
    error: Option<std::io::Error>,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl JsonlSink {
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out: writer,
            buf: String::with_capacity(BUFFER),
            error: None,
        }
    }

    /// Create (truncate) `path` and stream events into it.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(Box::new(file)))
    }

    /// Hand the buffered lines to the writer, keeping the first error.
    fn hand_over(&mut self) {
        if self.error.is_none() && !self.buf.is_empty() {
            if let Err(e) = self.out.write_all(self.buf.as_bytes()) {
                self.error = Some(e);
            }
        }
        self.buf.clear();
    }
}

impl EventSink for JsonlSink {
    fn record(&mut self, event: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        event.write_json(&mut self.buf);
        self.buf.push('\n');
        if self.buf.len() >= HANDOVER {
            self.hand_over();
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.hand_over();
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()
    }
}

impl Drop for JsonlSink {
    /// Best-effort flush so a sink dropped without an explicit
    /// [`EventSink::flush`] (early return, panic unwind) still leaves a
    /// complete, parseable file. Errors cannot propagate from drop and
    /// are discarded.
    fn drop(&mut self) {
        self.hand_over();
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moteur_gridsim::SimTime;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent::JobCompleted {
            at: SimTime::from_secs_f64(i as f64),
            invocation: i,
            processor: "p".into(),
            completion: Box::default(),
        }
    }

    #[test]
    fn ring_buffer_keeps_most_recent_and_counts_drops() {
        let (mut sink, buffer) = RingBufferSink::new(3);
        for i in 0..5 {
            sink.record(&ev(i));
        }
        let kept: Vec<u64> = buffer
            .snapshot()
            .iter()
            .filter_map(super::super::TraceEvent::invocation)
            .collect();
        assert_eq!(kept, vec![2, 3, 4]);
        assert_eq!(buffer.dropped(), 2);
        assert_eq!(buffer.len(), 3);
        assert!(!buffer.is_empty());
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        struct SharedVec(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedVec {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let shared = Arc::new(Mutex::new(Vec::new()));
        let mut sink = JsonlSink::new(Box::new(SharedVec(shared.clone())));
        sink.record(&ev(1));
        sink.record(&ev(2));
        sink.flush().unwrap();
        let text = String::from_utf8(shared.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"type\":\"job_completed\""));
        }
    }

    /// A writer whose `n`th write fails; the others land in `written`.
    struct FailsOn {
        n: usize,
        writes: usize,
        written: Arc<Mutex<Vec<u8>>>,
    }

    impl Write for FailsOn {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            if self.writes == self.n {
                return Err(std::io::Error::other(format!("write {} failed", self.n)));
            }
            self.written.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failing_writer_is_reported_on_flush_and_later_events_are_dropped() {
        for n in [1, 2, 3] {
            let written = Arc::new(Mutex::new(Vec::new()));
            let writer = FailsOn {
                n,
                writes: 0,
                written: written.clone(),
            };
            let mut sink = JsonlSink::new(Box::new(writer));
            // Enough lines for several handovers, so the failure falls
            // mid-stream for every `n`.
            let lines = 4 * HANDOVER / ev(0).to_json().len();
            for i in 0..lines as u64 {
                sink.record(&ev(i));
            }
            let before_flush = written.lock().unwrap().len();
            let err = sink.flush().expect_err("the failed write is reported");
            assert_eq!(err.to_string(), format!("write {n} failed"));
            let text = String::from_utf8(written.lock().unwrap().clone()).unwrap();
            assert_eq!(
                text.len(),
                before_flush,
                "nothing written after the failure"
            );
            assert!(text.is_empty() || text.ends_with('\n'), "whole lines only");
            let handed = text.lines().count();
            assert!(handed < lines, "events after the failure are dropped");
            for (i, line) in text.lines().enumerate() {
                assert_eq!(line, ev(i as u64).to_json());
            }
            // Reported once; the sink writes again, and dropping it
            // neither panics nor loses what it holds.
            sink.record(&ev(0));
            drop(sink);
            let last = ev(0).to_json() + "\n";
            assert!(written.lock().unwrap().ends_with(last.as_bytes()));
        }
    }

    #[test]
    fn ring_buffer_wraps_exactly_at_capacity() {
        let (mut sink, buffer) = RingBufferSink::new(4);
        for i in 0..4 {
            sink.record(&ev(i));
        }
        assert_eq!(buffer.dropped(), 0, "at capacity, nothing dropped yet");
        sink.record(&ev(4));
        assert_eq!(buffer.dropped(), 1, "first overflow evicts exactly one");
        let kept: Vec<u64> = buffer
            .snapshot()
            .iter()
            .filter_map(super::super::TraceEvent::invocation)
            .collect();
        assert_eq!(kept, vec![1, 2, 3, 4], "oldest evicted, order preserved");
        // Keep wrapping: retained window slides, count accumulates.
        for i in 5..105 {
            sink.record(&ev(i));
        }
        assert_eq!(buffer.len(), 4);
        assert_eq!(buffer.dropped(), 101);
        let kept: Vec<u64> = buffer
            .snapshot()
            .iter()
            .filter_map(super::super::TraceEvent::invocation)
            .collect();
        assert_eq!(kept, vec![101, 102, 103, 104]);
    }

    #[test]
    fn ring_buffer_capacity_zero_is_clamped_to_one() {
        let (mut sink, buffer) = RingBufferSink::new(0);
        sink.record(&ev(0));
        sink.record(&ev(1));
        assert_eq!(buffer.len(), 1);
        assert_eq!(buffer.dropped(), 1);
        assert_eq!(buffer.snapshot()[0].invocation(), Some(1));
    }

    #[test]
    fn dropped_jsonl_sink_leaves_a_complete_parseable_file() {
        let dir = std::env::temp_dir().join(format!(
            "moteur-sink-drop-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        {
            let mut sink = JsonlSink::create(&path).unwrap();
            for i in 0..50 {
                sink.record(&ev(i));
            }
            // No explicit flush: the sink goes out of scope here.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 50, "every event made it to disk");
        assert!(text.ends_with('\n'), "file ends on a record boundary");
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            crate::obs::json::JsonValue::parse(line)
                .unwrap_or_else(|e| panic!("unparseable line {line}: {e}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
