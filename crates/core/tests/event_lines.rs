//! The one-pass event line writer against the writer it replaced
//! (`support/event_line_oracle.rs`): equal bytes on seeded events of
//! every kind, built from the values a line writer gets wrong — strings
//! that need escaping or are not ASCII, non-finite floats, times on both
//! sides of the exact-decimal bound, and the largest counts — and equal
//! bytes from a `JsonlSink` that streams them.

#[path = "support/event_line_oracle.rs"]
mod event_line_oracle;

use event_line_oracle::OracleLine;
use moteur::{EventSink, JsonlSink, TraceEvent};
use moteur_gridsim::{CeId, JobId, JobOutcome, SimEvent, SimTime};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Events generated per kind.
const PER_KIND: usize = 120;

/// Below this many microseconds a time is written as an exact decimal;
/// at and above it, as the float seconds (`obs::json`'s bound).
const EXACT_MICROS: u64 = 1_000_000_000_000_000;

/// splitmix64: a seeded stream with no dependency.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    fn text(&mut self) -> String {
        const PIECES: [&str; 14] = [
            "crestLines",
            "",
            "\"",
            "\\",
            "\n",
            "\r\t",
            "\u{0}",
            "\u{1f}",
            "\u{7f}",
            "é",
            "😀",
            "\u{2028}",
            "a\"b\\c",
            "[0,1]",
        ];
        (0..self.below(4)).map(|_| self.pick(&PIECES)).collect()
    }

    fn at(&mut self) -> SimTime {
        let edges = [0, 1, 999_999, EXACT_MICROS - 1, EXACT_MICROS, u64::MAX];
        SimTime(match self.below(3) {
            0 => self.pick(&edges),
            1 => EXACT_MICROS + self.below(1 << 40),
            _ => {
                let digits = self.below(16) as u32 + 1;
                self.below(10u64.pow(digits))
            }
        })
    }

    fn count(&mut self) -> u64 {
        match self.below(3) {
            0 => self.pick(&[0, 1, u64::from(u32::MAX), u64::MAX]),
            _ => self.below(1_000_000),
        }
    }

    fn size(&mut self) -> usize {
        self.count() as usize
    }

    fn small(&mut self) -> u32 {
        self.pick(&[0, 1, 7, u32::MAX])
    }

    fn float(&mut self) -> f64 {
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.1,
            1e300,
            5e-324,
            -2.5,
        ];
        match self.below(2) {
            0 => self.pick(&specials),
            _ => f64::from_bits(self.next() >> 2),
        }
    }

    fn outcome(&mut self) -> JobOutcome {
        self.pick(&[JobOutcome::Success, JobOutcome::Failed])
    }

    fn name(&mut self) -> Arc<str> {
        self.text().into()
    }

    /// An event of the kind at `kind`'s position in the stream's list.
    fn event(&mut self, kind: usize) -> TraceEvent {
        let at = self.at();
        let (invocation, job, ce) = (self.count(), JobId(self.count()), CeId(self.size()));
        let tag = self.count();
        match kind {
            0 => TraceEvent::TokenEmitted {
                at,
                processor: self.name(),
                port: self.text(),
                index: self.text(),
            },
            1 => TraceEvent::MatchFired {
                at,
                processor: self.name(),
                index: self.text(),
                inputs: self.size(),
            },
            2 => TraceEvent::GroupComposed {
                at,
                processor: self.name(),
                stages: self.size(),
                commands: self.size(),
            },
            3 => TraceEvent::BarrierReleased {
                at,
                processor: self.name(),
                inputs: self.size(),
            },
            4 => TraceEvent::JobSubmitted {
                at,
                invocation,
                processor: self.name(),
                grid: self.below(2) == 0,
                batched: self.size(),
            },
            5 => TraceEvent::JobResubmitted {
                at,
                invocation,
                processor: self.name(),
                retry: self.small(),
                attempt: self.count(),
            },
            6 => TraceEvent::JobCompleted {
                at,
                invocation,
                processor: self.name(),
                completion: Box::default(),
            },
            7 => TraceEvent::JobFailed {
                at,
                invocation,
                processor: self.name(),
                error: self.text(),
            },
            8 => TraceEvent::JobTimedOut {
                at,
                invocation,
                processor: self.name(),
                timeout_secs: self.float(),
                action: self.pick(&["resubmit", "replicate"]),
            },
            9 => TraceEvent::JobReplicated {
                at,
                invocation,
                processor: self.name(),
                replica: self.small(),
                attempt: self.count(),
            },
            10 => TraceEvent::JobCancelled {
                at,
                invocation,
                processor: self.name(),
                reason: self.pick(&["abort", "superseded", "quote\"d"]),
            },
            11 => TraceEvent::CeBlacklisted {
                at,
                ce: self.size(),
                failures: self.small(),
            },
            12 => TraceEvent::CacheHit {
                at,
                invocation,
                processor: self.name(),
                outputs: self.size(),
                transfer_seconds: self.float(),
            },
            13 => TraceEvent::CacheMiss {
                at,
                invocation,
                processor: self.name(),
            },
            14 => TraceEvent::EdgeStaged {
                at,
                invocation,
                processor: self.name(),
                port: self.text(),
                bytes: self.count(),
            },
            15 => TraceEvent::Grid(SimEvent::JobSubmitted {
                at,
                job,
                tag,
                name: self.text(),
            }),
            16 => TraceEvent::Grid(SimEvent::JobMatched { at, job, tag, ce }),
            17 => TraceEvent::Grid(SimEvent::JobEnqueued {
                at,
                job,
                tag,
                ce,
                attempt: self.small(),
            }),
            18 => TraceEvent::Grid(SimEvent::JobStarted { at, job, tag, ce }),
            19 => TraceEvent::Grid(SimEvent::JobFinished {
                at,
                job,
                tag,
                ce,
                outcome: self.outcome(),
            }),
            20 => TraceEvent::Grid(SimEvent::JobResubmitted {
                at,
                job,
                tag,
                attempt: self.small(),
            }),
            21 => TraceEvent::Grid(SimEvent::JobDelivered {
                at,
                job,
                tag,
                outcome: self.outcome(),
            }),
            22 => TraceEvent::Grid(SimEvent::JobCancelled { at, job, tag }),
            23 => TraceEvent::Grid(SimEvent::CeCapacity {
                at,
                ce,
                busy: self.size(),
                queued: self.size(),
                queued_user: self.size(),
                slots: self.size(),
                up: self.below(2) == 0,
            }),
            24 => TraceEvent::Grid(SimEvent::LinkTransfer {
                at,
                job,
                tag,
                ce,
                bytes_in: self.count(),
                bytes_out: self.count(),
                stage_in_secs: self.float(),
                stage_out_secs: self.float(),
            }),
            25 => TraceEvent::EnactorGauges {
                at,
                inflight: self.size(),
                deferred: self.size(),
                quarantined: self.size(),
                cache_entries: self.size(),
                cache_bytes: self.count(),
            },
            26 => TraceEvent::PortSuspended {
                at,
                processor: self.name(),
                depth: self.size(),
                capacity: self.size(),
            },
            27 => TraceEvent::PortResumed {
                at,
                processor: self.name(),
                depth: self.size(),
                capacity: self.size(),
            },
            _ => TraceEvent::SloBreached {
                at,
                predicted_secs: self.float(),
                projected_secs: self.float(),
                factor: self.float(),
                completed: self.size(),
                expected: self.size(),
            },
        }
    }
}

/// `PER_KIND` seeded events of each of the 29 kinds, kinds interleaved.
fn generated() -> Vec<TraceEvent> {
    let mut gen = Gen(2016);
    (0..29 * PER_KIND).map(|i| gen.event(i % 29)).collect()
}

#[test]
fn every_generated_event_renders_the_oracle_s_bytes() {
    let events = generated();
    assert!(events.len() >= 3_000);
    let mut kinds = std::collections::BTreeSet::new();
    let mut line = String::new();
    for event in &events {
        kinds.insert(event.kind());
        let want = event.oracle_line();
        assert_eq!(event.to_json(), want, "{event:?}");
        // Appending keeps what the buffer held.
        line.clear();
        line.push('x');
        event.write_json(&mut line);
        assert_eq!(&line[1..], want);
    }
    assert_eq!(kinds.len(), 29, "every kind generated: {kinds:?}");
}

/// A writer whose bytes the test reads back.
#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Vec<u8>>>);

impl Write for Shared {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_jsonl_sink_streams_the_oracle_s_lines() {
    let events = generated();
    let want: String = events.iter().map(|e| e.oracle_line() + "\n").collect();
    let out = Shared::default();
    let mut sink = JsonlSink::new(Box::new(out.clone()));
    for event in &events {
        sink.record(event);
    }
    sink.flush().unwrap();
    let got = String::from_utf8(out.0.lock().unwrap().clone()).unwrap();
    assert!(
        got == want,
        "the sink's stream differs from the oracle's lines"
    );
    // A dropped sink hands over what it still holds.
    let out = Shared::default();
    let mut sink = JsonlSink::new(Box::new(out.clone()));
    for event in &events[..7] {
        sink.record(event);
    }
    drop(sink);
    let got = String::from_utf8(out.0.lock().unwrap().clone()).unwrap();
    assert_eq!(got.lines().count(), 7);
    assert!(want.starts_with(&got));
}
