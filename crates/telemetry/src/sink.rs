//! Pluggable event sinks.
//!
//! A sink receives every [`EventRecord`] emitted through an enabled
//! [`TelemetryHandle`](crate::TelemetryHandle). Sinks take `&self` and
//! must be `Send + Sync`; each ships its own interior mutability so the
//! handle can fan one record out to several sinks without coordination.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::event::EventRecord;

/// A destination for event records.
pub trait EventSink: Send + Sync {
    /// Receives one record. Records arrive in strictly increasing `seq`
    /// order from a single handle.
    fn record(&self, rec: &EventRecord);

    /// Flushes any buffered output. The default is a no-op.
    fn flush(&self) {}
}

/// A bounded in-memory ring buffer keeping the most recent records.
///
/// Cloning the sink clones a handle to the *same* buffer, so a test can
/// keep one clone, hand the other to the telemetry builder, and read
/// back what was recorded via [`RingBufferSink::snapshot`].
#[derive(Debug, Clone)]
pub struct RingBufferSink {
    buf: Arc<Mutex<VecDeque<EventRecord>>>,
    capacity: usize,
}

impl RingBufferSink {
    /// A ring buffer holding at most `capacity` records (oldest evicted
    /// first). A capacity of 0 is bumped to 1.
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: Arc::new(Mutex::new(VecDeque::new())),
            capacity: capacity.max(1),
        }
    }

    /// Copies out the retained records, oldest first.
    pub fn snapshot(&self) -> Vec<EventRecord> {
        self.buf
            .lock()
            .expect("ring buffer lock poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.buf.lock().expect("ring buffer lock poisoned").len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for RingBufferSink {
    fn record(&self, rec: &EventRecord) {
        let mut buf = self.buf.lock().expect("ring buffer lock poisoned");
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(rec.clone());
    }
}

/// Writes one JSON object per line to a file — the format read back by
/// [`replay::read_jsonl`](crate::replay::read_jsonl) and the
/// `trace-report` bin.
#[derive(Debug)]
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self {
            out: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl EventSink for JsonlSink {
    fn record(&self, rec: &EventRecord) {
        let Ok(line) = serde_json::to_string(rec) else {
            return;
        };
        let mut out = self.out.lock().expect("jsonl lock poisoned");
        // Telemetry is best-effort: a full disk should not kill the run.
        let _ = writeln!(out, "{line}");
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("jsonl lock poisoned").flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        EventSink::flush(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn rec(seq: u64) -> EventRecord {
        EventRecord {
            seq,
            time: seq as f64,
            event: Event::PromotionMade {
                bracket: 0,
                to_level: 1,
            },
            tenant: None,
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let sink = RingBufferSink::new(3);
        for s in 0..5 {
            sink.record(&rec(s));
        }
        let got = sink.snapshot();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].seq, 2);
        assert_eq!(got[2].seq, 4);
    }

    #[test]
    fn ring_buffer_clones_share_storage() {
        let a = RingBufferSink::new(8);
        let b = a.clone();
        a.record(&rec(0));
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
    }

    #[test]
    fn jsonl_round_trips_through_file() {
        let dir = std::env::temp_dir().join("hypertune-telemetry-sink-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        {
            let sink = JsonlSink::create(&path).unwrap();
            sink.record(&rec(0));
            sink.record(&rec(1));
        } // drop flushes
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        let first: EventRecord = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        assert_eq!(first.seq, 0);
        std::fs::remove_file(&path).ok();
    }
}
