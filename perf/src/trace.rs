//! The traced pass's telemetry sink: keeps every library span on the
//! harness clock and counts the events the per-layer metrics need.
//!
//! The spans are the library's own (`suggest_batch`, `theta_refresh`,
//! `surrogate_fit`, `acquisition`, `scheduler_step`); the harness only
//! switches them on through `ServiceConfig::with_telemetry` /
//! `RunConfig::telemetry` and injects its clock.

use std::sync::{Arc, Mutex};

use hypertune::telemetry::{Event, EventRecord, EventSink, Telemetry, TelemetryHandle};

use crate::clock::{secs_to_ns, HarnessClock};

/// A closed library span on the harness clock.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-3
    }
}

/// Everything one traced round emitted.
#[derive(Debug, Default)]
pub struct TraceData {
    pub suggest_batch: Vec<Span>,
    pub theta_refresh: Vec<Span>,
    pub surrogate_fit: Vec<Span>,
    pub acquisition: Vec<Span>,
    pub scheduler_step: Vec<Span>,
    /// Every record, spans included.
    pub events: u64,
    pub promotions: u64,
    pub promotion_delays: u64,
    pub retries: u64,
    pub quarantined: u64,
}

struct TraceSink(Arc<Mutex<TraceData>>);

impl EventSink for TraceSink {
    fn record(&self, rec: &EventRecord) {
        let mut data = self.0.lock().expect("trace data poisoned");
        data.events += 1;
        match &rec.event {
            Event::SpanClosed { name, duration } => {
                let end_ns = secs_to_ns(rec.time);
                let span = Span {
                    start_ns: end_ns.saturating_sub(secs_to_ns(*duration)),
                    end_ns,
                };
                match name.as_str() {
                    "suggest_batch" => data.suggest_batch.push(span),
                    "theta_refresh" => data.theta_refresh.push(span),
                    "surrogate_fit" => data.surrogate_fit.push(span),
                    "acquisition" => data.acquisition.push(span),
                    "scheduler_step" => data.scheduler_step.push(span),
                    _ => {}
                }
            }
            Event::PromotionMade { .. } => data.promotions += 1,
            Event::PromotionDelayed { .. } => data.promotion_delays += 1,
            Event::TrialRetried { .. } => data.retries += 1,
            Event::TrialQuarantined { .. } => data.quarantined += 1,
            _ => {}
        }
    }
}

/// The telemetry handle of a round: for a traced round an enabled one
/// on the harness clock plus the data its sink fills, otherwise the
/// disabled handle.
pub fn handle(traced: bool) -> (TelemetryHandle, Option<Arc<Mutex<TraceData>>>) {
    if !traced {
        return (TelemetryHandle::disabled(), None);
    }
    let data = Arc::new(Mutex::new(TraceData::default()));
    let handle = Telemetry::new()
        .with_sink(TraceSink(Arc::clone(&data)))
        .with_clock(Arc::new(HarnessClock))
        .build();
    (handle, Some(data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::now_ns;

    #[test]
    fn spans_land_on_the_harness_clock() {
        let (handle, data) = handle(true);
        let data = data.unwrap();
        let before = now_ns();
        {
            let _s = handle.span("suggest_batch");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let after = now_ns();
        handle.emit_with(0.0, || Event::PromotionMade {
            bracket: 0,
            to_level: 1,
        });
        let data = data.lock().unwrap();
        assert_eq!(data.events, 2);
        assert_eq!(data.promotions, 1);
        let span = data.suggest_batch[0];
        assert!(before <= span.start_ns && span.end_ns <= after);
        assert!(span.micros() >= 2000.0);
    }
}
