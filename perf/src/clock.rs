//! One clock for the whole harness.
//!
//! Driver-side records ([`crate::timed`]), worker-side records
//! ([`crate::fleet`]) and the library's own telemetry spans
//! ([`crate::trace`]) are all stamped in nanoseconds since one process
//! origin, so a redispatch gap can be cut into contiguous pieces that
//! come from three different recorders.

use std::sync::OnceLock;
use std::time::Instant;

static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the harness origin (fixed at the first call).
pub fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The telemetry-facing view of the same origin: span ends and
/// durations land on the harness clock, in seconds.
#[derive(Debug)]
pub struct HarnessClock;

impl hypertune::telemetry::Clock for HarnessClock {
    fn now(&self) -> f64 {
        now_ns() as f64 * 1e-9
    }
}

/// Seconds (telemetry) to harness nanoseconds.
pub fn secs_to_ns(secs: f64) -> u64 {
    (secs * 1e9).round().max(0.0) as u64
}
