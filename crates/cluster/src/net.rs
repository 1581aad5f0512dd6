//! The TCP substrate: a driver that dispatches to worker *processes*
//! over sockets, speaking the [`crate::proto`] wire protocol.
//!
//! This is the third execution substrate (after [`crate::SimCluster`]
//! and [`crate::ThreadPool`]) and the first where a worker crash is a
//! real process death rather than a simulated one. It presents the same
//! [`Executor`] surface as the thread pool, so the threaded runner's
//! driver loops run on it unchanged.
//!
//! # Driver side: [`TcpCluster`]
//!
//! [`TcpCluster::connect`] dials a static list of worker addresses and
//! performs the Hello/HelloAck handshake on each. The driver thread owns
//! every socket and reads them itself: each connection keeps its own
//! [`FrameDecoder`], and [`drain_completions`](TcpCluster::drain_completions)
//! decodes what is buffered, then blocks in `poll(2)` on every live
//! socket (plus a wake-up socket the redialer threads ring) until a
//! frame, a hang-up or the earliest lease deadline arrives; `poll` makes
//! the substrate Unix-only. Everything the driver sends a worker goes
//! through that connection's out-buffer,
//! written at once when the worker is idle and otherwise with one
//! `write_all` at the top of the next
//! [`drain_completions`](TcpCluster::drain_completions) (DESIGN.md
//! §16.2). Each worker
//! advertises a slot count in its `HelloAck` (`--slots N` on the worker
//! binary), and the driver keeps up to that many `Dispatch` frames in
//! flight per connection — capacity is the sum of slots across live
//! workers, and `submit` picks the least-loaded live worker. At one slot
//! per worker this degenerates to the old strictly synchronous
//! one-round-trip-per-eval scheme. A worker may advertise at most
//! [`proto::MAX_SLOTS`]; a larger count fails the handshake.
//!
//! Every frame, the handshake's included, uses the one encoding of
//! [`crate::proto`]; there is nothing to negotiate. A peer that sends a
//! frame of another protocol version is refused on that frame with
//! [`ProtoError::BadVersion`].
//!
//! Failure semantics, mirroring the in-process substrates:
//!
//! - **Disconnect** (EOF, reset, or any framing error on the read path):
//!   the worker is dead immediately. Every job pending on it surfaces as
//!   [`JobStatus::Orphaned`] from `next_completion`, capacity shrinks by
//!   its slot count, and a `WorkerLeft` event is emitted. By default
//!   ([`ReconnectPolicy::disabled`]) that Leave is permanent. With a
//!   [`ReconnectPolicy`] configured, the driver also starts a background
//!   *redial loop* for the address: exponential backoff with seeded
//!   jitter, capped attempts, give-up → permanent Leave. A successful
//!   redial re-handshakes with a bumped **session epoch** (the `"_epoch"`
//!   key in the `Hello` payload, echoed in the `HelloAck`), restores the
//!   worker's capacity, and emits `WorkerReconnected` + `WorkerJoined`.
//!   Orphaning is unchanged either way — a redial never resurrects jobs,
//!   it only restores capacity for their retries.
//! - **Missed heartbeats**: every worker beacons on a timer even while
//!   evaluating. If nothing (result or heartbeat) arrives from a worker
//!   with pending jobs for longer than the lease timeout, the driver
//!   sends a best-effort [`Frame::Cancel`] per pending job, tears the
//!   connection down, and orphans them all the same way.
//! - **Stale results**: once a job is orphaned its id is retired; a
//!   `Result` frame for a retired id (e.g. the cancel lost the race) is
//!   counted under `net.stale_results` and dropped, never surfaced —
//!   this is the driver-side half of the exactly-once argument
//!   (DESIGN.md §16).
//! - **Session epochs**: frames are decoded only from the live
//!   session's own socket, and killing a worker drops its decoder with
//!   whatever it still held, so nothing a pre-partition session sent —
//!   heartbeats, cancel acks, results — can reach the post-redial
//!   session's state; the redial handshake checks the epoch echo. With
//!   job-id retirement fencing `Result`s, that is why a result from
//!   before a partition can never double-book a trial (DESIGN.md §16.4).
//! - **Worker-initiated `Cancel`**: a worker draining on `Shutdown`
//!   acknowledges each queued-but-unrun dispatch with a `Cancel` frame.
//!   The driver reclaims the job immediately as an orphan
//!   (`net.cancel_acks`) instead of waiting for the disconnect or lease.
//!
//! Orphaned jobs hold no capacity slot, exactly like the other
//! substrates, so the retry policy can re-dispatch them to surviving
//! workers at once.
//!
//! # Worker side: [`serve_worker`]
//!
//! [`serve_worker`] is the accept loop behind the `hypertune-worker`
//! binary. Per session it reads `Hello`, asks the caller's factory for
//! an evaluator (rejecting the session via `HelloAck` on factory error),
//! then serves `Dispatch` frames pipelined on one session thread: it
//! decodes every buffered frame into a FIFO queue (a `Cancel` removes a
//! queued job), checks its socket with a zero-timeout `poll` before each
//! evaluation so a `Cancel` or `Shutdown` that arrived meanwhile applies
//! first, evaluates the oldest job and writes its `Result`, and blocks
//! in `read` only when the queue is empty. A heartbeat thread beacons on
//! a timer. Both share the write half behind a mutex — each frame is
//! encoded into a per-connection scratch buffer and written with one
//! `write_all` under the lock, so frames never interleave and
//! steady-state framing is allocation-free.
//!
//! On `Shutdown` — read between evaluations, so the one before it has
//! already sent its `Result` — the session acknowledges every queued
//! job with a `Cancel` frame and closes the socket.
//!
//! One thread evaluating in queue order means completion order equals
//! dispatch order no matter the slot count — which is what keeps
//! multi-slot runs reproducible (see `crates/hypertune/tests/distributed.rs`).
//!
//! The worker is intentionally typeless: jobs and outputs cross it as
//! [`serde::Value`] trees, so one worker binary can serve any benchmark
//! the handshake names.
//!
//! # Telemetry
//!
//! With a handle attached ([`TcpCluster::set_telemetry`]) the driver
//! emits `net.*` counters (`dispatches`, `results`, `stale_results`,
//! `heartbeats`, `cancels`, `cancel_acks`, `disconnects`, `read_errors`,
//! `protocol_violations`, `bad_outputs`, `reconnects`, `redial_gaveup`), latency
//! histograms (`net.job_rtt_ms` dispatch→result, `net.heartbeat_gap_ms`
//! between liveness signals, `net.batch_size` dispatches per scheduler
//! round), per-worker completion gauges, and the same
//! `WorkerJoined`/`WorkerLeft` membership events the elastic substrates
//! produce.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown as SockShutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use hypertune_telemetry::{Event, TelemetryHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Number, Serialize, Value};

use crate::executor::{Executor, PoolResult};
use crate::poll::{self, PollFd};
use crate::proto::{self, Codec, Frame, FrameDecoder, FrameEncoder, ProtoError};
use crate::sim::{ClusterError, JobStatus};

/// Knobs for the driver side of the TCP substrate.
#[derive(Debug, Clone)]
pub struct TcpClusterOptions {
    /// How long a worker with pending jobs may stay silent (no result,
    /// no heartbeat) before the driver cancels and orphans them.
    /// Must comfortably exceed the worker heartbeat interval.
    pub lease_timeout: Duration,
    /// Redial behaviour after a worker connection drops. The default
    /// ([`ReconnectPolicy::disabled`]) keeps the historical semantics:
    /// disconnect = permanent Leave.
    pub reconnect: ReconnectPolicy,
    /// Per-attempt bound on dialing *and* on the handshake reads that
    /// follow (so a black-holed address cannot hang `connect` or a
    /// redial). `None` uses the OS defaults and blocks indefinitely.
    pub connect_timeout: Option<Duration>,
    /// Extra initial-dial attempts per address in [`TcpCluster::connect`]
    /// beyond the first, paced [`CONNECT_RETRY_PAUSE`] apart. Only
    /// connection-level failures retry; a handshake *rejection* (or a
    /// peer speaking another protocol) is a definitive answer and still
    /// fails fast. 0 (the default) keeps the
    /// historical fail-fast startup.
    pub connect_retries: u32,
}

impl Default for TcpClusterOptions {
    fn default() -> Self {
        Self {
            lease_timeout: Duration::from_secs(10),
            reconnect: ReconnectPolicy::disabled(),
            connect_timeout: None,
            connect_retries: 0,
        }
    }
}

/// Pause between bounded initial-dial retries in [`TcpCluster::connect`].
pub const CONNECT_RETRY_PAUSE: Duration = Duration::from_millis(50);

/// Driver-side redial behaviour after a worker connection drops.
///
/// Attempt `n` (1-based) sleeps `base_backoff * 2^(n-1)` capped at
/// `max_backoff`, plus a jitter drawn uniformly from `[0, backoff/2]` by
/// an RNG seeded from `jitter_seed`, the worker index, and the session
/// epoch — so a drill replays the same dial schedule exactly. Exhausting
/// `max_attempts` makes the Leave permanent (`net.redial_gaveup`).
#[derive(Debug, Clone)]
pub struct ReconnectPolicy {
    /// Redial attempts before giving up; 0 disables redialing entirely.
    pub max_attempts: u32,
    /// Backoff before the first attempt; doubles per attempt.
    pub base_backoff: Duration,
    /// Cap on the per-attempt backoff.
    pub max_backoff: Duration,
    /// Seed for the backoff jitter (mixed with worker index and epoch).
    pub jitter_seed: u64,
}

impl ReconnectPolicy {
    /// No redialing: disconnect = permanent Leave (the default, and the
    /// pre-epoch behaviour).
    pub fn disabled() -> Self {
        Self {
            max_attempts: 0,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(2),
            jitter_seed: 0,
        }
    }

    /// A sensible production-ish policy: `attempts` dials starting at
    /// 100ms backoff, capped at 2s, jittered from `seed`.
    pub fn with_attempts(attempts: u32, seed: u64) -> Self {
        Self {
            max_attempts: attempts,
            jitter_seed: seed,
            ..Self::disabled()
        }
    }
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        Self::disabled()
    }
}

/// What a redialer thread reports back to the driver.
enum NetEvent {
    /// A redialer re-established worker `worker` at session `epoch`:
    /// the handshaken connection and how many dials it took.
    Redialed {
        worker: usize,
        epoch: u64,
        session: Session,
        attempts: u32,
    },
    /// A redialer exhausted its attempts; the Leave is now permanent.
    RedialFailed { worker: usize, attempts: u32 },
}

/// A connection fresh out of the Hello/HelloAck handshake.
struct Session {
    stream: TcpStream,
    /// Slot count from the `HelloAck` (1 to [`proto::MAX_SLOTS`]).
    slots: usize,
    /// The decoder that read the `HelloAck`. It may already hold bytes
    /// that arrived behind the ack, so the connection keeps reading
    /// with it rather than a fresh one.
    dec: FrameDecoder,
}

/// How a redialer thread hands its outcome to the driver: the event on
/// the channel, then one byte on the wake-up socket the driver polls.
#[derive(Clone)]
struct RedialPost {
    tx: Sender<NetEvent>,
    wake: Arc<UnixStream>,
}

impl RedialPost {
    fn send(&self, event: NetEvent) {
        let _ = self.tx.send(event);
        let _ = (&*self.wake).write_all(&[1]);
    }
}

/// A job awaiting its `Result` frame.
struct Pending<J> {
    job_id: u64,
    job: J,
    sent: Instant,
}

/// Driver-side state for one worker connection.
struct WorkerConn<J> {
    addr: String,
    stream: TcpStream,
    /// Bytes read from `stream` and not yet decoded. Replaced when the
    /// worker dies, so nothing a dead session sent is ever decoded.
    dec: FrameDecoder,
    alive: bool,
    /// In-flight jobs, in dispatch order; at most `slots` of them.
    pending: Vec<Pending<J>>,
    /// Concurrent dispatch capacity advertised in the `HelloAck`.
    slots: usize,
    /// Encoded driver→worker frames not yet written. Every outgoing
    /// frame passes through here, so wire order is enqueue order.
    out: Vec<u8>,
    /// Last time anything (handshake, heartbeat, result) arrived.
    last_seen: Instant,
    completed: u64,
    /// `net.worker<idx>.completed`, built once per connection slot.
    completed_key: String,
    /// Session epoch: 0 for the startup connection, bumped per redial.
    epoch: u64,
    /// A redialer thread is currently working this address.
    redialing: bool,
}

impl<J> WorkerConn<J> {
    /// Appends `frame` to the out-buffer. Every driver→worker frame
    /// (`Dispatch`, `Cancel`, `Shutdown`) takes this path, so the bytes
    /// reach the wire in the order the frames were produced.
    fn enqueue(&mut self, enc: &mut FrameEncoder, frame: &Frame) {
        self.out.extend_from_slice(enc.encode(frame));
    }

    /// Writes everything buffered with one `write_all`.
    fn flush(&mut self) -> std::io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        let written = self.stream.write_all(&self.out);
        self.out.clear();
        written
    }
}

/// A cluster of worker processes reached over TCP, presenting the same
/// submit/complete contract as [`crate::ThreadPool`]. See the module
/// docs for lifecycle and failure semantics.
pub struct TcpCluster<J, O> {
    workers: Vec<WorkerConn<J>>,
    /// Redialer outcomes: the channel's only traffic.
    redials: Receiver<NetEvent>,
    /// What each redialer thread gets a clone of.
    post: RedialPost,
    /// Read end of the wake-up pair: readable once a redialer posted.
    wake: UnixStream,
    /// The `poll` set, rebuilt in place per wait: the wake-up socket,
    /// then one entry per worker (a negative fd while it is dead).
    fds: Vec<PollFd>,
    lease: Duration,
    next_job_id: u64,
    in_flight: usize,
    /// Total slots across live workers.
    capacity: usize,
    /// Ready-to-surface orphan results, drained before anything else.
    orphans: VecDeque<PoolResult<J, O>>,
    /// Shared encode scratch buffer for every outgoing frame.
    enc: FrameEncoder,
    /// Dispatches since the last drain, recorded into the
    /// `net.batch_size` histogram.
    batch: u64,
    telemetry: TelemetryHandle,
    joins_emitted: bool,
    /// The caller's hello payload, undecorated — redials re-decorate it
    /// with a fresh `_epoch` key per dial.
    hello: Value,
    reconnect: ReconnectPolicy,
    connect_timeout: Option<Duration>,
    /// Redialer threads still working an address. Quiescence waits for
    /// them: capacity may come back.
    redialing: usize,
    redial_handles: Vec<JoinHandle<()>>,
    /// Tells redialer threads to stop sleeping/dialing (set on drop).
    stop_redial: Arc<AtomicBool>,
}

impl<J, O> TcpCluster<J, O>
where
    J: Serialize,
    O: Deserialize,
{
    /// Dials every address and handshakes with `hello`. By default it
    /// fails fast on the first address that cannot be reached or rejects
    /// the handshake — a partial cluster at startup is an operator
    /// error, unlike churn later. [`TcpClusterOptions::connect_timeout`]
    /// bounds each dial (and its handshake reads), and
    /// [`TcpClusterOptions::connect_retries`] retries connection-level
    /// failures a bounded number of times; rejections, a worker
    /// advertising more than [`proto::MAX_SLOTS`] and a peer speaking
    /// another protocol version never retry.
    ///
    /// Object hellos carry the session epoch as `"_epoch"` (0 at
    /// startup, bumped per redial).
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty.
    pub fn connect<A>(
        addrs: &[A],
        hello: Value,
        opts: TcpClusterOptions,
    ) -> Result<Self, ProtoError>
    where
        A: ToSocketAddrs + std::fmt::Display,
    {
        assert!(!addrs.is_empty(), "cluster needs at least one worker");
        let (tx, rx) = unbounded();
        let (wake_tx, wake) = UnixStream::pair()?;
        let mut workers = Vec::with_capacity(addrs.len());
        let mut capacity = 0;
        for (idx, addr) in addrs.iter().enumerate() {
            let addr = addr.to_string();
            let mut attempt = 0u32;
            let session = loop {
                match dial_worker(&addr, &hello, 0, opts.connect_timeout) {
                    Ok(ok) => break ok,
                    // A handshake rejection (or a peer speaking
                    // something else) is a definitive answer.
                    Err(e @ (ProtoError::Garbage(_) | ProtoError::BadVersion { .. })) => {
                        return Err(e)
                    }
                    Err(e) => {
                        attempt += 1;
                        if attempt > opts.connect_retries {
                            return Err(e);
                        }
                        std::thread::sleep(CONNECT_RETRY_PAUSE);
                    }
                }
            };
            capacity += session.slots;
            workers.push(WorkerConn {
                addr,
                stream: session.stream,
                dec: session.dec,
                alive: true,
                pending: Vec::with_capacity(session.slots),
                slots: session.slots,
                out: Vec::new(),
                last_seen: Instant::now(),
                completed: 0,
                completed_key: format!("net.worker{idx}.completed"),
                epoch: 0,
                redialing: false,
            });
        }
        Ok(Self {
            fds: Vec::with_capacity(workers.len() + 1),
            workers,
            redials: rx,
            post: RedialPost {
                tx,
                wake: Arc::new(wake_tx),
            },
            wake,
            lease: opts.lease_timeout,
            next_job_id: 0,
            in_flight: 0,
            capacity,
            orphans: VecDeque::new(),
            enc: FrameEncoder::new(Codec::Binary),
            batch: 0,
            telemetry: TelemetryHandle::disabled(),
            joins_emitted: false,
            hello,
            reconnect: opts.reconnect,
            connect_timeout: opts.connect_timeout,
            redialing: 0,
            redial_handles: Vec::new(),
            stop_redial: Arc::new(AtomicBool::new(false)),
        })
    }

    /// Attaches a telemetry handle. The first attachment replays one
    /// `WorkerJoined` per live connection (connect = Join happened
    /// before any handle existed).
    pub fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.telemetry = telemetry;
        if !self.joins_emitted {
            self.joins_emitted = true;
            let mut n_alive = 0;
            for (idx, w) in self.workers.iter().enumerate() {
                if w.alive {
                    n_alive += 1;
                    self.telemetry.emit_now_with(|| Event::WorkerJoined {
                        worker: idx,
                        n_alive,
                    });
                }
            }
            self.telemetry
                .gauge_set("net.workers_alive", self.capacity as f64);
        }
    }

    /// Total dispatch capacity: the sum of slots across live workers.
    pub fn n_workers(&self) -> usize {
        self.capacity
    }

    /// Jobs dispatched and not yet completed or orphaned.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Free slots on live workers.
    pub fn idle_workers(&self) -> usize {
        self.capacity.saturating_sub(self.in_flight)
    }

    /// Address of worker `idx` as given at connect time (for logs).
    pub fn worker_addr(&self, idx: usize) -> &str {
        &self.workers[idx].addr
    }

    /// Submits a job to the least-loaded live worker with a free slot;
    /// errors when every slot is busy.
    ///
    /// A dispatch to a worker with nothing pending and nothing buffered
    /// is written at once — it has nothing else to do. A dispatch to a
    /// busy worker is appended to that connection's out-buffer and goes
    /// out, with everything else buffered for it, in one `write_all` at
    /// the top of the next [`drain_completions`](Self::drain_completions)
    /// / [`next_completion`](Self::next_completion) — that is, always
    /// before the driver can block.
    ///
    /// If a write fails the connection is dead: the submit still
    /// succeeds and the job (plus anything else pending there) surfaces
    /// as [`JobStatus::Orphaned`] (mirroring a dispatch onto a crashing
    /// worker in the other substrates).
    pub fn submit(&mut self, job: J) -> Result<(), ClusterError> {
        let idx = self
            .workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.alive && w.pending.len() < w.slots)
            .min_by_key(|&(i, w)| (w.pending.len(), i))
            .map(|(i, _)| i)
            .ok_or(ClusterError::NoIdleWorker)?;
        let job_id = self.next_job_id;
        self.next_job_id += 1;
        let payload = serde_json::to_value(&job);
        let w = &self.workers[idx];
        let idle = w.pending.is_empty() && w.out.is_empty();
        self.workers[idx].enqueue(&mut self.enc, &Frame::Dispatch { job_id, payload });
        if idle && self.workers[idx].flush().is_err() {
            self.kill_and_orphan(idx);
            self.maybe_spawn_redialer(idx);
            self.orphans.push_back(PoolResult {
                job,
                output: None,
                status: JobStatus::Orphaned,
                worker: idx,
            });
            return Ok(());
        }
        self.workers[idx].pending.push(Pending {
            job_id,
            job,
            sent: Instant::now(),
        });
        self.in_flight += 1;
        self.batch += 1;
        self.telemetry.counter_add("net.dispatches", 1);
        Ok(())
    }

    /// Flushes every live connection's out-buffer; a failed write kills
    /// the worker and orphans what was pending on it, exactly as a
    /// failed immediate write does.
    fn flush_dispatches(&mut self) {
        for idx in 0..self.workers.len() {
            if self.workers[idx].alive && self.workers[idx].flush().is_err() {
                self.kill_and_orphan(idx);
                self.maybe_spawn_redialer(idx);
            }
        }
    }

    /// Starts a background redial loop for dead worker `idx`, if the
    /// policy allows and one is not already running. The redialer
    /// handshakes with the *next* session epoch; the driver applies the
    /// result when the wake-up socket rings inside a drain.
    fn maybe_spawn_redialer(&mut self, idx: usize) {
        if self.reconnect.max_attempts == 0 {
            return;
        }
        let w = &mut self.workers[idx];
        if w.alive || w.redialing {
            return;
        }
        w.redialing = true;
        self.redialing += 1;
        let addr = w.addr.clone();
        let epoch = w.epoch + 1;
        let hello = self.hello.clone();
        let policy = self.reconnect.clone();
        let connect_timeout = self.connect_timeout;
        let post = self.post.clone();
        let stop = Arc::clone(&self.stop_redial);
        self.redial_handles.push(std::thread::spawn(move || {
            redial_loop(idx, addr, hello, epoch, policy, connect_timeout, post, stop)
        }));
    }

    /// Marks a worker dead: shuts its socket both ways, drops whatever
    /// its decoder still held, shrinks capacity by its slots, and emits
    /// membership telemetry. Pending-job handling is the caller's job.
    fn kill_worker(&mut self, idx: usize) {
        let w = &mut self.workers[idx];
        if !w.alive {
            return;
        }
        w.alive = false;
        w.out.clear();
        w.dec = FrameDecoder::new();
        let _ = w.stream.shutdown(SockShutdown::Both);
        self.capacity -= w.slots;
        let n_alive = self.capacity;
        self.telemetry.counter_add("net.disconnects", 1);
        self.telemetry
            .gauge_set("net.workers_alive", n_alive as f64);
        self.telemetry.emit_now_with(|| Event::WorkerLeft {
            worker: idx,
            n_alive,
        });
    }

    /// Kills worker `idx` and queues every job pending on it as an
    /// orphan result. The job ids are retired: a late `Result` for any
    /// of them is stale by construction.
    fn kill_and_orphan(&mut self, idx: usize) {
        let drained: Vec<Pending<J>> = self.workers[idx].pending.drain(..).collect();
        for p in drained {
            self.in_flight -= 1;
            self.orphans.push_back(PoolResult {
                job: p.job,
                output: None,
                status: JobStatus::Orphaned,
                worker: idx,
            });
        }
        self.kill_worker(idx);
    }

    /// Blocks until the next job completes or orphans; returns
    /// [`ClusterError::Quiescent`] when nothing is pending anywhere.
    /// This is [`drain_completions`](Self::drain_completions) with
    /// `max = 1`.
    pub fn next_completion(&mut self) -> Result<PoolResult<J, O>, ClusterError> {
        let mut one = Vec::with_capacity(1);
        self.drain_completions(&mut one, 1)?;
        Ok(one.pop().expect("a successful drain yields a completion"))
    }

    /// Blocks for the first completion, then appends to `out`, in
    /// arrival order, everything else that is already here, up to `max`
    /// in total; returns how many it appended. Orphans queued by earlier
    /// calls come first. [`ClusterError::Quiescent`] (nothing appended)
    /// when nothing is pending anywhere.
    ///
    /// Buffered dispatches (see [`submit`](Self::submit)) are written
    /// first. Each pass then takes queued orphans and every frame the
    /// connections' decoders already hold. Once something is taken, one
    /// zero-timeout `poll` sweep picks up whatever else has arrived and
    /// the call returns; until then it sweeps leases and blocks in `poll`
    /// on every live socket, waking at the earliest lease deadline.
    pub fn drain_completions(
        &mut self,
        out: &mut Vec<PoolResult<J, O>>,
        max: usize,
    ) -> Result<usize, ClusterError> {
        if max == 0 {
            return Ok(0);
        }
        // One scheduler round's worth of submits has landed; record how
        // wide the dispatch batch was.
        if self.batch > 0 {
            self.telemetry
                .histogram_record("net.batch_size", self.batch as f64);
            self.batch = 0;
        }
        self.flush_dispatches();
        let before = out.len();
        let limit = before.saturating_add(max);
        let mut swept = false;
        loop {
            while out.len() < limit {
                let Some(r) = self.orphans.pop_front() else {
                    break;
                };
                out.push(r);
            }
            self.take_buffered(out, limit);
            let taken = out.len() - before;
            if out.len() == limit || (taken > 0 && swept) {
                return Ok(taken);
            }
            if taken > 0 {
                // Results in hand: take what else is readable right
                // now, never wait for more.
                swept = true;
                self.sweep(Some(Duration::ZERO));
                continue;
            }
            // Lease sweep: a silent worker with pending jobs is dead to
            // us once the lease runs out.
            let now = Instant::now();
            let mut expired = false;
            for idx in 0..self.workers.len() {
                let w = &self.workers[idx];
                if w.alive && !w.pending.is_empty() && now.duration_since(w.last_seen) >= self.lease
                {
                    self.expire_lease(idx);
                    expired = true;
                }
            }
            if expired {
                continue;
            }
            // Quiescence must wait out live redialers: capacity may come
            // back, and the caller re-checks for parked work when it
            // does (the runners resume dispatching on a restored fleet).
            if self.in_flight == 0 && self.redialing == 0 {
                return Err(ClusterError::Quiescent);
            }
            // Block until something arrives, but wake at the earliest
            // lease deadline so silence is noticed.
            let deadline = self
                .workers
                .iter()
                .filter(|w| w.alive && !w.pending.is_empty())
                .map(|w| w.last_seen + self.lease)
                .min();
            self.sweep(deadline.map(|d| d.saturating_duration_since(now)));
        }
    }

    /// Decodes every frame the live connections already hold, appending
    /// the completions they carry to `out` while it is shorter than
    /// `limit`.
    fn take_buffered(&mut self, out: &mut Vec<PoolResult<J, O>>, limit: usize) {
        for idx in 0..self.workers.len() {
            while out.len() < limit && self.workers[idx].alive {
                match self.workers[idx].dec.buffered() {
                    Ok(Some(frame)) => out.extend(self.handle_frame(idx, frame)),
                    Ok(None) => break,
                    Err(reason) => self.disconnect(idx, reason),
                }
            }
        }
    }

    /// One `poll` over the wake-up socket and every live connection,
    /// waiting up to `timeout` (`None`: until something is ready). Reads
    /// each ready socket once, killing the worker on a hang-up or read
    /// error, and applies the redial outcomes that rang the wake-up.
    fn sweep(&mut self, timeout: Option<Duration>) {
        self.fds.clear();
        self.fds.push(PollFd::readable(self.wake.as_raw_fd()));
        self.fds.extend(
            self.workers
                .iter()
                .map(|w| PollFd::readable(if w.alive { w.stream.as_raw_fd() } else { -1 })),
        );
        if poll::wait(&mut self.fds, timeout).unwrap_or(0) == 0 {
            return;
        }
        if self.fds[0].ready() {
            let _ = (&self.wake).read(&mut [0u8; 64]);
            while let Ok(event) = self.redials.try_recv() {
                self.apply_redial(event);
            }
        }
        for idx in 0..self.workers.len() {
            if !self.fds[idx + 1].ready() {
                continue;
            }
            let w = &mut self.workers[idx];
            let reason = match w.dec.read_some(&mut w.stream) {
                Ok(0) => w.dec.eof(),
                Ok(_) => continue,
                Err(e) => e,
            };
            self.disconnect(idx, reason);
        }
    }

    /// Worker `idx`'s read path failed: a clean EOF, or a framing or
    /// socket error. Both kill the worker, but only the latter is a read
    /// fault.
    fn disconnect(&mut self, idx: usize, reason: ProtoError) {
        if !matches!(reason, ProtoError::Closed) {
            self.telemetry.counter_add("net.read_errors", 1);
        }
        self.kill_and_orphan(idx);
        self.maybe_spawn_redialer(idx);
    }

    /// Gives up on silent worker `idx`: a best-effort `Cancel` per
    /// pending job (the worker may be hung, not gone), then the
    /// connection is killed and the jobs orphaned. Either way the ids
    /// are retired and any late result is stale.
    fn expire_lease(&mut self, idx: usize) {
        let ids: Vec<u64> = self.workers[idx].pending.iter().map(|p| p.job_id).collect();
        for job_id in ids {
            self.workers[idx].enqueue(&mut self.enc, &Frame::Cancel { job_id });
            self.telemetry.counter_add("net.cancels", 1);
        }
        let _ = self.workers[idx].flush();
        self.kill_and_orphan(idx);
        self.maybe_spawn_redialer(idx);
    }

    /// Applies one redialer outcome to the driver's state.
    fn apply_redial(&mut self, event: NetEvent) {
        match event {
            NetEvent::Redialed {
                worker,
                epoch,
                session,
                attempts,
            } => {
                self.redialing -= 1;
                self.workers[worker].redialing = false;
                if self.workers[worker].alive {
                    // Unreachable (only dead workers redial), but a
                    // stray success must not corrupt a live session.
                    return;
                }
                let w = &mut self.workers[worker];
                w.stream = session.stream;
                w.dec = session.dec;
                w.alive = true;
                w.slots = session.slots;
                w.epoch = epoch;
                w.last_seen = Instant::now();
                self.capacity += session.slots;
                let n_alive = self.capacity;
                self.telemetry.counter_add("net.reconnects", 1);
                self.telemetry
                    .gauge_set("net.workers_alive", n_alive as f64);
                self.telemetry.emit_now_with(|| Event::WorkerReconnected {
                    worker,
                    epoch,
                    attempts: attempts as usize,
                });
                self.telemetry
                    .emit_now_with(|| Event::WorkerJoined { worker, n_alive });
            }
            NetEvent::RedialFailed { worker, attempts } => {
                self.redialing -= 1;
                self.workers[worker].redialing = false;
                self.telemetry.counter_add("net.redial_gaveup", 1);
                self.telemetry.emit_now_with(|| Event::RedialGaveUp {
                    worker,
                    attempts: attempts as usize,
                });
            }
        }
    }

    /// Applies one frame decoded from live worker `worker`'s socket;
    /// returns the completion it carried, if any.
    fn handle_frame(&mut self, worker: usize, frame: Frame) -> Option<PoolResult<J, O>> {
        let now = Instant::now();
        let gap = now.duration_since(self.workers[worker].last_seen);
        self.workers[worker].last_seen = now;
        match frame {
            Frame::Heartbeat { .. } => {
                self.telemetry.counter_add("net.heartbeats", 1);
                self.telemetry
                    .histogram_record("net.heartbeat_gap_ms", gap.as_secs_f64() * 1e3);
                None
            }
            Frame::Result {
                job_id,
                status,
                output,
            } => {
                let Some(p) = self.take_pending(worker, job_id) else {
                    // Retired id (orphaned then re-dispatched elsewhere):
                    // drop, never double-count.
                    self.telemetry.counter_add("net.stale_results", 1);
                    return None;
                };
                let w = &mut self.workers[worker];
                w.completed += 1;
                self.telemetry.counter_add("net.results", 1);
                self.telemetry.histogram_record(
                    "net.job_rtt_ms",
                    now.duration_since(p.sent).as_secs_f64() * 1e3,
                );
                self.telemetry
                    .gauge_set(&w.completed_key, w.completed as f64);
                let (status, output) = if output.is_null() {
                    (status, None)
                } else {
                    match O::from_value(&output) {
                        Ok(o) => (status, Some(o)),
                        Err(_) => {
                            // Undecodable payload: demote to a plain
                            // failure so no caller trusts it.
                            self.telemetry.counter_add("net.bad_outputs", 1);
                            (JobStatus::Errored, None)
                        }
                    }
                };
                Some(PoolResult {
                    job: p.job,
                    output,
                    status,
                    worker,
                })
            }
            Frame::Cancel { job_id } => {
                // The worker is draining: it dropped this queued job
                // without running it. Reclaim it now instead of waiting
                // for the disconnect.
                let Some(p) = self.take_pending(worker, job_id) else {
                    self.telemetry.counter_add("net.stale_results", 1);
                    return None;
                };
                self.telemetry.counter_add("net.cancel_acks", 1);
                Some(PoolResult {
                    job: p.job,
                    output: None,
                    status: JobStatus::Orphaned,
                    worker,
                })
            }
            _ => {
                // A frame only drivers may send: the peer is not speaking
                // our protocol. Tear it down.
                self.telemetry.counter_add("net.protocol_violations", 1);
                self.kill_and_orphan(worker);
                None
            }
        }
    }

    /// Removes job `job_id` from worker `worker`'s pending set, freeing
    /// its slot; `None` for an id that is not (or no longer) live there.
    fn take_pending(&mut self, worker: usize, job_id: u64) -> Option<Pending<J>> {
        let pending = &mut self.workers[worker].pending;
        let pos = pending.iter().position(|p| p.job_id == job_id)?;
        self.in_flight -= 1;
        Some(pending.remove(pos))
    }
}

impl<J, O> Executor<J, O> for TcpCluster<J, O>
where
    J: Serialize,
    O: Deserialize,
{
    fn submit(&mut self, job: J) -> Result<(), ClusterError> {
        TcpCluster::submit(self, job)
    }

    fn next_completion(&mut self) -> Result<PoolResult<J, O>, ClusterError> {
        TcpCluster::next_completion(self)
    }

    fn drain_completions(
        &mut self,
        out: &mut Vec<PoolResult<J, O>>,
        max: usize,
    ) -> Result<usize, ClusterError> {
        TcpCluster::drain_completions(self, out, max)
    }

    fn n_workers(&self) -> usize {
        TcpCluster::n_workers(self)
    }

    fn in_flight(&self) -> usize {
        TcpCluster::in_flight(self)
    }

    fn idle_workers(&self) -> usize {
        TcpCluster::idle_workers(self)
    }

    fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        TcpCluster::set_telemetry(self, telemetry)
    }
}

impl<J, O> Drop for TcpCluster<J, O> {
    fn drop(&mut self) {
        // Stop background redialers first: a redial landing mid-teardown
        // would hand us a stream nobody will ever read.
        self.stop_redial.store(true, Ordering::Relaxed);
        for h in self.redial_handles.drain(..) {
            let _ = h.join();
        }
        for w in &mut self.workers {
            if w.alive {
                // Polite goodbye — behind whatever dispatches are still
                // buffered, through the same out-buffer — then force the
                // socket down either way.
                w.enqueue(&mut self.enc, &Frame::Shutdown);
                let _ = w.flush();
                let _ = w.stream.shutdown(SockShutdown::Both);
            }
        }
    }
}

/// Builds the on-the-wire hello for a session: the caller's payload plus
/// the `"_epoch"` session tag. Non-object hellos are sent as-is — they
/// cannot carry the key, which a worker treats as epoch 0.
fn decorate_hello(hello: &Value, epoch: u64) -> Value {
    let mut decorated = hello.clone();
    if let Value::Object(map) = &mut decorated {
        map.insert("_epoch".to_string(), Value::Number(Number::PosInt(epoch)));
    }
    decorated
}

/// Dials one worker and runs the Hello/HelloAck handshake for session
/// `epoch`. Returns the connected [`Session`]: stream, the worker's
/// advertised slot count, and the decoder the connection must keep
/// reading with. `timeout` bounds both the TCP connect and the handshake
/// reads (cleared before returning); `None` blocks on OS defaults. A
/// handshake rejection, a mismatched epoch echo, a slot count above
/// [`proto::MAX_SLOTS`], or an unexpected first frame all come back as
/// [`ProtoError::Garbage`], and an ack of another protocol version as
/// [`ProtoError::BadVersion`] — definitive answers the caller must not
/// retry.
fn dial_worker(
    addr: &str,
    hello: &Value,
    epoch: u64,
    timeout: Option<Duration>,
) -> Result<Session, ProtoError> {
    let mut stream = match timeout {
        None => TcpStream::connect(addr)?,
        Some(t) => {
            // `connect_timeout` wants a resolved SocketAddr; try each
            // resolution like `TcpStream::connect` would.
            let mut last_err: Option<std::io::Error> = None;
            let mut connected = None;
            for sock in addr.to_socket_addrs()? {
                match TcpStream::connect_timeout(&sock, t) {
                    Ok(s) => {
                        connected = Some(s);
                        break;
                    }
                    Err(e) => last_err = Some(e),
                }
            }
            match connected {
                Some(s) => s,
                None => {
                    return Err(ProtoError::from(last_err.unwrap_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidInput,
                            format!("{addr}: no addresses resolved"),
                        )
                    })))
                }
            }
        }
    };
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(timeout).ok();
    let frame = Frame::Hello {
        payload: decorate_hello(hello, epoch),
    };
    proto::write_frame(&mut stream, &frame)?;
    let mut dec = FrameDecoder::new();
    let ack = dec.read_ahead(&mut stream)?;
    let slots = match ack {
        Frame::HelloAck {
            slots,
            error: None,
            epoch: acked,
        } => {
            if let Some(acked) = acked {
                if acked != epoch {
                    return Err(ProtoError::Garbage(format!(
                        "{addr}: handshake echoed epoch {acked}, offered {epoch}"
                    )));
                }
            }
            if slots > proto::MAX_SLOTS {
                return Err(ProtoError::Garbage(format!(
                    "{addr}: handshake offered {slots} slots, more than {}",
                    proto::MAX_SLOTS
                )));
            }
            slots.max(1)
        }
        Frame::HelloAck {
            error: Some(msg), ..
        } => {
            return Err(ProtoError::Garbage(format!(
                "{addr}: handshake rejected: {msg}"
            )))
        }
        other => {
            return Err(ProtoError::Garbage(format!(
                "{addr}: expected HelloAck, got {other:?}"
            )))
        }
    };
    stream.set_read_timeout(None).ok();
    Ok(Session { stream, slots, dec })
}

/// Sleeps up to `dur` in small slices, returning `false` early if `stop`
/// flips (driver shutting down).
fn sleep_unless_stopped(stop: &AtomicBool, dur: Duration) -> bool {
    let deadline = Instant::now() + dur;
    loop {
        if stop.load(Ordering::Relaxed) {
            return false;
        }
        let now = Instant::now();
        if now >= deadline {
            return true;
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(20)));
    }
}

/// Background redial loop for one dead worker: bounded attempts with
/// exponential backoff and seeded jitter, each attempt re-handshaking at
/// the bumped session `epoch`. Sends exactly one terminal event —
/// `Redialed` on success, `RedialFailed` on exhaustion — unless the
/// driver is shutting down, in which case it exits silently (the event
/// channel may already be gone).
#[allow(clippy::too_many_arguments)]
fn redial_loop(
    worker: usize,
    addr: String,
    hello: Value,
    epoch: u64,
    policy: ReconnectPolicy,
    connect_timeout: Option<Duration>,
    post: RedialPost,
    stop: Arc<AtomicBool>,
) {
    // Deterministic per-(worker, epoch) jitter stream: drills with a
    // pinned seed replay the same backoff schedule.
    let mut rng = StdRng::seed_from_u64(
        policy.jitter_seed ^ (worker as u64).wrapping_mul(0x9e3779b97f4a7c15) ^ epoch,
    );
    for attempt in 1..=policy.max_attempts {
        let shift = (attempt - 1).min(16);
        let backoff = policy
            .base_backoff
            .saturating_mul(1u32 << shift)
            .min(policy.max_backoff);
        let jitter_cap = (backoff.as_millis() as u64 / 2).max(1);
        let pause = backoff + Duration::from_millis(rng.gen_range(0..=jitter_cap));
        if !sleep_unless_stopped(&stop, pause) {
            return;
        }
        match dial_worker(&addr, &hello, epoch, connect_timeout) {
            Ok(session) => {
                post.send(NetEvent::Redialed {
                    worker,
                    epoch,
                    session,
                    attempts: attempt,
                });
                return;
            }
            Err(_) => {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
            }
        }
    }
    post.send(NetEvent::RedialFailed {
        worker,
        attempts: policy.max_attempts,
    });
}

/// Knobs for the worker side of the TCP substrate.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// How often the heartbeat thread beacons. Keep this several times
    /// smaller than the driver's lease timeout.
    pub heartbeat_interval: Duration,
    /// Serve exactly one session, then return (used by tests and by
    /// `hypertune-worker --once`).
    pub once: bool,
    /// How many `Dispatch` frames the session accepts in flight,
    /// advertised to the driver via `HelloAck::slots`. Evaluation stays
    /// on a single thread serving the queue in FIFO order; extra slots
    /// hide dispatch round-trips, they do not add parallelism. The
    /// driver refuses more than [`proto::MAX_SLOTS`].
    pub slots: usize,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        Self {
            heartbeat_interval: Duration::from_millis(250),
            once: false,
            slots: 1,
        }
    }
}

/// A worker-side evaluator: turns a `Dispatch` payload into a status and
/// an output payload (`Value::Null` when there is none).
pub type EvalFn = Box<dyn Fn(&Value) -> (JobStatus, Value) + Send>;

/// The session's shared write half: socket plus a reused encode scratch
/// buffer, always taken together under one lock so the session and
/// heartbeat threads never interleave frame bytes.
struct FrameWriter {
    stream: TcpStream,
    enc: FrameEncoder,
}

impl FrameWriter {
    fn write(&mut self, frame: &Frame) -> Result<(), ProtoError> {
        let buf = self.enc.encode(frame);
        self.stream.write_all(buf).map_err(ProtoError::from)
    }
}

/// Serves driver sessions on `listener` forever (or once, under
/// [`WorkerOptions::once`]). Per session, `make_eval` interprets the
/// `Hello` payload and builds the evaluator — returning `Err(reason)`
/// rejects the session via `HelloAck` without dropping the accept loop.
/// (The hello passed through may carry the protocol's `"_epoch"` session
/// key; factories should ignore unknown keys.)
///
/// Session errors (protocol violations, mid-stream disconnects) are
/// logged to stderr and do not kill the worker; the next driver can
/// connect fresh.
pub fn serve_worker<F>(
    listener: TcpListener,
    opts: WorkerOptions,
    make_eval: F,
) -> std::io::Result<()>
where
    F: Fn(&Value) -> Result<EvalFn, String>,
{
    loop {
        let (stream, peer) = listener.accept()?;
        let _ = stream.set_nodelay(true);
        if let Err(e) = serve_session(stream, &opts, &make_eval) {
            eprintln!("hypertune-worker: session with {peer} failed: {e}");
        }
        if opts.once {
            return Ok(());
        }
    }
}

/// Handshakes and serves one driver connection to completion.
fn serve_session<F>(
    stream: TcpStream,
    opts: &WorkerOptions,
    make_eval: &F,
) -> Result<(), ProtoError>
where
    F: Fn(&Value) -> Result<EvalFn, String>,
{
    let mut reader = stream.try_clone()?;
    let mut dec = FrameDecoder::new();
    let writer = Arc::new(Mutex::new(FrameWriter {
        stream,
        enc: FrameEncoder::new(Codec::Binary),
    }));
    let hello = match dec.read_ahead(&mut reader)? {
        Frame::Hello { payload } => payload,
        other => {
            return Err(ProtoError::Garbage(format!(
                "expected Hello, got {other:?}"
            )))
        }
    };
    // Session epoch: echo whatever the driver offered (`"_epoch"` in the
    // hello) so its redial handshake can verify it reached a fresh
    // session. Absent on non-object hellos → None, which the driver
    // treats as epoch 0.
    let epoch = hello
        .as_object()
        .and_then(|m| m.get("_epoch"))
        .and_then(|v| v.as_u64());
    let slots = opts.slots.max(1);
    let eval = match make_eval(&hello) {
        Ok(eval) => {
            write_locked(
                &writer,
                &Frame::HelloAck {
                    slots,
                    error: None,
                    epoch,
                },
            )?;
            eval
        }
        Err(reason) => {
            write_locked(
                &writer,
                &Frame::HelloAck {
                    slots: 0,
                    error: Some(reason),
                    epoch,
                },
            )?;
            return Ok(());
        }
    };
    // Heartbeats come from their own thread so a long evaluation never
    // looks like a death. Both threads share the write half; each frame
    // is one write_all under the lock, so frames never interleave.
    let stop = Arc::new(AtomicBool::new(false));
    let hb_stop = Arc::clone(&stop);
    let hb_writer = Arc::clone(&writer);
    let interval = opts.heartbeat_interval;
    let heartbeat = std::thread::spawn(move || heartbeat_loop(&hb_writer, &hb_stop, interval));
    let outcome = session_loop(&mut reader, &mut dec, &writer, &eval);
    // Whatever ended the session, wake the heartbeat thread rather than
    // wait out its interval, and close the socket.
    stop.store(true, Ordering::Relaxed);
    heartbeat.thread().unpark();
    {
        let guard = writer.lock().unwrap_or_else(|p| p.into_inner());
        let _ = guard.stream.shutdown(SockShutdown::Both);
    }
    let _ = heartbeat.join();
    outcome
}

/// Beacons every `interval` until `stop` is set. The session unparks
/// this thread when it sets `stop`, so teardown never waits out a beat.
fn heartbeat_loop(writer: &Mutex<FrameWriter>, stop: &AtomicBool, interval: Duration) {
    let mut seq = 0u64;
    let mut due = Instant::now() + interval;
    loop {
        std::thread::park_timeout(due.saturating_duration_since(Instant::now()));
        if stop.load(Ordering::Relaxed) {
            return;
        }
        // `park_timeout` may also return early, spuriously.
        if Instant::now() < due {
            continue;
        }
        seq += 1;
        if write_locked(writer, &Frame::Heartbeat { seq }).is_err() {
            return;
        }
        due = Instant::now() + interval;
    }
}

/// The session thread: frames in, evaluations in queue order, results
/// out. A `Dispatch` queues its job, a `Cancel` removes its job if it has
/// not started, and `Shutdown` hands every queued job back with a
/// `Cancel` ack and ends the session.
fn session_loop(
    stream: &mut TcpStream,
    dec: &mut FrameDecoder,
    writer: &Mutex<FrameWriter>,
    eval: &EvalFn,
) -> Result<(), ProtoError> {
    let mut queue: VecDeque<(u64, Value)> = VecDeque::new();
    let mut fds = [PollFd::readable(stream.as_raw_fd())];
    loop {
        while let Some(frame) = dec.buffered()? {
            match frame {
                Frame::Dispatch { job_id, payload } => queue.push_back((job_id, payload)),
                // If the job already ran, its Result is fenced
                // driver-side as stale; nothing to do here.
                Frame::Cancel { job_id } => queue.retain(|(id, _)| *id != job_id),
                Frame::Shutdown => {
                    // Drain: every queued job is handed back via Cancel so
                    // the driver reclaims it immediately instead of
                    // inferring orphans from the disconnect.
                    for (job_id, _) in queue {
                        if write_locked(writer, &Frame::Cancel { job_id }).is_err() {
                            break;
                        }
                    }
                    return Ok(());
                }
                other => {
                    return Err(ProtoError::Garbage(format!(
                        "unexpected frame from driver: {other:?}"
                    )))
                }
            }
        }
        // With nothing queued, block for more. Otherwise read whatever
        // arrived during the last evaluation, so a Cancel or Shutdown
        // applies before the next job starts.
        if queue.is_empty() || poll::wait(&mut fds, Some(Duration::ZERO))? > 0 {
            if dec.read_some(stream)? == 0 {
                return match dec.eof() {
                    // Driver vanished between frames; not this worker's
                    // fault.
                    ProtoError::Closed => Ok(()),
                    e => Err(e),
                };
            }
            continue;
        }
        let Some((job_id, payload)) = queue.pop_front() else {
            continue;
        };
        // A panicking benchmark must not take the worker process (and its
        // whole slot queue) down with it: surface it as a Crashed result
        // so the driver's quarantine path owns the decision.
        let (status, output) =
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| eval(&payload))) {
                Ok(out) => out,
                Err(panic) => {
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "opaque panic payload".to_string());
                    eprintln!("hypertune-worker: evaluation of job {job_id} panicked: {msg}");
                    (JobStatus::Crashed, Value::Null)
                }
            };
        let frame = Frame::Result {
            job_id,
            status,
            output,
        };
        if write_locked(writer, &frame).is_err() {
            // The driver hung up mid-evaluation; not this worker's fault.
            return Ok(());
        }
    }
}

/// Encodes and writes one frame atomically under the shared-writer lock.
fn write_locked(writer: &Mutex<FrameWriter>, frame: &Frame) -> Result<(), ProtoError> {
    let mut guard = writer.lock().unwrap_or_else(|p| p.into_inner());
    guard.write(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    /// Spawns an in-process worker doubling u64 jobs; returns its addr.
    fn spawn_doubler(once: bool) -> (String, JoinHandle<std::io::Result<()>>) {
        spawn_doubler_with(WorkerOptions {
            heartbeat_interval: Duration::from_millis(20),
            once,
            ..WorkerOptions::default()
        })
    }

    fn spawn_doubler_with(opts: WorkerOptions) -> (String, JoinHandle<std::io::Result<()>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            serve_worker(listener, opts, |hello| {
                if hello.as_object().and_then(|m| m.get("reject")).is_some() {
                    return Err("rejected by test factory".to_string());
                }
                Ok(Box::new(|payload: &Value| {
                    let x = payload.as_u64().unwrap_or(0);
                    (JobStatus::Succeeded, json!(x * 2))
                }) as EvalFn)
            })
        });
        (addr, handle)
    }

    fn opts_with_lease(ms: u64) -> TcpClusterOptions {
        TcpClusterOptions {
            lease_timeout: Duration::from_millis(ms),
            ..TcpClusterOptions::default()
        }
    }

    /// A hand-rolled worker that doubles each job the moment it reads
    /// it and never heartbeats, so the only frames it sends are results.
    fn spawn_quiet_doubler() -> (String, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let _ = proto::read_frame(&mut s).unwrap(); // Hello
            let ack = Frame::HelloAck {
                slots: 1,
                error: None,
                epoch: None,
            };
            proto::write_frame(&mut s, &ack).unwrap();
            while let Ok(Frame::Dispatch { job_id, payload }) = proto::read_frame(&mut s) {
                let result = Frame::Result {
                    job_id,
                    status: JobStatus::Succeeded,
                    output: json!(payload.as_u64().unwrap() * 2),
                };
                proto::write_frame(&mut s, &result).unwrap();
            }
        });
        (addr, handle)
    }

    /// Spins until `n` live connections have unread bytes on their
    /// sockets (one zero-timeout `poll` per try): the only way to know,
    /// without reading them, that results have *arrived* (the workers in
    /// these tests send nothing else).
    fn wait_readable<J, O>(cluster: &TcpCluster<J, O>, n: usize) {
        let mut fds: Vec<PollFd> = cluster
            .workers
            .iter()
            .filter(|w| w.alive)
            .map(|w| PollFd::readable(w.stream.as_raw_fd()))
            .collect();
        while poll::wait(&mut fds, Some(Duration::ZERO)).unwrap() < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn drain_takes_everything_arrived_up_to_max() {
        // Eight one-slot workers: every dispatch goes to an idle worker
        // and is therefore written at once, so all eight results can be
        // on their sockets before the first drain.
        let (addrs, handles): (Vec<_>, Vec<_>) = (0..8).map(|_| spawn_quiet_doubler()).unzip();
        let mut cluster: TcpCluster<u64, u64> =
            TcpCluster::connect(&addrs, json!(null), TcpClusterOptions::default()).unwrap();
        let mut out = Vec::new();
        assert_eq!(
            cluster.drain_completions(&mut out, usize::MAX).unwrap_err(),
            ClusterError::Quiescent,
            "nothing submitted, nothing ready"
        );
        for j in 0..8 {
            cluster.submit(j).unwrap();
        }
        wait_readable(&cluster, 8);
        assert_eq!(cluster.drain_completions(&mut out, usize::MAX), Ok(8));
        assert_eq!((cluster.in_flight(), cluster.idle_workers()), (0, 8));
        let mut jobs: Vec<u64> = out.iter().map(|r| r.job).collect();
        jobs.sort_unstable();
        assert_eq!(jobs, (0..8).collect::<Vec<_>>());
        assert!(out.iter().all(|r| r.output == Some(r.job * 2)));

        // A bound splits the same batch across calls and loses nothing.
        for j in 8..16 {
            cluster.submit(j).unwrap();
        }
        wait_readable(&cluster, 8);
        assert_eq!(cluster.drain_completions(&mut out, 3), Ok(3));
        assert_eq!((cluster.in_flight(), cluster.idle_workers()), (5, 3));
        assert_eq!(cluster.drain_completions(&mut out, usize::MAX), Ok(5));
        assert_eq!((cluster.in_flight(), cluster.idle_workers()), (0, 8));
        assert_eq!(out.len(), 16);
        assert_eq!(
            cluster.drain_completions(&mut out, usize::MAX).unwrap_err(),
            ClusterError::Quiescent
        );
        drop(cluster);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn buffered_dispatches_flush_and_queued_orphans_surface_first() {
        // Worker 0 (3 slots) takes its jobs and dies on command; worker
        // 1 (4 slots) answers on command, in dispatch order. Both are
        // silent otherwise, so every drain below has exactly one thing
        // it can return.
        let (die_tx, die_rx) = unbounded::<()>();
        let (go_tx, go_rx) = unbounded::<()>();
        let scripted = |slots: usize, script: Box<dyn FnOnce(TcpStream) + Send>| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let handle = std::thread::spawn(move || {
                let (mut s, _) = listener.accept().unwrap();
                let _ = proto::read_frame(&mut s).unwrap(); // Hello
                let ack = Frame::HelloAck {
                    slots,
                    error: None,
                    epoch: None,
                };
                proto::write_frame(&mut s, &ack).unwrap();
                script(s);
            });
            (addr, handle)
        };
        let (a, ha) = scripted(
            3,
            Box::new(move |s| {
                let _ = die_rx.recv();
                drop(s); // process death with three jobs pending
            }),
        );
        let (b, hb) = scripted(
            4,
            Box::new(move |mut s| {
                for burst in [1, 3] {
                    let mut results = Vec::new();
                    for _ in 0..burst {
                        let Frame::Dispatch { job_id, payload } =
                            proto::read_frame(&mut s).unwrap()
                        else {
                            panic!("expected Dispatch")
                        };
                        let result = Frame::Result {
                            job_id,
                            status: JobStatus::Succeeded,
                            output: json!(payload.as_u64().unwrap() * 2),
                        };
                        results.extend_from_slice(&proto::encode_frame(&result));
                    }
                    let _ = go_rx.recv();
                    s.write_all(&results).unwrap();
                }
                let _ = proto::read_frame(&mut s); // linger for Shutdown
            }),
        );
        let mut cluster: TcpCluster<u64, u64> =
            TcpCluster::connect(&[a, b], json!(null), TcpClusterOptions::default()).unwrap();
        // Least-loaded placement: 0, 2, 4 land on worker 0 and 1, 3, 5, 6
        // on worker 1. Only the first dispatch to each (an idle worker)
        // is on the wire; the rest sit in the out-buffers.
        for j in 0..7 {
            cluster.submit(j).unwrap();
        }
        assert_eq!((cluster.in_flight(), cluster.idle_workers()), (7, 0));

        // Worker 1 can only have read job 1. The drain flushes both
        // out-buffers before it blocks, then returns that one result.
        let mut out = Vec::new();
        go_tx.send(()).unwrap();
        assert_eq!(cluster.drain_completions(&mut out, 1), Ok(1));
        assert_eq!((out[0].job, out[0].output), (1, Some(2)));

        // Worker 0 dies: three orphans, the drain may take one.
        die_tx.send(()).unwrap();
        assert_eq!(cluster.drain_completions(&mut out, 1), Ok(1));
        assert_eq!((out[1].job, out[1].status), (0, JobStatus::Orphaned));
        assert_eq!(cluster.in_flight(), 3, "queued orphans hold no slot");
        assert_eq!(cluster.n_workers(), 4);

        // Worker 1's last three results arrive — proof that the flush
        // delivered the buffered dispatches — and queue up behind the two
        // orphans the previous call left. They leave in one write, so one
        // readable socket means all three are here.
        go_tx.send(()).unwrap();
        wait_readable(&cluster, 1);
        assert_eq!(cluster.drain_completions(&mut out, usize::MAX), Ok(5));
        let tail: Vec<(u64, JobStatus)> = out[2..].iter().map(|r| (r.job, r.status)).collect();
        assert_eq!(
            tail,
            vec![
                (2, JobStatus::Orphaned),
                (4, JobStatus::Orphaned),
                (3, JobStatus::Succeeded),
                (5, JobStatus::Succeeded),
                (6, JobStatus::Succeeded),
            ],
            "orphans first, then results in the order the socket delivered them"
        );
        assert_eq!((cluster.in_flight(), cluster.idle_workers()), (0, 4));
        assert_eq!(
            cluster.drain_completions(&mut out, usize::MAX).unwrap_err(),
            ClusterError::Quiescent
        );
        drop(cluster);
        ha.join().unwrap();
        hb.join().unwrap();
    }

    #[test]
    fn frames_behind_the_hello_ack_survive_the_handshake() {
        // The ack and a heartbeat leave the worker in one write, so they
        // can reach the driver in one segment and one `read`. The
        // handshake's decoder must hand the heartbeat on to the session's
        // reader instead of dropping it with its buffer.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let _ = proto::read_frame(&mut s).unwrap(); // Hello
            let mut both = proto::encode_frame(&Frame::HelloAck {
                slots: 1,
                error: None,
                epoch: None,
            });
            both.extend_from_slice(&proto::encode_frame(&Frame::Heartbeat { seq: 1 }));
            s.write_all(&both).unwrap();
            let Frame::Dispatch { job_id, .. } = proto::read_frame(&mut s).unwrap() else {
                panic!("expected Dispatch")
            };
            let result = Frame::Result {
                job_id,
                status: JobStatus::Succeeded,
                output: json!(1),
            };
            proto::write_frame(&mut s, &result).unwrap();
            let _ = proto::read_frame(&mut s); // linger for Shutdown
        });
        let mut cluster: TcpCluster<u64, u64> =
            TcpCluster::connect(&[addr], json!(null), TcpClusterOptions::default()).unwrap();
        let telemetry = hypertune_telemetry::Telemetry::new().build();
        cluster.set_telemetry(telemetry.clone());
        cluster.submit(0).unwrap();
        // One reader, one channel: the heartbeat is processed before the
        // result behind it is returned.
        assert_eq!(cluster.next_completion().unwrap().output, Some(1));
        let seen = telemetry.snapshot().expect("telemetry is on");
        assert_eq!(seen.counter("net.heartbeats"), Some(1));
        drop(cluster);
        h.join().unwrap();
    }

    #[test]
    fn jobs_round_trip_over_loopback() {
        let (a, ha) = spawn_doubler(true);
        let (b, hb) = spawn_doubler(true);
        let mut cluster: TcpCluster<u64, u64> =
            TcpCluster::connect(&[a, b], json!({"test": true}), TcpClusterOptions::default())
                .unwrap();
        assert_eq!(cluster.n_workers(), 2);
        let mut outs = Vec::new();
        let mut next = 0u64;
        while outs.len() < 10 {
            while next < 10 && cluster.submit(next).is_ok() {
                next += 1;
            }
            let r = cluster.next_completion().unwrap();
            assert_eq!(r.status, JobStatus::Succeeded);
            assert_eq!(r.output, Some(r.job * 2));
            outs.push(r.output.unwrap());
        }
        assert_eq!(
            cluster.next_completion().unwrap_err(),
            ClusterError::Quiescent
        );
        drop(cluster); // sends Shutdown; --once workers then return
        ha.join().unwrap().unwrap();
        hb.join().unwrap().unwrap();
    }

    #[test]
    fn multi_slot_worker_pipelines_in_fifo_order() {
        let (addr, h) = spawn_doubler_with(WorkerOptions {
            heartbeat_interval: Duration::from_millis(20),
            once: true,
            slots: 4,
        });
        let mut cluster: TcpCluster<u64, u64> =
            TcpCluster::connect(&[addr], json!({"test": true}), TcpClusterOptions::default())
                .unwrap();
        assert_eq!(cluster.n_workers(), 4, "capacity counts slots");
        for j in 0..4 {
            cluster.submit(j).unwrap();
        }
        assert_eq!(cluster.in_flight(), 4);
        assert_eq!(cluster.submit(99), Err(ClusterError::NoIdleWorker));
        let mut jobs = Vec::new();
        for _ in 0..4 {
            let r = cluster.next_completion().unwrap();
            assert_eq!(r.status, JobStatus::Succeeded);
            assert_eq!(r.output, Some(r.job * 2));
            jobs.push(r.job);
        }
        assert_eq!(
            jobs,
            vec![0, 1, 2, 3],
            "one session thread serves the queue in dispatch order"
        );
        assert_eq!(
            cluster.next_completion().unwrap_err(),
            ClusterError::Quiescent
        );
        drop(cluster);
        h.join().unwrap().unwrap();
    }

    #[test]
    fn shutdown_drains_queued_dispatches_with_cancel_acks() {
        // A hand-rolled driver: dispatch three jobs at a slow slots-4
        // worker, then send Shutdown. The job already evaluating must
        // answer with a Result; the two still queued must come back as
        // Cancel acknowledgements, not silence.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let opts = WorkerOptions {
            heartbeat_interval: Duration::from_millis(20),
            once: true,
            slots: 4,
        };
        let h = std::thread::spawn(move || {
            serve_worker(listener, opts, |_| {
                Ok(Box::new(|payload: &Value| {
                    std::thread::sleep(Duration::from_millis(80));
                    (JobStatus::Succeeded, payload.clone())
                }) as EvalFn)
            })
        });
        let mut s = TcpStream::connect(&addr).unwrap();
        proto::write_frame(
            &mut s,
            &Frame::Hello {
                payload: json!(null),
            },
        )
        .unwrap();
        match proto::read_frame(&mut s).unwrap() {
            Frame::HelloAck {
                slots: 4,
                error: None,
                ..
            } => {}
            other => panic!("expected 4-slot HelloAck, got {other:?}"),
        }
        proto::write_frame(
            &mut s,
            &Frame::Dispatch {
                job_id: 0,
                payload: json!(1),
            },
        )
        .unwrap();
        // Give the evaluator time to start job 0 before queueing more.
        std::thread::sleep(Duration::from_millis(30));
        proto::write_frame(
            &mut s,
            &Frame::Dispatch {
                job_id: 1,
                payload: json!(2),
            },
        )
        .unwrap();
        proto::write_frame(
            &mut s,
            &Frame::Dispatch {
                job_id: 2,
                payload: json!(3),
            },
        )
        .unwrap();
        proto::write_frame(&mut s, &Frame::Shutdown).unwrap();
        let mut results = Vec::new();
        let mut cancels = Vec::new();
        loop {
            match proto::read_frame(&mut s) {
                Ok(Frame::Heartbeat { .. }) => {}
                Ok(Frame::Result { job_id, .. }) => results.push(job_id),
                Ok(Frame::Cancel { job_id }) => cancels.push(job_id),
                Ok(other) => panic!("unexpected frame: {other:?}"),
                Err(_) => break, // session over
            }
        }
        cancels.sort_unstable();
        assert_eq!(results, vec![0], "the in-progress job still answers");
        assert_eq!(cancels, vec![1, 2], "queued jobs are handed back");
        h.join().unwrap().unwrap();
    }

    #[test]
    fn a_cancel_that_arrives_mid_evaluation_applies_before_the_next_job() {
        // A 2-slot session holds jobs 1 and 2, and job 1's evaluation
        // blocks until released. The driver cancels job 2 meanwhile, and
        // job 1 is released only once the Cancel's bytes sit unread on
        // the worker's socket. Job 2 must never reach the evaluator.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut driver = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (worker_side, _) = listener.accept().unwrap();
        let unread = worker_side.try_clone().unwrap();
        let (started_tx, started_rx) = unbounded::<()>();
        let (release_tx, release_rx) = unbounded::<()>();
        let (seen_tx, seen_rx) = unbounded::<Value>();
        let opts = WorkerOptions {
            heartbeat_interval: Duration::from_secs(30),
            slots: 2,
            ..WorkerOptions::default()
        };
        let session = std::thread::spawn(move || {
            let make_eval = move |_: &Value| {
                let (started, release, seen) =
                    (started_tx.clone(), release_rx.clone(), seen_tx.clone());
                Ok(Box::new(move |payload: &Value| {
                    seen.send(payload.clone()).unwrap();
                    if *payload == json!(1) {
                        started.send(()).unwrap();
                        release.recv().unwrap();
                    }
                    (JobStatus::Succeeded, payload.clone())
                }) as EvalFn)
            };
            serve_session(worker_side, &opts, &make_eval)
        });
        let hello = Frame::Hello {
            payload: json!(null),
        };
        proto::write_frame(&mut driver, &hello).unwrap();
        assert!(matches!(
            proto::read_frame(&mut driver).unwrap(),
            Frame::HelloAck { slots: 2, .. }
        ));
        // Both dispatches leave in one write, so the session queues both
        // before job 1 starts.
        let mut both = Vec::new();
        for job_id in [1, 2] {
            let payload = json!(job_id);
            both.extend_from_slice(&proto::encode_frame(&Frame::Dispatch { job_id, payload }));
        }
        driver.write_all(&both).unwrap();
        started_rx.recv().unwrap();
        let cancel = proto::encode_frame(&Frame::Cancel { job_id: 2 });
        driver.write_all(&cancel).unwrap();
        let mut peeked = [0u8; 256];
        while unread.peek(&mut peeked).unwrap() < cancel.len() {
            std::thread::yield_now();
        }
        release_tx.send(()).unwrap();
        assert!(matches!(
            proto::read_frame(&mut driver).unwrap(),
            Frame::Result { job_id: 1, .. }
        ));
        proto::write_frame(&mut driver, &Frame::Shutdown).unwrap();
        // Job 2 left the queue with the driver's Cancel: no Result, and
        // no Cancel ack at Shutdown either.
        match proto::read_frame(&mut driver) {
            Err(_) => {}
            Ok(other) => panic!("nothing may follow job 1's Result, got {other:?}"),
        }
        session.join().unwrap().unwrap();
        let mut seen = Vec::new();
        while let Ok(payload) = seen_rx.try_recv() {
            seen.push(payload);
        }
        assert_eq!(seen, vec![json!(1)], "job 2 never reached the evaluator");
    }

    #[test]
    fn session_teardown_does_not_wait_out_a_heartbeat() {
        let (addr, h) = spawn_doubler_with(WorkerOptions {
            heartbeat_interval: Duration::from_secs(30),
            once: true,
            ..WorkerOptions::default()
        });
        let mut cluster: TcpCluster<u64, u64> =
            TcpCluster::connect(&[addr], json!(null), TcpClusterOptions::default()).unwrap();
        cluster.submit(1).unwrap();
        assert_eq!(cluster.next_completion().unwrap().output, Some(2));
        let t0 = Instant::now();
        drop(cluster);
        h.join().unwrap().unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "serve_worker returned {:?} after the driver hung up",
            t0.elapsed()
        );
    }

    #[test]
    fn worker_cancel_ack_surfaces_an_orphan() {
        // A hand-rolled worker that refuses the job via a Cancel ack:
        // the driver must reclaim it as an orphan without tearing the
        // connection down.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let _ = proto::read_frame(&mut s).unwrap(); // Hello
            proto::write_frame(
                &mut s,
                &Frame::HelloAck {
                    slots: 1,
                    error: None,
                    epoch: None,
                },
            )
            .unwrap();
            let job_id = match proto::read_frame(&mut s).unwrap() {
                Frame::Dispatch { job_id, .. } => job_id,
                other => panic!("expected Dispatch, got {other:?}"),
            };
            proto::write_frame(&mut s, &Frame::Cancel { job_id }).unwrap();
            // Linger for the shutdown so the driver's reader sees a
            // clean session end.
            let _ = proto::read_frame(&mut s);
        });
        let mut cluster: TcpCluster<u64, u64> =
            TcpCluster::connect(&[addr], json!(null), TcpClusterOptions::default()).unwrap();
        cluster.submit(7).unwrap();
        let r = cluster.next_completion().unwrap();
        assert_eq!(r.status, JobStatus::Orphaned);
        assert_eq!(r.job, 7);
        assert_eq!(r.output, None);
        assert_eq!(cluster.in_flight(), 0, "the slot is reclaimed");
        assert_eq!(cluster.n_workers(), 1, "a drain ack is not a death");
        drop(cluster);
        h.join().unwrap();
    }

    #[test]
    fn oversubscription_is_rejected() {
        let (a, h) = spawn_doubler(true);
        let mut cluster: TcpCluster<u64, u64> =
            TcpCluster::connect(&[a], json!(null), TcpClusterOptions::default()).unwrap();
        cluster.submit(1).unwrap();
        assert_eq!(cluster.submit(2), Err(ClusterError::NoIdleWorker));
        let r = cluster.next_completion().unwrap();
        assert_eq!(r.output, Some(2));
        drop(cluster);
        h.join().unwrap().unwrap();
    }

    #[test]
    fn handshake_rejection_is_a_typed_error() {
        let (a, h) = spawn_doubler(true);
        let err = match TcpCluster::<u64, u64>::connect(
            &[a],
            json!({"reject": true}),
            TcpClusterOptions::default(),
        ) {
            Ok(_) => panic!("handshake should have been rejected"),
            Err(e) => e,
        };
        match err {
            ProtoError::Garbage(msg) => assert!(msg.contains("rejected")),
            other => panic!("expected Garbage, got {other:?}"),
        }
        h.join().unwrap().unwrap();
    }

    /// A hand-rolled worker that reads the `Hello`, answers with `ack`
    /// written byte for byte, and lingers until the driver hangs up. It
    /// accepts one connection only, so a retried dial is refused.
    fn spawn_raw_acker(ack: Vec<u8>) -> (String, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            drop(listener);
            let _ = proto::read_frame(&mut s).unwrap(); // Hello
            s.write_all(&ack).unwrap();
            let _ = proto::read_frame(&mut s);
        });
        (addr, handle)
    }

    /// Bounded dials with retries to spare: a definitive answer must not
    /// use them, and a regression fails instead of hanging.
    fn opts_with_retries() -> TcpClusterOptions {
        TcpClusterOptions {
            connect_timeout: Some(Duration::from_secs(5)),
            connect_retries: 2,
            ..TcpClusterOptions::default()
        }
    }

    #[test]
    fn a_slot_count_above_max_slots_is_refused_not_trusted() {
        for (slots, accepted) in [
            (usize::MAX, false),
            (proto::MAX_SLOTS + 1, false),
            (proto::MAX_SLOTS, true),
        ] {
            let ack = proto::encode_frame(&Frame::HelloAck {
                slots,
                error: None,
                epoch: None,
            });
            let (addr, h) = spawn_raw_acker(ack);
            match TcpCluster::<u64, u64>::connect(&[addr], json!(null), opts_with_retries()) {
                Ok(cluster) => {
                    assert!(accepted, "{slots} slots were trusted");
                    assert_eq!(cluster.n_workers(), proto::MAX_SLOTS);
                }
                Err(e) => {
                    assert!(!accepted, "{slots} slots were refused: {e}");
                    assert!(matches!(e, ProtoError::Garbage(_)), "got {e:?}");
                }
            }
            h.join().unwrap();
        }
    }

    /// A version-1 frame: length, version byte 1, JSON text. Written by
    /// hand because the encoder can no longer produce one.
    fn v1_frame(json: &str) -> Vec<u8> {
        let mut buf = ((json.len() + 1) as u32).to_be_bytes().to_vec();
        buf.push(1);
        buf.extend_from_slice(json.as_bytes());
        buf
    }

    #[test]
    fn a_v1_worker_is_refused_at_once() {
        let ack = v1_frame(r#"{"HelloAck": {"slots": 1, "error": null, "epoch": 0}}"#);
        let (addr, h) = spawn_raw_acker(ack);
        // With retries allowed, a retried dial would end in a refused
        // connection instead of the version error.
        let err = match TcpCluster::<u64, u64>::connect(
            &[addr],
            json!({"test": true}),
            opts_with_retries(),
        ) {
            Ok(_) => panic!("a v1 HelloAck was accepted"),
            Err(e) => e,
        };
        assert_eq!(err, ProtoError::BadVersion { got: 1 });
        h.join().unwrap();
    }

    #[test]
    fn a_v1_driver_gets_no_hello_ack() {
        let (addr, h) = spawn_doubler(true);
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(&v1_frame(r#"{"Hello": {"payload": {"_epoch": 0}}}"#))
            .unwrap();
        // The worker refuses the first frame and hangs up unanswered;
        // a read timeout here would be an Io error, not Closed.
        assert_eq!(proto::read_frame(&mut s).unwrap_err(), ProtoError::Closed);
        h.join().unwrap().unwrap();
    }

    #[test]
    fn disconnect_orphans_the_pending_job() {
        // A hand-rolled "worker" that takes the job and dies.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let _ = proto::read_frame(&mut s).unwrap(); // Hello
            proto::write_frame(
                &mut s,
                &Frame::HelloAck {
                    slots: 1,
                    error: None,
                    epoch: None,
                },
            )
            .unwrap();
            let _ = proto::read_frame(&mut s).unwrap(); // Dispatch
            drop(s); // process death
        });
        let mut cluster: TcpCluster<u64, u64> =
            TcpCluster::connect(&[addr], json!(null), TcpClusterOptions::default()).unwrap();
        cluster.submit(7).unwrap();
        let r = cluster.next_completion().unwrap();
        assert_eq!(r.status, JobStatus::Orphaned);
        assert_eq!(r.job, 7);
        assert_eq!(r.output, None);
        assert_eq!(cluster.n_workers(), 0, "disconnect is a permanent leave");
        assert_eq!(cluster.in_flight(), 0, "orphan holds no slot");
        h.join().unwrap();
    }

    #[test]
    fn missed_heartbeats_expire_the_lease() {
        // Accepts and handshakes, then goes silent forever: no result,
        // no heartbeat. The driver must orphan the job after the lease.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let _ = proto::read_frame(&mut s).unwrap();
            proto::write_frame(
                &mut s,
                &Frame::HelloAck {
                    slots: 1,
                    error: None,
                    epoch: None,
                },
            )
            .unwrap();
            // Hold the connection open, silently, until the driver
            // tears it down.
            loop {
                match proto::read_frame(&mut s) {
                    Ok(_) => continue,
                    Err(_) => return,
                }
            }
        });
        let mut cluster: TcpCluster<u64, u64> =
            TcpCluster::connect(&[addr], json!(null), opts_with_lease(80)).unwrap();
        cluster.submit(5).unwrap();
        let t0 = Instant::now();
        let r = cluster.next_completion().unwrap();
        assert_eq!(r.status, JobStatus::Orphaned);
        assert!(
            t0.elapsed() >= Duration::from_millis(60),
            "orphan must wait out the lease"
        );
        drop(cluster);
        h.join().unwrap();
    }

    #[test]
    fn stale_results_are_dropped() {
        // A worker that answers a retired job id first, then the real
        // one: the driver must drop the former and surface the latter.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let _ = proto::read_frame(&mut s).unwrap();
            proto::write_frame(
                &mut s,
                &Frame::HelloAck {
                    slots: 1,
                    error: None,
                    epoch: None,
                },
            )
            .unwrap();
            let (job_id, payload) = match proto::read_frame(&mut s).unwrap() {
                Frame::Dispatch { job_id, payload } => (job_id, payload),
                other => panic!("expected Dispatch, got {other:?}"),
            };
            proto::write_frame(
                &mut s,
                &Frame::Result {
                    job_id: job_id + 999, // nobody asked for this id
                    status: JobStatus::Succeeded,
                    output: json!(u64::MAX),
                },
            )
            .unwrap();
            let x = payload.as_u64().unwrap();
            proto::write_frame(
                &mut s,
                &Frame::Result {
                    job_id,
                    status: JobStatus::Succeeded,
                    output: json!(x * 2),
                },
            )
            .unwrap();
            // Linger for the shutdown so the driver's reader sees a
            // clean session end.
            let _ = proto::read_frame(&mut s);
        });
        let mut cluster: TcpCluster<u64, u64> =
            TcpCluster::connect(&[addr], json!(null), TcpClusterOptions::default()).unwrap();
        cluster.submit(21).unwrap();
        let r = cluster.next_completion().unwrap();
        assert_eq!(r.status, JobStatus::Succeeded);
        assert_eq!(r.output, Some(42), "the stale result must not surface");
        drop(cluster);
        h.join().unwrap();
    }

    #[test]
    fn failure_statuses_cross_the_wire() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let opts = WorkerOptions {
            heartbeat_interval: Duration::from_millis(20),
            once: true,
            ..WorkerOptions::default()
        };
        let h = std::thread::spawn(move || {
            serve_worker(listener, opts, |_| {
                Ok(Box::new(|_: &Value| (JobStatus::Errored, Value::Null)) as EvalFn)
            })
        });
        let mut cluster: TcpCluster<u64, u64> =
            TcpCluster::connect(&[addr], json!(null), TcpClusterOptions::default()).unwrap();
        cluster.submit(1).unwrap();
        let r = cluster.next_completion().unwrap();
        assert_eq!(r.status, JobStatus::Errored);
        assert_eq!(r.output, None);
        assert!(!r.is_ok());
        assert_eq!(cluster.idle_workers(), 1, "slot is free for a retry");
        drop(cluster);
        h.join().unwrap().unwrap();
    }

    #[test]
    fn heartbeats_cover_long_evaluations() {
        // Evaluation takes 3x the lease; heartbeats must keep the lease
        // alive so the job completes instead of orphaning.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let opts = WorkerOptions {
            heartbeat_interval: Duration::from_millis(15),
            once: true,
            ..WorkerOptions::default()
        };
        let h = std::thread::spawn(move || {
            serve_worker(listener, opts, |_| {
                Ok(Box::new(|payload: &Value| {
                    std::thread::sleep(Duration::from_millis(240));
                    (JobStatus::Succeeded, payload.clone())
                }) as EvalFn)
            })
        });
        let mut cluster: TcpCluster<u64, u64> =
            TcpCluster::connect(&[addr], json!(null), opts_with_lease(80)).unwrap();
        cluster.submit(11).unwrap();
        let r = cluster.next_completion().unwrap();
        assert_eq!(r.status, JobStatus::Succeeded, "heartbeats held the lease");
        assert_eq!(r.output, Some(11));
        drop(cluster);
        h.join().unwrap().unwrap();
    }

    #[test]
    fn redial_revives_a_dead_worker_under_a_new_epoch() {
        // A worker whose first session dies mid-job, but which keeps
        // accepting (no `once`): the orphan surfaces immediately, then
        // the redial loop lands a second session and the retry runs
        // there.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            // Session 1: take the job and die.
            {
                let (mut s, _) = listener.accept().unwrap();
                let hello = match proto::read_frame(&mut s).unwrap() {
                    Frame::Hello { payload } => payload,
                    other => panic!("expected Hello, got {other:?}"),
                };
                let epoch = hello
                    .as_object()
                    .and_then(|m| m.get("_epoch"))
                    .and_then(|v| v.as_u64());
                assert_eq!(epoch, Some(0), "first connect is epoch 0");
                proto::write_frame(
                    &mut s,
                    &Frame::HelloAck {
                        slots: 1,
                        error: None,
                        epoch,
                    },
                )
                .unwrap();
                let _ = proto::read_frame(&mut s).unwrap(); // Dispatch
            } // drop = process death
              // Session 2: the redial. Serve one job properly.
            let (mut s, _) = listener.accept().unwrap();
            let hello = match proto::read_frame(&mut s).unwrap() {
                Frame::Hello { payload } => payload,
                other => panic!("expected Hello, got {other:?}"),
            };
            let epoch = hello
                .as_object()
                .and_then(|m| m.get("_epoch"))
                .and_then(|v| v.as_u64());
            assert_eq!(epoch, Some(1), "redial bumps the session epoch");
            proto::write_frame(
                &mut s,
                &Frame::HelloAck {
                    slots: 1,
                    error: None,
                    epoch,
                },
            )
            .unwrap();
            let (job_id, payload) = match proto::read_frame(&mut s).unwrap() {
                Frame::Dispatch { job_id, payload } => (job_id, payload),
                other => panic!("expected Dispatch, got {other:?}"),
            };
            proto::write_frame(
                &mut s,
                &Frame::Result {
                    job_id,
                    status: JobStatus::Succeeded,
                    output: json!(payload.as_u64().unwrap() * 2),
                },
            )
            .unwrap();
            let _ = proto::read_frame(&mut s); // linger for Shutdown
        });
        let opts = TcpClusterOptions {
            reconnect: ReconnectPolicy {
                max_attempts: 10,
                base_backoff: Duration::from_millis(10),
                max_backoff: Duration::from_millis(40),
                jitter_seed: 7,
            },
            ..TcpClusterOptions::default()
        };
        let mut cluster: TcpCluster<u64, u64> =
            TcpCluster::connect(&[addr], json!({"test": true}), opts).unwrap();
        cluster.submit(9).unwrap();
        let r = cluster.next_completion().unwrap();
        assert_eq!(r.status, JobStatus::Orphaned, "the dead session orphans");
        // The redialer is still live, so next_completion blocks rather
        // than declaring quiescence — and eventually capacity returns.
        while cluster.n_workers() == 0 {
            match cluster.next_completion() {
                Ok(r) => panic!("no job is in flight, got {:?}", r.status),
                Err(ClusterError::Quiescent) => {
                    // Allowed only once the redial landed (capacity back).
                    assert!(cluster.n_workers() > 0, "quiescent with a live redialer");
                }
                Err(e) => panic!("unexpected error: {e:?}"),
            }
        }
        assert_eq!(cluster.n_workers(), 1, "capacity is restored");
        cluster.submit(9).unwrap();
        let r = cluster.next_completion().unwrap();
        assert_eq!(r.status, JobStatus::Succeeded);
        assert_eq!(r.output, Some(18), "the retry runs on the new session");
        drop(cluster);
        h.join().unwrap();
    }

    #[test]
    fn redial_gives_up_when_the_worker_stays_gone() {
        // Worker dies and its listener goes away: the redial loop must
        // exhaust its attempts and declare a permanent Leave, after
        // which the cluster is quiescent at zero capacity.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let _ = proto::read_frame(&mut s).unwrap(); // Hello
            proto::write_frame(
                &mut s,
                &Frame::HelloAck {
                    slots: 1,
                    error: None,
                    epoch: None,
                },
            )
            .unwrap();
            let _ = proto::read_frame(&mut s).unwrap(); // Dispatch
            drop(listener); // nobody will ever answer the redial
        });
        let opts = TcpClusterOptions {
            reconnect: ReconnectPolicy {
                max_attempts: 2,
                base_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(10),
                jitter_seed: 1,
            },
            connect_timeout: Some(Duration::from_millis(200)),
            ..TcpClusterOptions::default()
        };
        let mut cluster: TcpCluster<u64, u64> =
            TcpCluster::connect(&[addr], json!(null), opts).unwrap();
        cluster.submit(3).unwrap();
        let r = cluster.next_completion().unwrap();
        assert_eq!(r.status, JobStatus::Orphaned);
        // Blocks through the failing redial attempts, then reports
        // quiescence once the loop gives up.
        assert_eq!(
            cluster.next_completion().unwrap_err(),
            ClusterError::Quiescent
        );
        assert_eq!(cluster.n_workers(), 0, "give-up is a permanent leave");
        h.join().unwrap();
    }

    #[test]
    fn half_open_peer_expires_the_lease() {
        // The nastiest disconnect: the peer handshakes, then stops
        // participating *without* closing — reads nothing, writes
        // nothing. Driver-side writes succeed into socket buffers, so
        // only the heartbeat lease can catch it.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (done_tx, done_rx) = unbounded::<()>();
        let h = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let _ = proto::read_frame(&mut s).unwrap(); // Hello
            proto::write_frame(
                &mut s,
                &Frame::HelloAck {
                    slots: 2,
                    error: None,
                    epoch: None,
                },
            )
            .unwrap();
            // Half-open stall: keep the socket alive but never read or
            // write again until the test is over.
            let _ = done_rx.recv();
        });
        let mut cluster: TcpCluster<u64, u64> =
            TcpCluster::connect(&[addr], json!(null), opts_with_lease(80)).unwrap();
        cluster.submit(1).unwrap();
        cluster.submit(2).unwrap();
        let t0 = Instant::now();
        let mut orphans = Vec::new();
        for _ in 0..2 {
            let r = cluster.next_completion().unwrap();
            assert_eq!(r.status, JobStatus::Orphaned);
            orphans.push(r.job);
        }
        orphans.sort_unstable();
        assert_eq!(orphans, vec![1, 2], "every pending job orphans");
        assert!(
            t0.elapsed() >= Duration::from_millis(60),
            "orphans must wait out the lease, not race it"
        );
        assert_eq!(cluster.n_workers(), 0);
        let _ = done_tx.send(());
        drop(cluster);
        h.join().unwrap();
    }

    #[test]
    fn panicking_evaluation_crashes_the_job_not_the_worker() {
        // A benchmark that panics on one payload must surface as a
        // Crashed result and leave the worker serving the next job.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let opts = WorkerOptions {
            heartbeat_interval: Duration::from_millis(20),
            once: true,
            ..WorkerOptions::default()
        };
        let h = std::thread::spawn(move || {
            serve_worker(listener, opts, |_| {
                Ok(Box::new(|payload: &Value| {
                    let x = payload.as_u64().unwrap_or(0);
                    assert!(x != 13, "unlucky payload");
                    (JobStatus::Succeeded, json!(x * 2))
                }) as EvalFn)
            })
        });
        let mut cluster: TcpCluster<u64, u64> =
            TcpCluster::connect(&[addr], json!(null), TcpClusterOptions::default()).unwrap();
        cluster.submit(13).unwrap();
        let r = cluster.next_completion().unwrap();
        assert_eq!(r.status, JobStatus::Crashed, "panic = crashed result");
        assert_eq!(r.output, None);
        cluster.submit(4).unwrap();
        let r = cluster.next_completion().unwrap();
        assert_eq!(r.status, JobStatus::Succeeded, "the worker survived");
        assert_eq!(r.output, Some(8));
        drop(cluster);
        h.join().unwrap().unwrap();
    }
}
