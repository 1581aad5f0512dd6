//! The distributed substrate's wire protocol: length-prefixed frames
//! over TCP in one compact binary encoding.
//!
//! This module is the *normative implementation* of DESIGN.md §16 — the
//! frame grammar here and the prose spec there must stay in lockstep.
//!
//! # Frame grammar
//!
//! Every message on the wire is one **frame**:
//!
//! ```text
//! frame   := length body
//! length  := u32, big-endian — byte length of `body` (≥ 1, ≤ MAX_FRAME)
//! body    := version payload
//! version := u8 — WIRE_VERSION (2); anything else is `BadVersion`
//! payload := binary encoding, see below
//! ```
//!
//! The length prefix covers the version byte, so `payload` is exactly
//! `length - 1` bytes. A reader that sees a bad length, a bad version, or
//! an unparseable payload reports a typed [`ProtoError`] and the
//! connection is torn down — frames are never resynchronized mid-stream,
//! mirroring how the WAL refuses interior-tampered records rather than
//! guessing. Every frame carries the version byte, the handshake's
//! included, so a peer speaking another version — the retired JSON
//! frames of version 1, say — is refused with `BadVersion { got }` on
//! its first frame.
//!
//! # Payload grammar
//!
//! All multi-byte integers are LEB128 varints (`varint`); `f64` is 8
//! bytes little-endian (exact bit pattern, so float round-trips are
//! lossless). Strings are `varint` length + UTF-8 bytes.
//!
//! ```text
//! payload  := tag fields
//! tag      := u8 — 0 Hello · 1 HelloAck · 2 Dispatch · 3 Result
//!                  4 Cancel · 5 Heartbeat · 6 Shutdown
//! Hello    := value
//! HelloAck := varint(slots) opt_str(error) opt_u64(epoch)
//! Dispatch := varint(job_id) value
//! Result   := varint(job_id) status value
//! Cancel   := varint(job_id)
//! Heartbeat:= varint(seq)
//! Shutdown := ε
//! opt_str  := 0x00 | 0x01 string
//! opt_u64  := 0x00 | 0x01 varint
//! status   := u8 — 0 Succeeded · 1 Crashed · 2 Errored · 3 TimedOut
//!                  4 Orphaned · 5 Corrupt
//! value    := serde::bin's grammar, whose module defines the tags:
//!             0x00                          null
//!           | 0x01 | 0x02                   false | true
//!           | 0x03 varint                   non-negative integer
//!           | 0x04 varint(zigzag)           negative integer
//!           | 0x05 f64-le                   float
//!           | 0x06 string                   string
//!           | 0x07 varint(n) value×n        array (generic)
//!           | 0x08 varint(n) f64-le×n       array of floats
//!           | 0x09 varint(n) (string value)×n  object, keys sorted
//! ```
//!
//! Tag `0x08` ships a non-empty array whose elements are all floats as
//! raw little-endian `f64` words, with no per-element tags; decoding
//! rebuilds the same `Value` tree from either array tag. Real payloads
//! seldom take it. A dispatched config is `{"values":[{"Float":x},
//! {"Cat":i},…]}`, an array of one-key objects, and an `Eval` is an
//! object of three floats. So a dispatch is mostly object headers, keys
//! and tagged scalars. The counting-ones `ServiceJob` that the
//! benchmark's service workloads dispatch (8 continuous and 8
//! categorical parameters) is a frame of 318 bytes on average over a
//! traced `svc_sched_bound` run, and holds no float array at all: its 8
//! floats ride as 8 one-key objects.
//!
//! Every field is required: a payload that ends early, or carries bytes
//! past its last field, is `Garbage`. The golden frames in this module's
//! tests pin the exact bytes of each frame shape.
//!
//! # Message set
//!
//! | Frame | Direction | Purpose |
//! |---|---|---|
//! | [`Frame::Hello`] | driver → worker | opens a session; carries an application payload (benchmark name, seed, …) the worker uses to build its evaluator |
//! | [`Frame::HelloAck`] | worker → driver | accepts (slot count) or rejects (error string) the session; echoes the offered session epoch |
//! | [`Frame::Dispatch`] | driver → worker | one job: driver-assigned id plus an opaque serialized payload |
//! | [`Frame::Result`] | worker → driver | terminal outcome of a dispatched job |
//! | [`Frame::Cancel`] | driver → worker | the driver gave up on a job (lease expiry); the eventual `Result`, if any, will be dropped as stale. worker → driver: the worker dropped a queued job unrun (shutdown drain) and the driver should reclaim it |
//! | [`Frame::Heartbeat`] | worker → driver | liveness beacon, sent every heartbeat interval — including *while evaluating* |
//! | [`Frame::Shutdown`] | driver → worker | end of session; the worker drains its queue and closes the connection |
//!
//! A [`Frame`] carries [`serde::Value`] payloads, so the protocol stays
//! non-generic. The driver builds no such tree for a job:
//! [`append_dispatch`] writes the job type it owns straight into the
//! connection's out-buffer through `Serialize::write_bin`, byte for byte
//! the frame of the job's `to_value()`. The worker, and the driver's
//! result path, decode a payload into a `Value` and deserialize from it.
//!
//! A frame whose body would exceed [`MAX_FRAME`] is never written: the
//! encoder returns [`ProtoError::Oversized`] and appends nothing, and
//! the caller fails that one job (see `net`).

use std::io::{Read, Write};

use serde::bin::{self, Reader};
use serde::{Serialize, Value};

use crate::sim::JobStatus;

/// Protocol version byte, the first byte of every frame body. Bump on
/// any incompatible change to the frame grammar or message set. (1 was
/// the retired JSON encoding.)
pub const WIRE_VERSION: u8 = 2;

/// Upper bound on a frame body (version byte + payload). Large enough
/// for any config/eval in this workspace with orders of magnitude to
/// spare; small enough that a corrupt length prefix cannot make the
/// reader allocate gigabytes.
pub const MAX_FRAME: usize = 1 << 20;

/// Upper bound on the slot count a worker may advertise in its
/// `HelloAck`. The driver sizes per-connection buffers from that count,
/// so a larger one is refused as `Garbage` instead of trusted.
pub const MAX_SLOTS: usize = 1024;

/// The argument of [`FrameEncoder::new`]. The wire has one payload
/// encoding, so this type has one variant; it remains only because the
/// benchmark package calls `FrameEncoder::new(Codec::Binary)`, and goes
/// with that call in the next change to the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Compact binary payloads (varints, raw `f64`).
    Binary,
}

/// One protocol message. See the module docs for the frame grammar and
/// the direction/purpose of each variant.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Session open (driver → worker). `payload` is application data the
    /// worker's session factory interprets (e.g. benchmark name + seed).
    Hello {
        /// Application handshake data, opaque to the protocol layer.
        payload: Value,
    },
    /// Session accept/reject (worker → driver). `slots` is how many jobs
    /// the worker pipelines concurrently (`--slots N`, default 1); a
    /// `Some` in `error` rejects the session and the driver must not
    /// dispatch.
    HelloAck {
        /// Concurrent in-flight job capacity this worker offers.
        slots: usize,
        /// `Some(reason)` when the worker rejects the handshake.
        error: Option<String>,
        /// Echo of the session epoch the driver offered via the
        /// `"_epoch"` key in its `Hello` payload (see `net`): 0 for a
        /// first connection, incremented per redial. `None` when the
        /// hello carried no epoch (a non-object payload); the driver
        /// treats that as epoch 0.
        epoch: Option<u64>,
    },
    /// One unit of work (driver → worker).
    Dispatch {
        /// Driver-assigned id; echoed verbatim in the matching `Result`.
        job_id: u64,
        /// Serialized job, opaque to the protocol layer.
        payload: Value,
    },
    /// Terminal outcome of a dispatched job (worker → driver).
    Result {
        /// The id from the matching `Dispatch`.
        job_id: u64,
        /// How the evaluation ended.
        status: JobStatus,
        /// Serialized output; `Value::Null` when the job produced none.
        output: Value,
    },
    /// Driver → worker: the driver abandoned a job (lease expiry); any
    /// eventual `Result` for it is stale. Worker → driver: the worker is
    /// shutting down and dropped this queued job without running it —
    /// the driver reclaims it immediately instead of waiting for a
    /// disconnect.
    Cancel {
        /// The id of the abandoned job.
        job_id: u64,
    },
    /// Liveness beacon (worker → driver), sent on a timer independent of
    /// the evaluation loop so long-running jobs don't look like deaths.
    Heartbeat {
        /// Monotone per-connection sequence number.
        seq: u64,
    },
    /// End of session (driver → worker); the worker acknowledges any
    /// queued-but-unrun dispatches with `Cancel` frames, finishes the
    /// job already evaluating (if any), and closes the connection.
    Shutdown,
}

/// Typed framing/decoding failure. Every variant means the connection is
/// unusable from this point on — the caller tears it down.
#[derive(Debug, PartialEq)]
pub enum ProtoError {
    /// The peer closed the connection cleanly between frames (EOF at a
    /// frame boundary). The only non-fault way a stream ends.
    Closed,
    /// The stream ended mid-frame: a torn write or a mid-frame crash.
    Truncated {
        /// Bytes the frame header promised.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME`] (corrupt header or a
    /// non-protocol peer).
    Oversized {
        /// The declared body length.
        len: usize,
    },
    /// The version byte is not [`WIRE_VERSION`].
    BadVersion {
        /// The version byte received.
        got: u8,
    },
    /// The payload does not decode as a [`Frame`] (includes the empty
    /// body: a frame has at least a version byte and one payload byte).
    Garbage(String),
    /// An underlying socket error.
    Io(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Closed => write!(f, "connection closed by peer"),
            ProtoError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            ProtoError::Oversized { len } => {
                write!(f, "oversized frame: {len} bytes exceeds {MAX_FRAME}")
            }
            ProtoError::BadVersion { got } => {
                write!(f, "bad protocol version {got} (want {WIRE_VERSION})")
            }
            ProtoError::Garbage(msg) => write!(f, "garbage frame: {msg}"),
            ProtoError::Io(msg) => write!(f, "socket error: {msg}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e.to_string())
    }
}

impl From<serde::Error> for ProtoError {
    fn from(e: serde::Error) -> Self {
        ProtoError::Garbage(e.to_string())
    }
}

fn garbage(msg: impl Into<String>) -> ProtoError {
    ProtoError::Garbage(msg.into())
}

const TAG_HELLO: u8 = 0;
const TAG_HELLO_ACK: u8 = 1;
const TAG_DISPATCH: u8 = 2;
const TAG_RESULT: u8 = 3;
const TAG_CANCEL: u8 = 4;
const TAG_HEARTBEAT: u8 = 5;
const TAG_SHUTDOWN: u8 = 6;

fn status_to_byte(s: JobStatus) -> u8 {
    match s {
        JobStatus::Succeeded => 0,
        JobStatus::Crashed => 1,
        JobStatus::Errored => 2,
        JobStatus::TimedOut => 3,
        JobStatus::Orphaned => 4,
        JobStatus::Corrupt => 5,
    }
}

fn status_from_byte(b: u8) -> Result<JobStatus, ProtoError> {
    Ok(match b {
        0 => JobStatus::Succeeded,
        1 => JobStatus::Crashed,
        2 => JobStatus::Errored,
        3 => JobStatus::TimedOut,
        4 => JobStatus::Orphaned,
        5 => JobStatus::Corrupt,
        _ => return Err(garbage(format!("unknown job status byte {b}"))),
    })
}

/// The payload of a `Dispatch` frame: every one, whether its job comes
/// as a [`Value`] or as the driver's own job type, is written here.
fn put_dispatch<T: Serialize + ?Sized>(buf: &mut Vec<u8>, job_id: u64, payload: &T) {
    buf.push(TAG_DISPATCH);
    bin::put_varint(buf, job_id);
    payload.write_bin(buf);
}

fn put_payload(buf: &mut Vec<u8>, frame: &Frame) {
    match frame {
        Frame::Hello { payload } => {
            buf.push(TAG_HELLO);
            payload.write_bin(buf);
        }
        Frame::HelloAck {
            slots,
            error,
            epoch,
        } => {
            buf.push(TAG_HELLO_ACK);
            bin::put_varint(buf, *slots as u64);
            match error {
                None => buf.push(0),
                Some(reason) => {
                    buf.push(1);
                    bin::put_str(buf, reason);
                }
            }
            match epoch {
                None => buf.push(0),
                Some(e) => {
                    buf.push(1);
                    bin::put_varint(buf, *e);
                }
            }
        }
        Frame::Dispatch { job_id, payload } => put_dispatch(buf, *job_id, payload),
        Frame::Result {
            job_id,
            status,
            output,
        } => {
            buf.push(TAG_RESULT);
            bin::put_varint(buf, *job_id);
            buf.push(status_to_byte(*status));
            output.write_bin(buf);
        }
        Frame::Cancel { job_id } => {
            buf.push(TAG_CANCEL);
            bin::put_varint(buf, *job_id);
        }
        Frame::Heartbeat { seq } => {
            buf.push(TAG_HEARTBEAT);
            bin::put_varint(buf, *seq);
        }
        Frame::Shutdown => buf.push(TAG_SHUTDOWN),
    }
}

fn decode_payload(payload: &[u8]) -> Result<Frame, ProtoError> {
    let mut r = Reader::new(payload);
    let frame = match r.u8()? {
        TAG_HELLO => Frame::Hello {
            payload: r.value()?,
        },
        TAG_HELLO_ACK => {
            let slots = r.varint()? as usize;
            let error = match r.u8()? {
                0 => None,
                1 => Some(r.string()?),
                b => return Err(garbage(format!("bad option byte {b}"))),
            };
            let epoch = match r.u8()? {
                0 => None,
                1 => Some(r.varint()?),
                b => return Err(garbage(format!("bad option byte {b}"))),
            };
            Frame::HelloAck {
                slots,
                error,
                epoch,
            }
        }
        TAG_DISPATCH => Frame::Dispatch {
            job_id: r.varint()?,
            payload: r.value()?,
        },
        TAG_RESULT => Frame::Result {
            job_id: r.varint()?,
            status: status_from_byte(r.u8()?)?,
            output: r.value()?,
        },
        TAG_CANCEL => Frame::Cancel {
            job_id: r.varint()?,
        },
        TAG_HEARTBEAT => Frame::Heartbeat { seq: r.varint()? },
        TAG_SHUTDOWN => Frame::Shutdown,
        tag => return Err(garbage(format!("unknown binary frame tag {tag}"))),
    };
    if !r.done() {
        return Err(garbage("trailing bytes after binary frame"));
    }
    Ok(frame)
}

// ---------------------------------------------------------------------------
// Encoder / decoder with reusable scratch buffers
// ---------------------------------------------------------------------------

/// Appends one frame to `out`: length prefix, version byte, then what
/// `payload` writes. A body over [`MAX_FRAME`] is
/// [`ProtoError::Oversized`] and leaves `out` as it was.
fn append(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) -> Result<(), ProtoError> {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    out.push(WIRE_VERSION);
    payload(out);
    let len = out.len() - start - 4;
    if len > MAX_FRAME {
        out.truncate(start);
        out.shrink_to(start);
        return Err(ProtoError::Oversized { len });
    }
    out[start..start + 4].copy_from_slice(&(len as u32).to_be_bytes());
    Ok(())
}

/// Appends the full wire bytes of `frame` to `out`; on
/// [`ProtoError::Oversized`] nothing is appended.
pub(crate) fn append_frame(out: &mut Vec<u8>, frame: &Frame) -> Result<(), ProtoError> {
    append(out, |buf| put_payload(buf, frame))
}

/// Appends the `Dispatch` frame of job `job_id` to `out`, writing
/// `payload` straight into it with no [`Value`] in between: byte for
/// byte the frame of `Frame::Dispatch` with `payload.to_value()`. On
/// [`ProtoError::Oversized`] nothing is appended.
pub fn append_dispatch<T: Serialize + ?Sized>(
    out: &mut Vec<u8>,
    job_id: u64,
    payload: &T,
) -> Result<(), ProtoError> {
    append(out, |buf| put_dispatch(buf, job_id, payload))
}

/// Encodes frames into a reused scratch buffer, so steady-state framing
/// is allocation-free. One encoder per connection write half: encoding
/// into one buffer keeps concurrent writers (the worker's result and
/// heartbeat threads) atomic per frame — each frame is one
/// syscall-sized `write_all` under the writer lock.
#[derive(Debug)]
pub struct FrameEncoder {
    buf: Vec<u8>,
}

impl FrameEncoder {
    /// A new encoder (see [`Codec`] for why it takes one).
    pub fn new(_: Codec) -> Self {
        FrameEncoder {
            buf: Vec::with_capacity(256),
        }
    }

    /// Encodes `frame` into the scratch buffer and returns the full wire
    /// bytes (length prefix included), valid until the next call; a body
    /// over [`MAX_FRAME`] is [`ProtoError::Oversized`].
    pub fn try_encode(&mut self, frame: &Frame) -> Result<&[u8], ProtoError> {
        self.buf.clear();
        append_frame(&mut self.buf, frame)?;
        Ok(&self.buf)
    }

    /// [`try_encode`](Self::try_encode) for a frame known to fit.
    ///
    /// # Panics
    ///
    /// Panics if the frame's body exceeds [`MAX_FRAME`]. Frames whose
    /// size depends on a job or an evaluation go through `try_encode` or
    /// [`append_dispatch`].
    pub fn encode(&mut self, frame: &Frame) -> &[u8] {
        match self.try_encode(frame) {
            Ok(bytes) => bytes,
            Err(e) => panic!("{e}"),
        }
    }

    /// Encodes `frame` and writes it to `w` as a single `write_all`.
    pub fn write_to<W: Write>(&mut self, w: &mut W, frame: &Frame) -> Result<(), ProtoError> {
        w.write_all(self.try_encode(frame)?)?;
        Ok(())
    }
}

/// How many spare bytes [`FrameDecoder::read_ahead`] offers the stream
/// per `read`: room for a burst of small frames in one syscall.
const READ_AHEAD: usize = 8 * 1024;

/// Decodes frames from a stream through one reused buffer.
///
/// Three ways to pull frames, over the same buffer and the same error
/// rules:
///
/// - [`read_from`](FrameDecoder::read_from) asks the stream for exactly
///   the bytes of one frame, so the stream is left at the next frame
///   boundary and any reader may continue from there.
/// - [`read_ahead`](FrameDecoder::read_ahead) asks for as much as fits,
///   so a burst of frames costs one `read`. Bytes past the frame stay in
///   this decoder: **the decoder that read ahead on a stream must be the
///   one that keeps reading it** (every call consumes the buffered bytes
///   first). That is why the handshake hands its decoder to the session
///   instead of starting a fresh one.
/// - [`buffered`](FrameDecoder::buffered) and
///   [`read_some`](FrameDecoder::read_some) are `read_ahead` split in
///   two for a readiness loop: decode what is already held, and do one
///   `read` when `poll` says the stream has more.
#[derive(Debug)]
pub struct FrameDecoder {
    /// Received bytes; `buf[start..end]` are not yet consumed.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameDecoder {
    /// A new, empty decoder.
    pub fn new() -> Self {
        FrameDecoder {
            buf: Vec::new(),
            start: 0,
            end: 0,
        }
    }

    /// Reads one frame from `r`, taking no byte past its end. Returns
    /// [`ProtoError::Closed`] on a clean EOF at a frame boundary; every
    /// other failure names what went wrong.
    pub fn read_from<R: Read>(&mut self, r: &mut R) -> Result<Frame, ProtoError> {
        self.read(r, false)
    }

    /// Reads one frame from `r`, buffering whatever else the stream has
    /// ready (see the type docs for the one-decoder-per-stream rule).
    /// Same results and errors as [`read_from`](FrameDecoder::read_from).
    pub fn read_ahead<R: Read>(&mut self, r: &mut R) -> Result<Frame, ProtoError> {
        self.read(r, true)
    }

    /// Decodes the next frame if every one of its bytes is already
    /// buffered; `Ok(None)` when more are needed. Never reads. A header
    /// that can never start a frame (zero-length or oversized body) is an
    /// error as soon as its four bytes are here, as it is for the
    /// blocking readers.
    pub fn buffered(&mut self) -> Result<Option<Frame>, ProtoError> {
        let Some(body_len) = self.header()? else {
            return Ok(None);
        };
        if self.end - self.start < 4 + body_len {
            return Ok(None);
        }
        let body = &self.buf[self.start + 4..self.start + 4 + body_len];
        self.start += 4 + body_len;
        match body[0] {
            WIRE_VERSION => decode_payload(&body[1..]).map(Some),
            got => Err(ProtoError::BadVersion { got }),
        }
    }

    /// One `read` from `r` into the spare room (at least the rest of the
    /// frame being assembled, and at least the read-ahead); returns the
    /// byte count, `Ok(0)` being EOF. Call it when
    /// [`buffered`](FrameDecoder::buffered) has nothing and `r` is
    /// readable, and it does not block.
    pub fn read_some<R: Read>(&mut self, r: &mut R) -> Result<usize, ProtoError> {
        self.read_into(r, true)
    }

    /// What the stream ending here means: [`ProtoError::Closed`] at a
    /// frame boundary, [`ProtoError::Truncated`] inside a frame.
    pub fn eof(&self) -> ProtoError {
        let held = self.end - self.start;
        match self.header() {
            _ if held == 0 => ProtoError::Closed,
            Ok(Some(body_len)) => ProtoError::Truncated {
                expected: body_len,
                got: held - 4,
            },
            _ => ProtoError::Truncated {
                expected: 4,
                got: held,
            },
        }
    }

    fn read<R: Read>(&mut self, r: &mut R, ahead: bool) -> Result<Frame, ProtoError> {
        loop {
            if let Some(frame) = self.buffered()? {
                return Ok(frame);
            }
            if self.read_into(r, ahead)? == 0 {
                return Err(self.eof());
            }
        }
    }

    /// The body length the buffered header announces; `None` until all
    /// four header bytes are here.
    fn header(&self) -> Result<Option<usize>, ProtoError> {
        if self.end - self.start < 4 {
            return Ok(None);
        }
        let header = &self.buf[self.start..self.start + 4];
        match u32::from_be_bytes(header.try_into().expect("4-byte slice")) as usize {
            0 => Err(garbage("zero-length frame body")),
            len if len > MAX_FRAME => Err(ProtoError::Oversized { len }),
            len => Ok(Some(len)),
        }
    }

    /// One `read` (retried on `Interrupted`). With `ahead` the stream is
    /// offered all the spare room; without, exactly the bytes the next
    /// decoding step lacks (the rest of the header, then of the frame).
    fn read_into<R: Read>(&mut self, r: &mut R, ahead: bool) -> Result<usize, ProtoError> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        let held = self.end - self.start;
        let want = match self.header() {
            Ok(Some(body_len)) => 4 + body_len,
            _ => 4,
        }
        .max(held + 1);
        let room = if ahead { want.max(READ_AHEAD) } else { want };
        if self.buf.len() < self.start + room {
            // The frame being assembled moves to the front, so the
            // buffer never outgrows one frame plus the read-ahead.
            self.buf.copy_within(self.start..self.end, 0);
            self.end = held;
            self.start = 0;
            if self.buf.len() < room {
                self.buf.resize(room, 0);
            }
        }
        let limit = if ahead {
            self.buf.len()
        } else {
            self.start + want
        };
        loop {
            match r.read(&mut self.buf[self.end..limit]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// Encodes one frame into its full wire representation (length prefix
/// included), ready for a single `write_all`. Allocates a fresh buffer;
/// steady-state paths hold a [`FrameEncoder`] instead.
///
/// # Panics
///
/// Panics, like [`FrameEncoder::encode`], if the body exceeds
/// [`MAX_FRAME`].
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut enc = FrameEncoder::new(Codec::Binary);
    enc.encode(frame);
    enc.buf
}

/// Writes one frame to `w` (single `write_all`), allocating like
/// [`encode_frame`]; a body over [`MAX_FRAME`] writes nothing and is
/// [`ProtoError::Oversized`].
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), ProtoError> {
    let mut buf = Vec::new();
    append_frame(&mut buf, frame)?;
    w.write_all(&buf)?;
    Ok(())
}

/// Reads one frame from `r`. Returns [`ProtoError::Closed`] on a clean
/// EOF at a frame boundary; every other failure names what went wrong. Steady-state paths hold a
/// [`FrameDecoder`] to reuse the body buffer.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, ProtoError> {
    FrameDecoder::new().read_from(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use serde::Number;
    use serde_json::json;
    use std::io::Cursor;

    fn all_variants() -> Vec<Frame> {
        vec![
            Frame::Hello {
                payload: json!({"bench": "counting-ones", "seed": 7, "sleep_ms": 0}),
            },
            Frame::HelloAck {
                slots: 1,
                error: None,
                epoch: None,
            },
            Frame::HelloAck {
                slots: 0,
                error: Some("unknown benchmark `nope`".to_string()),
                epoch: None,
            },
            Frame::HelloAck {
                slots: 4,
                error: None,
                epoch: Some(3),
            },
            Frame::Dispatch {
                job_id: 42,
                payload: json!({"config": vec![1, 0, 1], "resource": 9.0}),
            },
            Frame::Result {
                job_id: 42,
                status: JobStatus::Succeeded,
                output: json!({"value": 0.25, "test_value": 0.3, "cost": 1.5}),
            },
            Frame::Result {
                job_id: 43,
                status: JobStatus::Errored,
                output: Value::Null,
            },
            Frame::Cancel { job_id: 42 },
            Frame::Heartbeat { seq: 9001 },
            Frame::Shutdown,
        ]
    }

    /// The grammar's pin: one frame per shape, next to the exact bytes
    /// the binary encoder wrote for it while the JSON codec still existed
    /// beside it. Any difference here is a wire-format break.
    fn golden_frames() -> Vec<(Frame, &'static str)> {
        // A nested object and a negative int, once per status byte.
        let result = |job_id: u64, status: JobStatus| Frame::Result {
            job_id,
            status,
            output: json!({"value": 0.25, "meta": json!({"rung": -2})}),
        };
        vec![
            (
                Frame::Hello {
                    payload: json!({"bench": "counting-ones", "seed": 7}),
                },
                "00 00 00 20 02 00 09 02 05 62 65 6e 63 68 06 0d 63 6f 75 6e 74 69 6e 67 \
                 2d 6f 6e 65 73 04 73 65 65 64 03 07",
            ),
            (
                Frame::HelloAck {
                    slots: 4,
                    error: None,
                    epoch: Some(3),
                },
                "00 00 00 06 02 01 04 00 01 03",
            ),
            (
                Frame::HelloAck {
                    slots: 0,
                    error: Some("no".to_string()),
                    epoch: None,
                },
                "00 00 00 08 02 01 00 01 02 6e 6f 00",
            ),
            (
                // `config` takes the raw-f64 array fast path (tag 0x08).
                Frame::Dispatch {
                    job_id: 300,
                    payload: json!({"config": vec![0.5, -1.25], "resource": 27}),
                },
                "00 00 00 2a 02 02 ac 02 09 02 06 63 6f 6e 66 69 67 08 02 \
                 00 00 00 00 00 00 e0 3f 00 00 00 00 00 00 f4 bf \
                 08 72 65 73 6f 75 72 63 65 03 1b",
            ),
            (
                result(7, JobStatus::Succeeded),
                "00 00 00 23 02 03 07 00 09 02 04 6d 65 74 61 09 01 04 72 75 6e 67 04 03 \
                 05 76 61 6c 75 65 05 00 00 00 00 00 00 d0 3f",
            ),
            (
                result(8, JobStatus::Crashed),
                "00 00 00 23 02 03 08 01 09 02 04 6d 65 74 61 09 01 04 72 75 6e 67 04 03 \
                 05 76 61 6c 75 65 05 00 00 00 00 00 00 d0 3f",
            ),
            (
                result(9, JobStatus::Errored),
                "00 00 00 23 02 03 09 02 09 02 04 6d 65 74 61 09 01 04 72 75 6e 67 04 03 \
                 05 76 61 6c 75 65 05 00 00 00 00 00 00 d0 3f",
            ),
            (
                result(10, JobStatus::TimedOut),
                "00 00 00 23 02 03 0a 03 09 02 04 6d 65 74 61 09 01 04 72 75 6e 67 04 03 \
                 05 76 61 6c 75 65 05 00 00 00 00 00 00 d0 3f",
            ),
            (
                result(11, JobStatus::Orphaned),
                "00 00 00 23 02 03 0b 04 09 02 04 6d 65 74 61 09 01 04 72 75 6e 67 04 03 \
                 05 76 61 6c 75 65 05 00 00 00 00 00 00 d0 3f",
            ),
            (
                result(12, JobStatus::Corrupt),
                "00 00 00 23 02 03 0c 05 09 02 04 6d 65 74 61 09 01 04 72 75 6e 67 04 03 \
                 05 76 61 6c 75 65 05 00 00 00 00 00 00 d0 3f",
            ),
            (Frame::Cancel { job_id: 42 }, "00 00 00 03 02 04 2a"),
            (Frame::Heartbeat { seq: 9001 }, "00 00 00 04 02 05 a9 46"),
            (Frame::Shutdown, "00 00 00 02 02 06"),
        ]
    }

    #[test]
    fn golden_frames_encode_and_decode_byte_for_byte() {
        let mut enc = FrameEncoder::new(Codec::Binary);
        for (frame, hex) in golden_frames() {
            let bytes: Vec<u8> = hex
                .split_whitespace()
                .map(|b| u8::from_str_radix(b, 16).unwrap())
                .collect();
            assert_eq!(enc.encode(&frame), &bytes[..], "encode {frame:?}");
            assert_eq!(
                read_frame(&mut Cursor::new(&bytes)).unwrap(),
                frame,
                "decode {hex}"
            );
        }
    }

    #[test]
    fn every_variant_round_trips() {
        for frame in all_variants() {
            let mut cur = Cursor::new(encode_frame(&frame));
            assert_eq!(read_frame(&mut cur).unwrap(), frame);
        }
    }

    #[test]
    fn frames_round_trip_back_to_back_on_one_stream() {
        let mut buf = Vec::new();
        let mut enc = FrameEncoder::new(Codec::Binary);
        for frame in all_variants() {
            enc.write_to(&mut buf, &frame).unwrap();
        }
        let mut cur = Cursor::new(buf);
        let mut dec = FrameDecoder::new();
        for frame in all_variants() {
            assert_eq!(dec.read_from(&mut cur).unwrap(), frame);
        }
        assert_eq!(dec.read_from(&mut cur).unwrap_err(), ProtoError::Closed);
    }

    #[test]
    fn clean_eof_is_closed_not_error() {
        let mut cur = Cursor::new(Vec::<u8>::new());
        assert_eq!(read_frame(&mut cur).unwrap_err(), ProtoError::Closed);
    }

    #[test]
    fn torn_write_is_truncated() {
        // Mirror of the WAL torn-tail tests: cut the encoded frame at
        // every possible byte boundary, for every frame type, and demand
        // a typed error — never a bogus frame or a panic.
        for frame in all_variants() {
            let full = encode_frame(&frame);
            for cut in 1..full.len() {
                let mut cur = Cursor::new(full[..cut].to_vec());
                let err = read_frame(&mut cur).unwrap_err();
                assert!(
                    matches!(err, ProtoError::Truncated { .. }),
                    "{frame:?} cut at {cut}: got {err:?}"
                );
            }
        }
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        let mut cur = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cur).unwrap_err(),
            ProtoError::Oversized {
                len: u32::MAX as usize
            }
        );
    }

    #[test]
    fn zero_length_body_is_garbage() {
        let mut cur = Cursor::new(0u32.to_be_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut cur).unwrap_err(),
            ProtoError::Garbage(_)
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        // Version 1 is the retired JSON encoding: refused like any other.
        for got in [1, WIRE_VERSION + 1] {
            let mut buf = encode_frame(&Frame::Shutdown);
            buf[4] = got;
            let mut cur = Cursor::new(buf);
            assert_eq!(
                read_frame(&mut cur).unwrap_err(),
                ProtoError::BadVersion { got }
            );
        }
    }

    #[test]
    fn binary_garbage_is_rejected_not_panicked() {
        // Corrupt the binary body at every byte position with every
        // bit flipped once; the decoder must return a typed error or a
        // (different) well-formed frame, never panic or loop.
        let nested = Value::Array(vec![
            Value::Number(Number::PosInt(1)),
            Value::Number(Number::NegInt(-2)),
            Value::Number(Number::Float(3.5)),
            Value::String("s".to_string()),
            Value::Null,
            Value::Bool(true),
            json!({"k": vec![0.25, 0.5]}),
        ]);
        let mut obj = serde::Map::new();
        obj.insert("nested".to_string(), nested);
        let frame = Frame::Result {
            job_id: u64::MAX,
            status: JobStatus::Corrupt,
            output: Value::Object(obj),
        };
        let full = encode_frame(&frame);
        for pos in 4..full.len() {
            for bit in 0..8 {
                let mut buf = full.clone();
                buf[pos] ^= 1 << bit;
                let mut cur = Cursor::new(buf);
                let _ = read_frame(&mut cur);
            }
        }
        // Truncating the *body* (with a matching length prefix) is
        // interior garbage, not a torn write.
        for cut in 5..full.len() {
            let mut buf = full[..cut].to_vec();
            let body_len = (cut - 4) as u32;
            buf[..4].copy_from_slice(&body_len.to_be_bytes());
            let mut cur = Cursor::new(buf);
            assert!(
                matches!(read_frame(&mut cur).unwrap_err(), ProtoError::Garbage(_)),
                "interior cut at {cut}"
            );
        }
    }

    #[test]
    fn binary_trailing_bytes_are_garbage() {
        let mut buf = encode_frame(&Frame::Heartbeat { seq: 7 });
        buf.push(0);
        let body_len = (buf.len() - 4) as u32;
        buf[..4].copy_from_slice(&body_len.to_be_bytes());
        let mut cur = Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cur).unwrap_err(),
            ProtoError::Garbage(_)
        ));
    }

    #[test]
    fn f64_arrays_take_the_raw_fast_path_and_round_trip_bitwise() {
        let floats: Vec<f64> = vec![0.1, -1.5e308, 5e-324, 0.0, -0.0, 1.0 / 3.0];
        let frame = Frame::Dispatch {
            job_id: 1,
            payload: json!({"config": floats.clone()}),
        };
        let buf = encode_frame(&frame);
        // The fast path ships 8 bytes per element with no per-element
        // tag: length prefix (4) + version + frame tag + job_id varint
        // + object tag + entry count + "config" key (1 + 6) + array tag
        // + element count + 8 bytes per float, exactly.
        let expected = 4 + 1 + 1 + 1 + 1 + 1 + (1 + 6) + 1 + 1 + 8 * floats.len();
        assert_eq!(buf.len(), expected);
        let mut cur = Cursor::new(buf);
        let back = read_frame(&mut cur).unwrap();
        match &back {
            Frame::Dispatch { payload, .. } => {
                let arr = payload["config"].as_array().unwrap();
                for (got, want) in arr.iter().zip(&floats) {
                    assert_eq!(got.as_f64().unwrap().to_bits(), want.to_bits());
                }
            }
            other => panic!("wrong frame {other:?}"),
        }
        assert_eq!(back, frame);
    }

    #[test]
    fn varint_boundaries_round_trip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let frame = Frame::Heartbeat { seq: v };
            let buf = encode_frame(&frame);
            let mut cur = Cursor::new(buf);
            assert_eq!(read_frame(&mut cur).unwrap(), frame);
        }
    }

    #[test]
    fn encoder_scratch_buffer_is_reused() {
        let mut enc = FrameEncoder::new(Codec::Binary);
        let big = Frame::Dispatch {
            job_id: 1,
            payload: json!({"config": vec![0.5f64; 64]}),
        };
        enc.encode(&big);
        let cap = enc.buf.capacity();
        for seq in 0..1000 {
            enc.encode(&Frame::Heartbeat { seq });
        }
        assert_eq!(enc.buf.capacity(), cap, "scratch buffer was reallocated");
    }

    /// A finite float (odd mantissa times a negative power of two), so a
    /// decoded frame compares equal to the one encoded (`NaN != NaN`).
    fn arb_float(rng: &mut StdRng) -> f64 {
        let mantissa: i64 = rng.gen_range(-(1i64 << 52)..(1i64 << 52)) | 1;
        let exp: i32 = rng.gen_range(-60..0);
        mantissa as f64 * 2f64.powi(exp)
    }

    /// Builds an arbitrary `Value` tree from an RNG.
    fn arb_value(rng: &mut StdRng, depth: usize) -> Value {
        let pick = if depth >= 3 {
            rng.gen_range(0..6)
        } else {
            rng.gen_range(0..8)
        };
        match pick {
            0 => Value::Null,
            1 => Value::Bool(rng.gen_range(0..2) == 1),
            2 => Value::Number(Number::PosInt(rng.gen::<u64>())),
            3 => Value::Number(Number::NegInt(-(rng.gen_range(1..i64::MAX)))),
            4 => Value::Number(Number::Float(arb_float(rng))),
            5 => {
                let n = rng.gen_range(0..12);
                Value::String((0..n).map(|_| rng.gen_range(b' '..b'~') as char).collect())
            }
            6 => {
                let n = rng.gen_range(0..5);
                // Half the arrays are all-float, to exercise tag 0x08.
                if rng.gen_range(0..2) == 0 {
                    Value::Array(
                        (0..n)
                            .map(|_| Value::Number(Number::Float(arb_float(rng))))
                            .collect(),
                    )
                } else {
                    Value::Array((0..n).map(|_| arb_value(rng, depth + 1)).collect())
                }
            }
            _ => {
                let n = rng.gen_range(0..5);
                let mut map = serde::Map::new();
                for i in 0..n {
                    map.insert(format!("k{i}"), arb_value(rng, depth + 1));
                }
                Value::Object(map)
            }
        }
    }

    fn arb_frame(rng: &mut StdRng) -> Frame {
        match rng.gen_range(0..7) {
            0 => Frame::Hello {
                payload: arb_value(rng, 0),
            },
            1 => Frame::HelloAck {
                slots: rng.gen_range(0..64),
                error: if rng.gen_range(0..2) == 0 {
                    None
                } else {
                    Some("reason".to_string())
                },
                epoch: if rng.gen_range(0..2) == 0 {
                    None
                } else {
                    Some(rng.gen::<u64>())
                },
            },
            2 => Frame::Dispatch {
                job_id: rng.gen::<u64>(),
                payload: arb_value(rng, 0),
            },
            3 => Frame::Result {
                job_id: rng.gen::<u64>(),
                status: status_from_byte(rng.gen_range(0..6)).unwrap(),
                output: arb_value(rng, 0),
            },
            4 => Frame::Cancel {
                job_id: rng.gen::<u64>(),
            },
            5 => Frame::Heartbeat {
                seq: rng.gen::<u64>(),
            },
            _ => Frame::Shutdown,
        }
    }

    /// A stream that hands its bytes out in scheduled pieces: the
    /// `i`-th `read` returns at most `chunks[i]` bytes (then whatever is
    /// asked for once the schedule runs out), the way a socket delivers
    /// segments with no regard for frame boundaries.
    struct Chunked<'a> {
        bytes: &'a [u8],
        chunks: std::vec::IntoIter<usize>,
    }

    impl<'a> Chunked<'a> {
        fn new(bytes: &'a [u8], chunks: Vec<usize>) -> Self {
            Chunked {
                bytes,
                chunks: chunks.into_iter(),
            }
        }
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let chunk = self.chunks.next().unwrap_or(usize::MAX);
            let n = chunk.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// The three ways a [`FrameDecoder`] pulls frames.
    #[derive(Clone, Copy, Debug)]
    enum Pull {
        Exact,
        Ahead,
        /// `buffered` until it has nothing, then one `read_some`.
        Polled,
    }

    /// Decodes `r` to its end: every frame, then the error that ended it.
    fn decode_all<R: Read>(r: &mut R, pull: Pull) -> (Vec<Frame>, ProtoError) {
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        loop {
            let next = match pull {
                Pull::Exact => dec.read_from(r).map(Some),
                Pull::Ahead => dec.read_ahead(r).map(Some),
                Pull::Polled => match dec.buffered() {
                    Ok(None) => match dec.read_some(r) {
                        Ok(0) => Err(dec.eof()),
                        Ok(_) => Ok(None),
                        Err(e) => Err(e),
                    },
                    other => other,
                },
            };
            match next {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => {}
                Err(e) => return (frames, e),
            }
        }
    }

    proptest::proptest! {
        /// The read-ahead reader, and the same reader split into
        /// `buffered` + `read_some`, are the exact reader with fewer
        /// syscalls: over any stream of frames — whole, cut short
        /// mid-frame, or ending in an oversized header — delivered in
        /// any pieces, they yield the same frames and the same final
        /// `Closed` / `Truncated{expected, got}` / `Oversized`.
        #[test]
        fn read_ahead_matches_the_exact_reader_under_any_chunking(
            seed in proptest::prelude::any::<u64>()
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut stream = Vec::new();
            for _ in 0..rng.gen_range(1..8usize) {
                stream.extend_from_slice(&encode_frame(&arb_frame(&mut rng)));
            }
            match rng.gen_range(0..3) {
                0 => {}
                1 => stream.truncate(rng.gen_range(0..stream.len())),
                _ => {
                    let len = (MAX_FRAME + 1 + rng.gen_range(0..1000usize)) as u32;
                    stream.extend_from_slice(&len.to_be_bytes());
                    stream.extend_from_slice(&[0u8; 16]);
                }
            }
            let expected = decode_all(&mut Cursor::new(&stream), Pull::Exact);
            proptest::prop_assert!(matches!(
                expected.1,
                ProtoError::Closed | ProtoError::Truncated { .. } | ProtoError::Oversized { .. }
            ));
            // One read boundary at every byte offset (a 0-byte read
            // would be an EOF, not a boundary)...
            for split in 1..=stream.len() {
                for pull in [Pull::Ahead, Pull::Polled] {
                    let got = decode_all(&mut Chunked::new(&stream, vec![split]), pull);
                    proptest::prop_assert_eq!(&got, &expected, "{:?} split at {}", pull, split);
                }
            }
            // ...and random boundaries all the way through, for every
            // reader (the exact one must not care either).
            for _ in 0..8 {
                let chunks: Vec<usize> =
                    (0..stream.len() + 1).map(|_| rng.gen_range(1..40usize)).collect();
                for pull in [Pull::Ahead, Pull::Exact, Pull::Polled] {
                    let got = decode_all(&mut Chunked::new(&stream, chunks.clone()), pull);
                    proptest::prop_assert_eq!(&got, &expected, "{:?} chunks {:?}", pull, &chunks);
                }
            }
        }
    }

    #[test]
    fn one_shot_reads_take_exactly_one_frame() {
        // `read_frame` / `read_from` may be called with a fresh decoder
        // per frame on one stream (tests and the replay harness do), so
        // they must leave the stream at the next frame boundary.
        let mut buf = Vec::new();
        for frame in all_variants() {
            buf.extend_from_slice(&encode_frame(&frame));
        }
        let mut cur = Cursor::new(buf);
        for frame in all_variants() {
            let at = cur.position() as usize;
            assert_eq!(read_frame(&mut cur).unwrap(), frame);
            let len = encode_frame(&frame).len();
            assert_eq!(cur.position() as usize, at + len, "over-read {frame:?}");
        }
        assert_eq!(read_frame(&mut cur).unwrap_err(), ProtoError::Closed);
    }

    #[test]
    fn an_exact_read_after_a_read_ahead_drains_the_buffer_first() {
        let ack = Frame::HelloAck {
            slots: 2,
            error: None,
            epoch: Some(0),
        };
        let beat = Frame::Heartbeat { seq: 1 };
        let mut buf = encode_frame(&ack);
        buf.extend_from_slice(&encode_frame(&beat));
        buf.extend_from_slice(&encode_frame(&Frame::Shutdown));
        let mut cur = Cursor::new(buf);
        let mut dec = FrameDecoder::new();
        // The handshake-handover case: both frames arrive in one read.
        assert_eq!(dec.read_ahead(&mut cur).unwrap(), ack);
        assert_eq!(cur.position() as usize, cur.get_ref().len(), "read ahead");
        assert_eq!(dec.read_from(&mut cur).unwrap(), beat);
        assert_eq!(dec.read_ahead(&mut cur).unwrap(), Frame::Shutdown);
        assert_eq!(dec.read_from(&mut cur).unwrap_err(), ProtoError::Closed);
    }

    #[test]
    fn helloack_without_its_epoch_is_garbage() {
        // The epoch is a required field: an ack that ends right after
        // opt_str(error) is malformed, not an epoch-less peer.
        let mut buf = encode_frame(&Frame::HelloAck {
            slots: 2,
            error: None,
            epoch: None,
        });
        buf.pop();
        let body_len = (buf.len() - 4) as u32;
        buf[..4].copy_from_slice(&body_len.to_be_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)).unwrap_err(),
            ProtoError::Garbage(_)
        ));
    }

    proptest::proptest! {
        /// Decoder hostility: a stream of pure random bytes must produce
        /// typed [`ProtoError`]s (or, vanishingly rarely, a well-formed
        /// frame) — never a panic, hang, or huge allocation.
        #[test]
        fn random_bytes_never_panic_the_decoder(seed in proptest::prelude::any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(0..256usize);
            let bytes: Vec<u8> = (0..n).map(|_| rng.gen_range(0..=255u64) as u8).collect();
            let mut cur = Cursor::new(bytes);
            let mut dec = FrameDecoder::new();
            // Drain the stream: each read either yields a frame or a
            // typed error; stop at the first error (connections are
            // torn down there, never resynchronized).
            loop {
                match dec.read_from(&mut cur) {
                    Ok(_) => continue,
                    Err(ProtoError::Closed) => break,
                    Err(
                        ProtoError::Truncated { .. }
                        | ProtoError::Oversized { .. }
                        | ProtoError::BadVersion { .. }
                        | ProtoError::Garbage(_)
                        | ProtoError::Io(_),
                    ) => break,
                }
            }
        }

        /// Same hostility aimed past the framing layer: random payload
        /// bytes wrapped in a *valid* length prefix and version byte, so
        /// the payload decoder itself absorbs the garbage.
        #[test]
        fn random_payloads_fail_typed(seed in proptest::prelude::any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..128usize);
            let mut body = vec![WIRE_VERSION];
            for _ in 0..n {
                body.push(rng.gen_range(0..=255u64) as u8);
            }
            let mut buf = (body.len() as u32).to_be_bytes().to_vec();
            buf.extend_from_slice(&body);
            let mut cur = Cursor::new(buf);
            match read_frame(&mut cur) {
                // Random bytes occasionally spell a real frame (e.g. a
                // Heartbeat is 2 meaningful bytes); that is fine — the
                // property is "no panic, typed error otherwise".
                Ok(_) => {}
                Err(ProtoError::Garbage(_)) => {}
                Err(other) => {
                    proptest::prop_assert!(false, "payload should fail as Garbage, got {:?}", other);
                }
            }
        }
    }

    #[test]
    fn an_oversized_frame_is_an_error_and_appends_nothing() {
        let payload = Value::String("z".repeat(MAX_FRAME));
        let mut out = encode_frame(&Frame::Shutdown);
        let before = out.clone();
        let err = append_dispatch(&mut out, 1, &payload).unwrap_err();
        assert!(matches!(err, ProtoError::Oversized { len } if len > MAX_FRAME));
        assert_eq!(out, before, "nothing appended");
        let frame = Frame::Result {
            job_id: 1,
            status: JobStatus::Succeeded,
            output: payload,
        };
        let mut enc = FrameEncoder::new(Codec::Binary);
        assert!(matches!(
            enc.try_encode(&frame),
            Err(ProtoError::Oversized { .. })
        ));
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &frame).is_err());
        assert!(sink.is_empty(), "nothing written");
        // The encoder is fine afterwards.
        assert_eq!(enc.try_encode(&Frame::Shutdown).unwrap(), &before[..]);
    }

    #[test]
    fn errors_display_and_convert() {
        let e: ProtoError = std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe").into();
        assert!(e.to_string().contains("socket error"));
        assert!(ProtoError::Closed.to_string().contains("closed"));
        assert!(ProtoError::BadVersion { got: 9 }.to_string().contains('9'));
        let src: &dyn std::error::Error = &ProtoError::Oversized { len: 1 };
        assert!(src.to_string().contains("oversized"));
    }
}
