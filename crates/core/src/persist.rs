//! Checkpointing: save and restore tuning state across process restarts.
//!
//! Long tuning runs (the paper's span days) must survive crashes and
//! redeployments. Two snapshot granularities live here:
//!
//! - [`Checkpoint`] — the measurement history alone. Every derived
//!   component — base surrogates, `θ`, the bracket weights, the
//!   incumbent — is a pure function of it, so a restarted run refits them
//!   from the restored history and continues with *fresh* scheduler
//!   state. Cheap and robust, but the continuation is not bit-identical
//!   to the uninterrupted run.
//! - [`RunSnapshot`] — a write-ahead submission log: one
//!   [`SubmissionRecord`] per dispatched job (in dispatch order, with the
//!   evaluation's result), plus the completed measurements. Because every
//!   run is a deterministic function of its seed, [`crate::runner::resume`]
//!   *replays* the run from virtual time zero using the recorded results
//!   instead of re-evaluating, verifies the replayed measurements match
//!   the snapshot exactly, and then continues live — producing a final
//!   [`History`] bit-identical to the uninterrupted run's.
//!
//! Both serialize as JSON. The serializer emits `f64`s in
//! shortest-roundtrip form, so save → load preserves every value exactly
//! — which is what makes the snapshot equality check sound.
//!
//! # WAL durability
//!
//! [`RunSnapshot`] is stored as a **line-oriented write-ahead log**
//! rather than a single JSON blob: a header line carrying the seed,
//! then one record line per submission and per measurement. Every line
//! is prefixed with an FNV-1a checksum of its payload, so [`RunSnapshot::load`]
//! can distinguish the two real-world corruption modes:
//!
//! - a **truncated final line** (the process died mid-`write`) is
//!   expected — the loader drops it and recovers to the last good
//!   record, exactly the contract a WAL promises;
//! - a **damaged interior line** (bit rot, manual editing) is not —
//!   the loader refuses the file instead of silently replaying a hole.
//!
//! Snapshots written by older builds as a single JSON object are still
//! readable: the loader sniffs the first byte and falls back to the
//! legacy blob parser.

use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::history::{History, Measurement};
use crate::levels::ResourceLevels;
use crate::method::JobSpec;
use crate::runner::{CurvePoint, RunResult};

/// Serializable snapshot of a tuning run's durable state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// The level ladder the measurements are grouped under.
    pub levels: ResourceLevels,
    /// All measurements, in completion order.
    pub measurements: Vec<Measurement>,
}

impl Checkpoint {
    /// Snapshots a history.
    pub fn from_history(history: &History) -> Self {
        let mut measurements: Vec<Measurement> = (0..history.levels().k())
            .flat_map(|l| history.group(l).iter().cloned())
            .collect();
        measurements.sort_by(|a, b| {
            a.finished_at
                .partial_cmp(&b.finished_at)
                .expect("finite times")
        });
        Self {
            levels: history.levels().clone(),
            measurements,
        }
    }

    /// Rebuilds the history (incumbents and totals are recomputed by
    /// replaying the measurements).
    pub fn into_history(self) -> History {
        let mut h = History::new(self.levels);
        for m in self.measurements {
            h.record(m);
        }
        h
    }

    /// Writes the checkpoint as JSON.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = std::fs::File::create(path)?;
        let mut w = BufWriter::new(file);
        serde_json::to_writer(&mut w, self)?;
        w.flush()
    }

    /// Reads a checkpoint from JSON.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let file = std::fs::File::open(path)?;
        Ok(serde_json::from_reader(BufReader::new(file))?)
    }
}

/// One dispatched job in a [`RunSnapshot`]'s write-ahead log: the spec
/// the method produced plus the evaluation result it received (recorded
/// at dispatch time — the simulator evaluates eagerly and only *reveals*
/// the result at virtual completion).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmissionRecord {
    /// The job as issued by the method.
    pub spec: JobSpec,
    /// Validation value of the evaluation.
    pub value: f64,
    /// Held-out test value.
    pub test_value: f64,
    /// Nominal evaluation cost in virtual seconds (before stragglers,
    /// faults, or retries).
    pub cost: f64,
}

/// A mid-run snapshot that supports bit-identical resume; see the module
/// docs and [`crate::runner::resume`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunSnapshot {
    /// Seed of the run this snapshot belongs to (resume refuses a
    /// mismatched seed up front — the replay could never match).
    pub seed: u64,
    /// Every dispatch so far, in dispatch order.
    pub submissions: Vec<SubmissionRecord>,
    /// Every completed measurement so far, in completion order (the
    /// prefix the replay is verified against).
    pub measurements: Vec<Measurement>,
}

/// Current on-disk WAL format version (bumped on incompatible layout
/// changes; the loader rejects versions it does not know).
const WAL_VERSION: u32 = 1;

/// 64-bit FNV-1a over a byte slice — the per-line checksum. Not
/// cryptographic (the WAL guards against accidents, not adversaries):
/// it detects truncation, bit flips, and hand edits at trivial cost.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn corrupt(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// The header line's payload: format version plus the run's seed.
#[derive(Serialize, Deserialize)]
struct WalHeader {
    version: u32,
    seed: u64,
}

/// One line of the snapshot WAL, as read back. The write path prints
/// the same externally-tagged shape around a *borrowed* payload (see
/// [`write_record`]), so no record is cloned on save.
#[derive(Deserialize)]
enum WalRecord {
    Header(WalHeader),
    Submission(SubmissionRecord),
    Measurement(Measurement),
}

/// Writes one WAL line: `<fnv1a hex>\t{"<tag>":<payload>}\n`, the
/// payload streamed through [`Serialize::write_json`] into `scratch`
/// (cleared first; callers keep it to reuse its capacity).
fn write_record(
    w: &mut impl Write,
    scratch: &mut String,
    tag: &str,
    payload: &impl Serialize,
) -> std::io::Result<()> {
    scratch.clear();
    scratch.push_str("{\"");
    scratch.push_str(tag);
    scratch.push_str("\":");
    payload.write_json(scratch);
    scratch.push('}');
    writeln!(w, "{:016x}\t{scratch}", fnv1a(scratch.as_bytes()))
}

/// Writes the header line every WAL starts with.
fn write_header(w: &mut impl Write, scratch: &mut String, seed: u64) -> std::io::Result<()> {
    let header = WalHeader {
        version: WAL_VERSION,
        seed,
    };
    write_record(w, scratch, "Header", &header)
}

/// Writes a whole snapshot in WAL order: header, submissions in
/// dispatch order, measurements in completion order.
fn write_snapshot(w: &mut impl Write, snapshot: &RunSnapshot) -> std::io::Result<()> {
    let mut scratch = String::new();
    write_header(w, &mut scratch, snapshot.seed)?;
    for s in &snapshot.submissions {
        write_record(w, &mut scratch, "Submission", s)?;
    }
    for m in &snapshot.measurements {
        write_record(w, &mut scratch, "Measurement", m)?;
    }
    Ok(())
}

/// Where [`replace_wal`] stages the rewritten log before the rename.
fn staging_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Replaces the WAL at `path` with `snapshot` without ever exposing a
/// state in which records `path` held are gone: the new log is written
/// beside it (`<path>.tmp`, through `sink`), flushed, and renamed over
/// the original. A failure or a kill part-way leaves `path` untouched
/// and at most a torn `.tmp`, which nothing reads and the next rewrite
/// overwrites.
fn replace_wal<W: Write>(
    path: &Path,
    snapshot: &RunSnapshot,
    sink: impl FnOnce(std::fs::File) -> W,
) -> std::io::Result<()> {
    let staged = staging_path(path);
    let mut w = sink(std::fs::File::create(&staged)?);
    write_snapshot(&mut w, snapshot)?;
    w.flush()?;
    drop(w);
    std::fs::rename(&staged, path)
}

/// Parses one WAL line: verifies the checksum prefix, then decodes the
/// JSON payload. Any failure is reported as `Err` — the caller decides
/// whether the position in the file makes it recoverable.
fn parse_line(line: &str) -> Result<WalRecord, String> {
    let (sum, payload) = line
        .split_once('\t')
        .ok_or_else(|| "missing checksum separator".to_string())?;
    let expected =
        u64::from_str_radix(sum, 16).map_err(|_| format!("malformed checksum {sum:?}"))?;
    let actual = fnv1a(payload.as_bytes());
    if actual != expected {
        return Err(format!(
            "checksum mismatch (recorded {expected:016x}, computed {actual:016x})"
        ));
    }
    serde_json::from_str(payload).map_err(|e| format!("undecodable payload: {e}"))
}

impl RunSnapshot {
    /// Writes the snapshot as a checksummed line-oriented WAL: a header
    /// line (format version + seed), one line per submission in
    /// dispatch order, then one line per measurement in completion
    /// order. See the module docs for the corruption-recovery contract.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        write_snapshot(&mut w, self)?;
        w.flush()
    }

    /// Reads a snapshot, recovering from a torn tail.
    ///
    /// - A damaged or incomplete **final** line is dropped: the process
    ///   that wrote the WAL died mid-write, and everything before the
    ///   tear is intact by construction.
    /// - A damaged line **before** the end is an error: the file was
    ///   corrupted after the fact, and replaying around a hole would
    ///   silently produce a different run.
    /// - Files written by older builds as one JSON blob (first byte
    ///   `{`) load through the legacy parser unchanged.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        if text.trim_start().starts_with('{') {
            // Legacy single-blob snapshot (pre-WAL builds).
            return Ok(serde_json::from_str(&text)?);
        }
        let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
        let mut records = Vec::with_capacity(lines.len());
        for (i, line) in lines.iter().enumerate() {
            match parse_line(line) {
                Ok(r) => records.push(r),
                // Torn tail: drop the final line, keep the good prefix.
                Err(_) if i + 1 == lines.len() => break,
                Err(e) => {
                    return Err(corrupt(format!(
                        "snapshot WAL corrupt at line {}: {e}",
                        i + 1
                    )))
                }
            }
        }
        let mut records = records.into_iter();
        let seed = match records.next() {
            Some(WalRecord::Header(h)) if h.version == WAL_VERSION => h.seed,
            Some(WalRecord::Header(h)) => {
                return Err(corrupt(format!(
                    "snapshot WAL version {} not supported (expected {WAL_VERSION})",
                    h.version
                )))
            }
            _ => return Err(corrupt("snapshot WAL has no valid header line".into())),
        };
        let mut snapshot = Self {
            seed,
            submissions: Vec::new(),
            measurements: Vec::new(),
        };
        for record in records {
            match record {
                WalRecord::Header(_) => {
                    return Err(corrupt("snapshot WAL has a duplicate header".into()))
                }
                WalRecord::Submission(s) => snapshot.submissions.push(s),
                WalRecord::Measurement(m) => snapshot.measurements.push(m),
            }
        }
        Ok(snapshot)
    }
}

/// An incremental writer over the [`RunSnapshot`] WAL format, for
/// drivers that learn results one at a time instead of saving a whole
/// snapshot at once — the multi-tenant service keeps one per study.
///
/// Records append in arrival order. By default each append flushes to
/// the OS, so a killed driver loses at most the line it was writing —
/// which [`RunSnapshot::load`] recovers from as a torn tail. With
/// [`set_auto_flush`](WalWriter::set_auto_flush)`(false)` appends only
/// buffer, and the caller group-commits by calling
/// [`flush`](WalWriter::flush) at its own cadence (the service does
/// this once per scheduler round); a crash then loses at most the
/// records since the last flush — every one of them a whole line, so
/// recovery semantics are unchanged, only the durability window widens.
/// Dropping the writer flushes whatever is buffered (via `BufWriter`),
/// so a clean exit never loses records.
pub struct WalWriter {
    w: BufWriter<std::fs::File>,
    /// Reused line buffer: a record is streamed into it, checksummed and
    /// written, with no allocation once it has grown to a record's size.
    scratch: String,
    auto_flush: bool,
    sync_on_flush: bool,
    /// Records appended since the last flush.
    dirty: usize,
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("auto_flush", &self.auto_flush)
            .field("dirty", &self.dirty)
            .finish_non_exhaustive()
    }
}

impl WalWriter {
    fn over(file: std::fs::File) -> Self {
        Self {
            w: BufWriter::new(file),
            scratch: String::new(),
            auto_flush: true,
            sync_on_flush: false,
            dirty: 0,
        }
    }

    /// Creates (truncating) the WAL at `path` and writes the header
    /// line for `seed`.
    pub fn create(path: &Path, seed: u64) -> std::io::Result<Self> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut wal = Self::over(std::fs::File::create(path)?);
        write_header(&mut wal.w, &mut wal.scratch, seed)?;
        wal.w.flush()?;
        Ok(wal)
    }

    /// Opens the WAL at `path` holding exactly `snapshot`'s records —
    /// compaction for a recovered study: rewrite what was loaded, then
    /// keep appending. The rewrite goes through a staging file and a
    /// rename, so the records `path` already held stay on disk until
    /// the compacted log has replaced them whole; a kill in between
    /// loses nothing. An empty snapshot has nothing to protect and
    /// takes [`WalWriter::create`]'s direct path.
    pub fn create_from(path: &Path, snapshot: &RunSnapshot) -> std::io::Result<Self> {
        if snapshot.submissions.is_empty() && snapshot.measurements.is_empty() {
            return Self::create(path, snapshot.seed);
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        replace_wal(path, snapshot, BufWriter::new)?;
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        Ok(Self::over(file))
    }

    /// Chooses between flush-per-append (`true`, the default) and
    /// caller-paced group commit (`false`). Turning auto-flush back on
    /// does not flush by itself; call [`flush`](WalWriter::flush).
    pub fn set_auto_flush(&mut self, auto_flush: bool) {
        self.auto_flush = auto_flush;
    }

    /// When `true`, every [`flush`](WalWriter::flush) also fsyncs
    /// (`sync_data`) so flushed records survive an OS crash, not just a
    /// process kill. Off by default: per-record fsync is exactly the
    /// cost group commit exists to amortize.
    pub fn set_sync_on_flush(&mut self, sync_on_flush: bool) {
        self.sync_on_flush = sync_on_flush;
    }

    /// Records appended since the last flush (0 under auto-flush).
    pub fn dirty(&self) -> usize {
        self.dirty
    }

    /// Flushes buffered records to the OS (and to storage under
    /// [`set_sync_on_flush`](WalWriter::set_sync_on_flush)); a no-op
    /// when nothing is dirty, so callers may group-commit
    /// unconditionally each round.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if self.dirty == 0 {
            return Ok(());
        }
        self.w.flush()?;
        if self.sync_on_flush {
            self.w.get_ref().sync_data()?;
        }
        self.dirty = 0;
        Ok(())
    }

    /// Appends one submission line (flushing under auto-flush).
    pub fn append_submission(&mut self, s: &SubmissionRecord) -> std::io::Result<()> {
        self.append("Submission", s)
    }

    /// Appends one measurement line (flushing under auto-flush).
    pub fn append_measurement(&mut self, m: &Measurement) -> std::io::Result<()> {
        self.append("Measurement", m)
    }

    fn append(&mut self, tag: &str, payload: &impl Serialize) -> std::io::Result<()> {
        write_record(&mut self.w, &mut self.scratch, tag, payload)?;
        self.dirty += 1;
        if self.auto_flush {
            self.flush()?;
        }
        Ok(())
    }
}

/// Serializable summary of a finished run (everything in [`RunResult`]
/// except the in-memory trace), for experiment archival.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// Method display name.
    pub method: String,
    /// Anytime incumbent curve.
    pub curve: Vec<CurvePoint>,
    /// Best validation value.
    pub best_value: f64,
    /// Test value of the best configuration.
    pub best_test: f64,
    /// Evaluations per resource level.
    pub evals_per_level: Vec<usize>,
    /// Total evaluations.
    pub total_evals: usize,
    /// Mean worker utilization.
    pub utilization: f64,
}

impl From<&RunResult> for RunRecord {
    fn from(r: &RunResult) -> Self {
        Self {
            method: r.method.clone(),
            curve: r.curve.clone(),
            best_value: r.best_value,
            best_test: r.best_test,
            evals_per_level: r.evals_per_level.clone(),
            total_evals: r.total_evals,
            utilization: r.utilization,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertune_space::{Config, ParamValue};

    fn measurement(level: usize, value: f64, t: f64) -> Measurement {
        Measurement {
            config: Config::new(vec![ParamValue::Float(value)]),
            level,
            resource: 3f64.powi(level as i32),
            value,
            test_value: value,
            cost: 1.0,
            finished_at: t,
        }
    }

    #[test]
    fn checkpoint_roundtrip_preserves_history() {
        let levels = ResourceLevels::new(27.0, 3);
        let mut h = History::new(levels);
        h.record(measurement(0, 0.5, 1.0));
        h.record(measurement(3, 0.3, 2.0));
        h.record(measurement(0, 0.2, 3.0));

        let cp = Checkpoint::from_history(&h);
        let dir = std::env::temp_dir().join("hypertune-persist-test");
        let path = dir.join("cp.json");
        cp.save(&path).unwrap();
        let restored = Checkpoint::load(&path).unwrap().into_history();
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(restored.len(), 3);
        assert_eq!(restored.len_at(0), 2);
        assert_eq!(restored.incumbent_full().unwrap().value, 0.3);
        assert_eq!(restored.incumbent_any().unwrap().value, 0.2);
        assert_eq!(restored.total_cost(), 3.0);
    }

    #[test]
    fn checkpoint_orders_measurements_by_time() {
        let levels = ResourceLevels::new(27.0, 3);
        let mut h = History::new(levels);
        h.record(measurement(3, 0.1, 5.0));
        h.record(measurement(0, 0.9, 1.0));
        let cp = Checkpoint::from_history(&h);
        assert!(cp.measurements[0].finished_at < cp.measurements[1].finished_at);
    }

    #[test]
    fn run_record_captures_summary() {
        use hypertune_benchmarks::{Benchmark, CountingOnes};
        let bench = CountingOnes::new(2, 2, 0);
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let mut m = crate::methods::MethodKind::ARandom.build(&levels, 0);
        let r = crate::runner::run(
            m.as_mut(),
            &bench,
            &crate::runner::RunConfig::new(2, 300.0, 0),
        );
        let rec = RunRecord::from(&r);
        assert_eq!(rec.total_evals, r.total_evals);
        let json = serde_json::to_string(&rec).unwrap();
        let back: RunRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.best_value, r.best_value);
    }

    fn snapshot_fixture(n: usize) -> RunSnapshot {
        let submissions = (0..n)
            .map(|i| SubmissionRecord {
                spec: JobSpec {
                    config: Config::new(vec![ParamValue::Float(i as f64 / n as f64)]),
                    level: i % 3,
                    resource: 3f64.powi((i % 3) as i32),
                    bracket: None,
                    id: i as u64,
                },
                value: 0.5 - 0.01 * i as f64,
                test_value: 0.5 - 0.01 * i as f64,
                cost: 1.0 + i as f64,
            })
            .collect();
        let measurements = (0..n).map(|i| measurement(i % 3, 0.4, i as f64)).collect();
        RunSnapshot {
            seed: 42,
            submissions,
            measurements,
        }
    }

    fn temp_wal(name: &str) -> std::path::PathBuf {
        std::env::temp_dir()
            .join(format!("hypertune-wal-test-{name}-{}", std::process::id()))
            .join("run.wal")
    }

    fn cleanup(path: &Path) {
        if let Some(dir) = path.parent() {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn wal_roundtrip_preserves_snapshot_exactly() {
        let snap = snapshot_fixture(6);
        let path = temp_wal("roundtrip");
        snap.save(&path).unwrap();
        let back = RunSnapshot::load(&path).unwrap();
        cleanup(&path);
        assert_eq!(back.seed, snap.seed);
        assert_eq!(back.submissions, snap.submissions);
        assert_eq!(back.measurements.len(), snap.measurements.len());
        for (a, b) in back.measurements.iter().zip(&snap.measurements) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
            assert_eq!(a.finished_at.to_bits(), b.finished_at.to_bits());
        }
    }

    #[test]
    fn wal_recovers_from_truncated_final_line() {
        let snap = snapshot_fixture(5);
        let path = temp_wal("truncate");
        snap.save(&path).unwrap();
        // Tear the file mid-way through the last record, as a crash
        // during `write` would.
        let text = std::fs::read_to_string(&path).unwrap();
        let torn = &text[..text.trim_end().len() - 7];
        std::fs::write(&path, torn).unwrap();
        let back = RunSnapshot::load(&path).unwrap();
        cleanup(&path);
        assert_eq!(back.seed, 42);
        assert_eq!(back.submissions.len(), 5, "submissions precede the tear");
        assert_eq!(back.measurements.len(), 4, "torn measurement dropped");
    }

    #[test]
    fn wal_rejects_midfile_tampering() {
        let snap = snapshot_fixture(5);
        let path = temp_wal("tamper");
        snap.save(&path).unwrap();
        // Flip one byte inside an interior record's payload.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let mut bad = lines.clone();
        let victim = lines[2].replace("Submission", "Submersion");
        assert_ne!(victim, lines[2], "tamper must change the payload");
        bad[2] = &victim;
        std::fs::write(&path, bad.join("\n")).unwrap();
        let err = RunSnapshot::load(&path).unwrap_err();
        cleanup(&path);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("line 3"),
            "error names the damaged line: {err}"
        );
    }

    #[test]
    fn wal_rejects_truncation_that_reaches_interior_records() {
        let snap = snapshot_fixture(4);
        let path = temp_wal("deep-truncate");
        snap.save(&path).unwrap();
        // Cut the file down to half of line 2: line 2 is now damaged
        // AND final, so the loader recovers to just the header's seed
        // with the prefix of records before it.
        let text = std::fs::read_to_string(&path).unwrap();
        let second_line_mid = text.lines().take(1).map(|l| l.len() + 1).sum::<usize>() + 10;
        std::fs::write(&path, &text[..second_line_mid]).unwrap();
        let back = RunSnapshot::load(&path).unwrap();
        cleanup(&path);
        assert_eq!(back.seed, 42);
        assert!(back.submissions.is_empty());
        assert!(back.measurements.is_empty());
    }

    #[test]
    fn wal_refuses_file_without_header() {
        let path = temp_wal("headerless");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).unwrap();
        }
        std::fs::write(&path, "not a wal at all\n").unwrap();
        let err = RunSnapshot::load(&path).unwrap_err();
        cleanup(&path);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn legacy_json_blob_snapshot_still_loads() {
        let snap = snapshot_fixture(3);
        let path = temp_wal("legacy");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).unwrap();
        }
        // Pre-WAL builds wrote the snapshot as one JSON object.
        std::fs::write(&path, serde_json::to_string(&snap).unwrap()).unwrap();
        let back = RunSnapshot::load(&path).unwrap();
        cleanup(&path);
        assert_eq!(back.seed, snap.seed);
        assert_eq!(back.submissions, snap.submissions);
        assert_eq!(back.measurements.len(), 3);
    }

    #[test]
    fn wal_writer_appends_load_as_a_snapshot() {
        let fixture = snapshot_fixture(4);
        let path = temp_wal("writer");
        {
            let mut w = WalWriter::create(&path, fixture.seed).unwrap();
            // Interleave, the way a live service learns results.
            for (s, m) in fixture.submissions.iter().zip(&fixture.measurements) {
                w.append_submission(s).unwrap();
                w.append_measurement(m).unwrap();
            }
        }
        let back = RunSnapshot::load(&path).unwrap();
        cleanup(&path);
        assert_eq!(back.seed, fixture.seed);
        assert_eq!(back.submissions, fixture.submissions);
        assert_eq!(back.measurements.len(), fixture.measurements.len());
    }

    #[test]
    fn wal_writer_create_from_compacts_then_extends() {
        let fixture = snapshot_fixture(3);
        let path = temp_wal("compact");
        fixture.save(&path).unwrap();
        let recovered = RunSnapshot::load(&path).unwrap();
        {
            let mut w = WalWriter::create_from(&path, &recovered).unwrap();
            w.append_measurement(&measurement(1, 0.33, 99.0)).unwrap();
        }
        let back = RunSnapshot::load(&path).unwrap();
        cleanup(&path);
        assert_eq!(back.submissions, fixture.submissions);
        assert_eq!(back.measurements.len(), 4);
        assert_eq!(back.measurements[3].finished_at, 99.0);
    }

    /// A sink that takes `budget` bytes and then fails — a disk filling
    /// up, or a kill, part-way through a rewrite.
    struct FailAfter<W> {
        inner: W,
        budget: usize,
    }

    impl<W: Write> Write for FailAfter<W> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(std::io::Error::other("sink failed mid-rewrite"));
            }
            let n = self.inner.write(&buf[..buf.len().min(self.budget)])?;
            self.budget -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
    }

    #[test]
    fn a_failed_compaction_leaves_the_wal_it_was_compacting_intact() {
        let fixture = snapshot_fixture(6);
        let path = temp_wal("torn-compaction");
        fixture.save(&path).unwrap();
        let original = std::fs::read(&path).unwrap();
        let recovered = RunSnapshot::load(&path).unwrap();
        // The rewrite dies half-way: the booked records must still be
        // where recovery found them, byte for byte.
        let err = replace_wal(&path, &recovered, |file| FailAfter {
            inner: file,
            budget: original.len() / 2,
        })
        .unwrap_err();
        assert!(err.to_string().contains("mid-rewrite"), "{err}");
        assert!(
            std::fs::read(&path).unwrap() == original,
            "the WAL being compacted changed"
        );
        let torn = std::fs::read(staging_path(&path)).unwrap();
        assert_eq!(torn.len(), original.len() / 2, "only the staging file tore");
        // The next compaction overwrites the torn staging file and
        // renames it away; the log it leaves is the same log.
        let mut w = WalWriter::create_from(&path, &recovered).unwrap();
        assert!(!staging_path(&path).exists());
        assert!(
            std::fs::read(&path).unwrap() == original,
            "compacting a compact log rewrites the same bytes"
        );
        w.append_measurement(&measurement(1, 0.33, 99.0)).unwrap();
        drop(w);
        let back = RunSnapshot::load(&path).unwrap();
        cleanup(&path);
        assert_eq!(back.submissions, fixture.submissions);
        assert_eq!(back.measurements.len(), 7, "appends land behind the rename");
    }

    #[test]
    fn wal_writer_group_commit_buffers_until_flush() {
        let fixture = snapshot_fixture(4);
        let path = temp_wal("group-commit");
        let mut w = WalWriter::create(&path, fixture.seed).unwrap();
        w.set_auto_flush(false);
        for (s, m) in fixture.submissions.iter().zip(&fixture.measurements) {
            w.append_submission(s).unwrap();
            w.append_measurement(m).unwrap();
        }
        assert_eq!(w.dirty(), 8, "appends buffer instead of flushing");
        // The records are whole lines in the writer's buffer, not yet
        // in the file: a reader sees only the header (BufWriter's
        // default buffer comfortably holds 8 small records).
        let before = RunSnapshot::load(&path).unwrap();
        assert!(
            before.measurements.len() < fixture.measurements.len(),
            "buffered records must not be visible before the flush"
        );
        w.flush().unwrap();
        assert_eq!(w.dirty(), 0);
        w.flush().unwrap(); // idempotent no-op when clean
        let after = RunSnapshot::load(&path).unwrap();
        assert_eq!(after.submissions, fixture.submissions);
        assert_eq!(after.measurements.len(), fixture.measurements.len());
        drop(w);
        cleanup(&path);
    }

    #[test]
    fn wal_writer_drop_flushes_buffered_records() {
        let fixture = snapshot_fixture(3);
        let path = temp_wal("drop-flush");
        {
            let mut w = WalWriter::create(&path, fixture.seed).unwrap();
            w.set_auto_flush(false);
            for m in &fixture.measurements {
                w.append_measurement(m).unwrap();
            }
            // Clean exit without an explicit flush.
        }
        let back = RunSnapshot::load(&path).unwrap();
        cleanup(&path);
        assert_eq!(
            back.measurements.len(),
            fixture.measurements.len(),
            "a clean drop must lose nothing"
        );
    }

    #[test]
    fn resumed_run_continues_from_checkpoint() {
        // Simulate resume: record into restored history and confirm the
        // incumbent bookkeeping keeps working.
        let levels = ResourceLevels::new(27.0, 3);
        let mut h = History::new(levels);
        h.record(measurement(3, 0.4, 1.0));
        let mut restored = Checkpoint::from_history(&h).into_history();
        restored.record(measurement(3, 0.2, 10.0));
        assert_eq!(restored.incumbent_full().unwrap().value, 0.2);
    }
}
