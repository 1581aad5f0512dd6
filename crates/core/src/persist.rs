//! The durable log: one checksummed write-ahead log per run or study,
//! one writer that only appends, one reader. A study's log is the only
//! file it has: its lifecycle rides in the same log as its trials.
//!
//! Every derived component — base surrogates, `θ`, the bracket weights,
//! the incumbent — is a pure function of the measurement history, so the
//! log of what was dispatched and measured is a run's only durable state.
//! [`RunSnapshot`] is that log read back: one [`SubmissionRecord`] per
//! dispatched job (in dispatch order, with the evaluation's result), plus
//! the completed measurements in completion order. Because every run is a
//! deterministic function of its seed, [`crate::runner::resume`]
//! *replays* the run from virtual time zero using the recorded results
//! instead of re-evaluating, verifies the replayed measurements match the
//! log exactly, and then continues live — producing a final
//! [`History`](crate::History) bit-identical to the uninterrupted run's.
//! The multi-tenant service restores each study's history from its log.
//!
//! # Format
//!
//! A header line carrying the format version and the seed, then one
//! record line per submission and per measurement, in append order. A
//! log may also hold `Study` lines: opaque lifecycle records (the
//! multi-tenant service's spec, status and generation) that this module
//! stores and hands back without reading. [`RunSnapshot::load`] skips
//! them, [`WalWriter::open`] returns the last complete one, and the
//! simulated runner writes none, so its checkpoints are unchanged.
//! Every line is prefixed with an FNV-1a checksum of its JSON payload, so
//! [`RunSnapshot::load`] can distinguish the two real-world corruption
//! modes:
//!
//! - a **truncated final line** (the process died mid-`write`) is
//!   expected — the loader drops it and recovers to the last good
//!   record, exactly the contract a WAL promises;
//! - a **damaged interior line** (bit rot, manual editing) is not —
//!   the loader refuses the file instead of silently replaying a hole.
//!
//! The serializer emits `f64`s in shortest-roundtrip form, so append →
//! load preserves every value exactly — which is what makes the replay's
//! equality check sound. [`WalWriter::create`] starts a log and
//! [`WalWriter::open`] continues one in place; nothing rewrites a log.

use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

use serde::{Deserialize, Serialize, Value};

use crate::history::Measurement;
use crate::method::JobSpec;

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

/// A write-ahead log as read back; see the module docs and
/// [`crate::runner::resume`].
#[derive(Debug, Clone, Serialize)]
pub struct RunSnapshot {
    /// Seed of the run this log belongs to (resume refuses a mismatched
    /// seed up front — the replay could never match).
    pub seed: u64,
    /// Every dispatch logged, in dispatch order.
    pub submissions: Vec<SubmissionRecord>,
    /// Every completed measurement logged, in completion order (the
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

fn corrupt(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The header line's payload: format version plus the run's seed.
#[derive(Serialize, Deserialize)]
struct WalHeader {
    version: u32,
    seed: u64,
}

/// One line of the WAL, as read back. The write path prints the same
/// externally-tagged shape around a *borrowed* payload (see
/// [`write_record`]), so no record is cloned on append.
#[derive(Deserialize)]
enum WalRecord {
    Header(WalHeader),
    Submission(SubmissionRecord),
    Measurement(Measurement),
    Study(Value),
}

/// Writes one WAL line: `<fnv1a hex>\t{"<tag>":<payload>}\n`, the
/// payload streamed through [`Serialize::write_json`] into `scratch`
/// (cleared first; callers keep it to reuse its capacity).
fn write_record(
    w: &mut impl Write,
    scratch: &mut String,
    tag: &str,
    payload: &impl Serialize,
) -> io::Result<()> {
    scratch.clear();
    scratch.push_str("{\"");
    scratch.push_str(tag);
    scratch.push_str("\":");
    payload.write_json(scratch);
    scratch.push('}');
    writeln!(w, "{:016x}\t{scratch}", fnv1a(scratch.as_bytes()))
}

/// Parses one WAL line: verifies the checksum prefix, then decodes the
/// JSON payload. Any failure is reported as `Err` — the caller decides
/// whether the position in the file makes it recoverable.
fn parse_line(line: &[u8]) -> Result<WalRecord, String> {
    let line = std::str::from_utf8(line).map_err(|_| "line is not UTF-8".to_string())?;
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

/// Reads a WAL image under [`RunSnapshot::load`]'s rules. Also returns
/// the last complete `Study` record, and where the last good record's
/// payload ends — the byte before its newline, which a tear may have
/// taken on its own.
fn scan(bytes: &[u8]) -> io::Result<(RunSnapshot, Option<Value>, usize)> {
    let mut lines = Vec::new();
    let mut start = 0;
    for line in bytes.split(|&b| b == b'\n') {
        if !line.is_empty() {
            lines.push(start..start + line.len());
        }
        start += line.len() + 1;
    }
    let mut snapshot: Option<RunSnapshot> = None;
    let mut study = None;
    let mut end = 0;
    for (i, line) in lines.iter().enumerate() {
        let record = match parse_line(&bytes[line.clone()]) {
            Ok(r) => r,
            // Torn tail: drop the final line, keep the good prefix.
            Err(_) if i + 1 == lines.len() => break,
            Err(e) => {
                return Err(corrupt(format!(
                    "snapshot WAL corrupt at line {}: {e}",
                    i + 1
                )))
            }
        };
        end = line.end;
        let Some(snapshot) = snapshot.as_mut() else {
            snapshot = Some(match record {
                WalRecord::Header(h) if h.version == WAL_VERSION => RunSnapshot {
                    seed: h.seed,
                    submissions: Vec::new(),
                    measurements: Vec::new(),
                },
                WalRecord::Header(h) => {
                    return Err(corrupt(format!(
                        "snapshot WAL version {} not supported (expected {WAL_VERSION})",
                        h.version
                    )))
                }
                _ => break,
            });
            continue;
        };
        match record {
            WalRecord::Header(_) => {
                return Err(corrupt("snapshot WAL has a duplicate header".into()))
            }
            WalRecord::Submission(s) => snapshot.submissions.push(s),
            WalRecord::Measurement(m) => snapshot.measurements.push(m),
            WalRecord::Study(s) => study = Some(s),
        }
    }
    let snapshot =
        snapshot.ok_or_else(|| corrupt("snapshot WAL has no valid header line".into()))?;
    Ok((snapshot, study, end))
}

impl RunSnapshot {
    /// Reads a WAL, recovering from a torn tail.
    ///
    /// - A damaged or incomplete **final** line is dropped: the process
    ///   that wrote the WAL died mid-write, and everything before the
    ///   tear is intact by construction.
    /// - A damaged line **before** the end is an error: the file was
    ///   corrupted after the fact, and replaying around a hole would
    ///   silently produce a different run.
    ///
    /// `Study` records are skipped; [`WalWriter::open`] returns them.
    pub fn load(path: &Path) -> io::Result<Self> {
        Ok(scan(&std::fs::read(path)?)?.0)
    }
}

/// The one writer of the WAL format, for every driver: the simulated
/// runner's checkpoints and each of the multi-tenant service's studies.
///
/// Records append in arrival order. By default each append flushes to
/// the OS, so a killed driver loses at most the line it was writing —
/// which [`RunSnapshot::load`] recovers from as a torn tail. With
/// [`set_auto_flush`](WalWriter::set_auto_flush)`(false)` appends only
/// buffer, and the caller group-commits by calling
/// [`flush`](WalWriter::flush) at its own cadence (the service does
/// this once per scheduler round, the runner once per checkpoint); a
/// crash then loses at most the records since the last flush — every one
/// of them a whole line, so recovery semantics are unchanged, only the
/// durability window widens. Dropping the writer flushes whatever is
/// buffered (via `BufWriter`), so a clean exit never loses records.
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

    /// Creates (truncating) the WAL at `path` and buffers the header
    /// line for `seed`.
    fn start(path: &Path, seed: u64) -> io::Result<Self> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut wal = Self::over(std::fs::File::create(path)?);
        let header = WalHeader {
            version: WAL_VERSION,
            seed,
        };
        write_record(&mut wal.w, &mut wal.scratch, "Header", &header)?;
        Ok(wal)
    }

    /// Creates (truncating) the WAL at `path` and writes the header
    /// line for `seed`.
    pub fn create(path: &Path, seed: u64) -> io::Result<Self> {
        let mut wal = Self::start(path, seed)?;
        wal.w.flush()?;
        Ok(wal)
    }

    /// Like [`create`](WalWriter::create), with a first `Study` record
    /// after the header. Both lines reach the file in one write, so a
    /// log cut inside them holds no `Study` record, unless the cut took
    /// only the final newline.
    pub fn create_study(path: &Path, seed: u64, study: &impl Serialize) -> io::Result<Self> {
        let mut wal = Self::start(path, seed)?;
        write_record(&mut wal.w, &mut wal.scratch, "Study", study)?;
        wal.w.flush()?;
        Ok(wal)
    }

    /// Continues the WAL at `path` in place: reads it under
    /// [`RunSnapshot::load`]'s rules, cuts a torn final line off, and
    /// returns what it holds — the snapshot and the last complete
    /// `Study` record — with a writer that appends after it.
    /// Nothing before the cut is rewritten. When a tear took only the
    /// last record's newline, the newline is written back instead of
    /// the record being dropped, so the snapshot returned is always what
    /// `load` reads from the same bytes.
    pub fn open(path: &Path) -> io::Result<(RunSnapshot, Option<Value>, Self)> {
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .append(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (snapshot, study, end) = scan(&bytes)?;
        let terminated = bytes.get(end) == Some(&b'\n');
        let keep = end + usize::from(terminated);
        if keep < bytes.len() {
            file.set_len(keep as u64)?;
        }
        if !terminated {
            file.write_all(b"\n")?;
        }
        Ok((snapshot, study, Self::over(file)))
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
    pub fn flush(&mut self) -> io::Result<()> {
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
    pub fn append_submission(&mut self, s: &SubmissionRecord) -> io::Result<()> {
        self.append("Submission", s)
    }

    /// Appends one measurement line (flushing under auto-flush).
    pub fn append_measurement(&mut self, m: &Measurement) -> io::Result<()> {
        self.append("Measurement", m)
    }

    /// Appends one opaque `Study` line (flushing under auto-flush).
    pub fn append_study(&mut self, study: &impl Serialize) -> io::Result<()> {
        self.append("Study", study)
    }

    fn append(&mut self, tag: &str, payload: &impl Serialize) -> io::Result<()> {
        write_record(&mut self.w, &mut self.scratch, tag, payload)?;
        self.dirty += 1;
        if self.auto_flush {
            self.flush()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::History;
    use crate::levels::ResourceLevels;
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

    /// Writes `snapshot` through [`WalWriter`]: header, submissions in
    /// dispatch order, then measurements in completion order.
    fn save(snapshot: &RunSnapshot, path: &Path) {
        let mut w = WalWriter::create(path, snapshot.seed).unwrap();
        for s in &snapshot.submissions {
            w.append_submission(s).unwrap();
        }
        for m in &snapshot.measurements {
            w.append_measurement(m).unwrap();
        }
    }

    /// A history rebuilt from what a log holds — how a restart restores
    /// one.
    fn history_from(levels: ResourceLevels, measurements: Vec<Measurement>) -> History {
        let mut h = History::new(levels);
        for m in measurements {
            h.record(m);
        }
        h
    }

    #[test]
    fn checkpoint_roundtrip_preserves_history() {
        let levels = ResourceLevels::new(27.0, 3);
        let path = temp_wal("history");
        let mut w = WalWriter::create(&path, 1).unwrap();
        for (level, value, t) in [(0, 0.5, 1.0), (3, 0.3, 2.0), (0, 0.2, 3.0)] {
            w.append_measurement(&measurement(level, value, t)).unwrap();
        }
        drop(w);
        let restored = history_from(levels, RunSnapshot::load(&path).unwrap().measurements);
        cleanup(&path);

        assert_eq!(restored.len(), 3);
        assert_eq!(restored.len_at(0), 2);
        assert_eq!(restored.incumbent_full().unwrap().value, 0.3);
        assert_eq!(restored.incumbent_any().unwrap().value, 0.2);
        assert_eq!(restored.total_cost(), 3.0);
    }

    #[test]
    fn checkpoint_orders_measurements_by_time() {
        use hypertune_benchmarks::{Benchmark, CountingOnes};
        let bench = CountingOnes::new(2, 2, 0);
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let mut m = crate::methods::MethodKind::Asha.build(&levels, 0);
        let path = temp_wal("ordered");
        let policy = crate::runner::CheckpointPolicy::new(&path, 1);
        let cfg = crate::runner::RunConfig::new(4, 300.0, 0);
        crate::runner::run_checkpointed(m.as_mut(), &bench, &cfg, &policy).unwrap();
        let logged = RunSnapshot::load(&path).unwrap().measurements;
        cleanup(&path);
        assert!(logged.len() > 1);
        assert!(logged
            .windows(2)
            .all(|w| w[0].finished_at <= w[1].finished_at));
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
        save(&snap, &path);
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
        save(&snap, &path);
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
        save(&snap, &path);
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
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("line 3"),
            "error names the damaged line: {err}"
        );
    }

    #[test]
    fn wal_rejects_truncation_that_reaches_interior_records() {
        let snap = snapshot_fixture(4);
        let path = temp_wal("deep-truncate");
        save(&snap, &path);
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
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn legacy_json_blob_snapshot_is_refused() {
        let snap = snapshot_fixture(3);
        let path = temp_wal("legacy");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).unwrap();
        }
        // Pre-WAL builds wrote the snapshot as one JSON object; it has
        // no checksummed header line, so it is not a log.
        std::fs::write(&path, serde_json::to_string(&snap).unwrap()).unwrap();
        let err = RunSnapshot::load(&path).unwrap_err();
        cleanup(&path);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
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
    fn wal_writer_open_carries_what_load_reads_at_every_cut() {
        let fixture = snapshot_fixture(3);
        let path = temp_wal("every-cut");
        save(&fixture, &path);
        let whole = std::fs::read(&path).unwrap();
        let header_len = whole.iter().position(|&b| b == b'\n').unwrap();
        for cut in 0..=whole.len() {
            std::fs::write(&path, &whole[..cut]).unwrap();
            let Ok(loaded) = RunSnapshot::load(&path) else {
                assert!(cut < header_len, "only a torn header fails, cut {cut}");
                assert!(WalWriter::open(&path).is_err());
                continue;
            };
            let (opened, _, mut w) = WalWriter::open(&path).unwrap();
            assert_eq!(opened.submissions, loaded.submissions, "cut {cut}");
            assert_eq!(opened.measurements, loaded.measurements, "cut {cut}");
            // Kept: the lines the cut left whole, plus the last one if
            // the cut took only its newline (written back).
            let kept = std::fs::read(&path).unwrap();
            let whole_lines = whole[..cut].iter().rposition(|&b| b == b'\n');
            let whole_lines = whole_lines.map_or(0, |i| i + 1);
            assert!(whole.starts_with(&kept), "cut {cut}");
            assert!(
                kept.len() == whole_lines || kept.len() == cut + 1,
                "cut {cut}"
            );
            w.append_measurement(&measurement(1, 0.33, 99.0)).unwrap();
            drop(w);
            let back = RunSnapshot::load(&path).unwrap();
            assert_eq!(back.submissions, loaded.submissions, "cut {cut}");
            assert_eq!(back.measurements.len(), loaded.measurements.len() + 1);
        }
        cleanup(&path);
    }

    #[test]
    fn study_records_are_skipped_by_load_and_returned_by_open() {
        let fixture = snapshot_fixture(2);
        let path = temp_wal("study-records");
        let first = serde_json::json!({"status": "Running", "generation": 0});
        let second = serde_json::json!({"status": "Stopped", "generation": 0});
        let mut w = WalWriter::create_study(&path, fixture.seed, &first).unwrap();
        for (s, m) in fixture.submissions.iter().zip(&fixture.measurements) {
            w.append_submission(s).unwrap();
            w.append_measurement(m).unwrap();
        }
        w.append_study(&second).unwrap();
        drop(w);
        let whole = std::fs::read(&path).unwrap();
        let text = std::str::from_utf8(&whole).unwrap();
        assert_eq!(
            text.lines().filter(|l| l.contains("{\"Study\":")).count(),
            2
        );

        let back = RunSnapshot::load(&path).unwrap();
        assert_eq!(back.seed, fixture.seed);
        assert_eq!(back.submissions, fixture.submissions);
        assert_eq!(back.measurements, fixture.measurements);
        let (opened, study, _) = WalWriter::open(&path).unwrap();
        assert_eq!(opened.measurements, fixture.measurements);
        assert_eq!(study, Some(second));

        // A torn last `Study` line is a torn tail: the one before it wins.
        std::fs::write(&path, &whole[..whole.len() - 5]).unwrap();
        let (_, study, _) = WalWriter::open(&path).unwrap();
        assert_eq!(study, Some(first));
        cleanup(&path);
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
        // Simulate resume: record into a history restored from the log
        // and confirm the incumbent bookkeeping keeps working.
        let levels = ResourceLevels::new(27.0, 3);
        let path = temp_wal("continue");
        let mut w = WalWriter::create(&path, 1).unwrap();
        w.append_measurement(&measurement(3, 0.4, 1.0)).unwrap();
        drop(w);
        let mut restored = history_from(levels, RunSnapshot::load(&path).unwrap().measurements);
        cleanup(&path);
        restored.record(measurement(3, 0.2, 10.0));
        assert_eq!(restored.incumbent_full().unwrap().value, 0.2);
    }
}
