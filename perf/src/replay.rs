//! Isolated replays: payloads captured from a traced round are pushed
//! through one library layer at a time, with nothing else running, to
//! price that layer alone — the wire codec, the WAL, the fair-share
//! pick and the random-forest surrogate.

use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;

use hypertune::cluster::{Codec, Frame, FrameDecoder, FrameEncoder, JobStatus};
use hypertune::core::{JobSpec, RunSnapshot, SubmissionRecord, WalWriter};
use hypertune::registry;
use hypertune::service::FairShare;
use hypertune::surrogate::{RandomForest, SurrogateModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::clock::now_ns;
use crate::layers::Values;
use crate::round::Capture;
use crate::stats::{median, percentile};

/// Timed repetitions per replay; each reports its median.
const REPS: usize = 15;
/// Records the WAL replay appends (the sample stream is cycled).
const WAL_RECORDS: usize = 4000;
/// Query points of the batch-prediction replay.
const PREDICT_POINTS: usize = 256;

/// Median over `REPS` timings of `f`, in nanoseconds.
fn time_ns(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = now_ns();
            f();
            (now_ns() - t0) as f64
        })
        .collect();
    median(&mut samples)
}

/// Encode/decode cost per frame and frame sizes, binary codec.
fn proto(capture: &Capture, out: &mut Values) -> Result<(), String> {
    let frames = |dispatch: bool| -> Vec<Frame> {
        capture
            .payloads
            .iter()
            .enumerate()
            .map(|(i, (payload, output))| {
                if dispatch {
                    Frame::Dispatch {
                        job_id: i as u64,
                        payload: payload.clone(),
                    }
                } else {
                    Frame::Result {
                        job_id: i as u64,
                        status: JobStatus::Succeeded,
                        output: output.clone(),
                    }
                }
            })
            .collect()
    };
    for (dispatch, encode, decode, bytes) in [
        (
            true,
            "proto.encode_dispatch_ns",
            "proto.decode_dispatch_ns",
            "proto.dispatch_bytes",
        ),
        (
            false,
            "proto.encode_result_ns",
            "proto.decode_result_ns",
            "proto.result_bytes",
        ),
    ] {
        let frames = frames(dispatch);
        if frames.is_empty() {
            for name in [encode, decode, bytes] {
                out.insert(name, 0.0);
            }
            continue;
        }
        let n = frames.len() as f64;
        let mut enc = FrameEncoder::new(Codec::Binary);
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(enc.encode(f));
        }
        out.insert(bytes, wire.len() as f64 / n);
        out.insert(
            encode,
            time_ns(|| {
                for f in &frames {
                    black_box(enc.encode(black_box(f)));
                }
            }) / n,
        );
        let mut dec = FrameDecoder::new();
        let mut failed = false;
        out.insert(
            decode,
            time_ns(|| {
                let mut cursor = Cursor::new(wire.as_slice());
                for _ in 0..frames.len() {
                    failed |= black_box(dec.read_from(&mut cursor)).is_err();
                }
            }) / n,
        );
        if failed {
            return Err("a captured frame did not decode".to_string());
        }
    }
    Ok(())
}

/// `FairShare::pick` with every study eligible, at the run's study count.
fn pick(capture: &Capture, out: &mut Values) {
    const PICKS: usize = 2000;
    let mut ns = 0.0;
    if capture.n_studies > 0 {
        let mut sched = FairShare::new();
        for id in 1..=capture.n_studies as u64 {
            sched.register(id, 1);
        }
        ns = time_ns(|| {
            for _ in 0..PICKS {
                black_box(sched.pick(|_| true));
            }
        }) / PICKS as f64;
    }
    out.insert("service.pick_ns.p50", ns);
}

/// Random-forest fit and batch prediction at the run's final history
/// size.
fn forest(capture: &Capture, out: &mut Values) -> Result<(), String> {
    let bench = registry::make_bench(&capture.bench, capture.bench_seed)
        .ok_or_else(|| format!("unknown benchmark {}", capture.bench))?;
    let space = bench.space();
    let x: Vec<Vec<f64>> = capture
        .measurements
        .iter()
        .map(|m| space.encode(&m.config))
        .collect();
    let y: Vec<f64> = capture.measurements.iter().map(|m| m.value).collect();
    let mut rng = StdRng::seed_from_u64(capture.bench_seed);
    let queries: Vec<Vec<f64>> = space
        .sample_n(PREDICT_POINTS, &mut rng)
        .iter()
        .map(|c| space.encode(c))
        .collect();
    let mut model = RandomForest::new(capture.bench_seed);
    let mut failed = false;
    let fit_ns = time_ns(|| failed |= model.fit(&x, &y).is_err());
    let predict_ns = time_ns(|| failed |= black_box(model.predict_batch(&queries)).is_err());
    if failed {
        return Err("random-forest replay failed to fit or predict".to_string());
    }
    out.insert("surrogate.rf_fit_us", fit_ns * 1e-3);
    out.insert("surrogate.rf_predict_batch_us", predict_ns * 1e-3);
    Ok(())
}

/// Buffered appends, group-commit flushes every `per_flush` records,
/// then a cold load of the file — the WAL's write and read paths.
fn wal(
    capture: &Capture,
    per_flush: usize,
    scratch: &Path,
    out: &mut Values,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("WAL replay: {e}");
    std::fs::create_dir_all(scratch).map_err(io)?;
    let path = scratch.join("replay.wal");
    let mut writer = WalWriter::create(&path, capture.bench_seed).map_err(io)?;
    writer.set_auto_flush(false);
    let mut append_ns = Vec::with_capacity(WAL_RECORDS);
    let mut flush_us = Vec::new();
    for (i, m) in capture
        .measurements
        .iter()
        .cycle()
        .take(WAL_RECORDS / 2)
        .enumerate()
    {
        let submission = SubmissionRecord {
            spec: JobSpec {
                config: m.config.clone(),
                level: m.level,
                resource: m.resource,
                bracket: None,
                id: i as u64 + 1,
            },
            value: m.value,
            test_value: m.test_value,
            cost: m.cost,
        };
        let t0 = now_ns();
        writer.append_submission(&submission).map_err(io)?;
        writer.append_measurement(m).map_err(io)?;
        append_ns.push((now_ns() - t0) as f64 / 2.0);
        if writer.dirty() >= per_flush {
            let t0 = now_ns();
            writer.flush().map_err(io)?;
            flush_us.push((now_ns() - t0) as f64 * 1e-3);
        }
    }
    writer.flush().map_err(io)?;
    drop(writer);
    let t0 = now_ns();
    let snapshot = RunSnapshot::load(&path).map_err(io)?;
    let load_us = (now_ns() - t0) as f64 * 1e-3;
    let records = snapshot.submissions.len() + snapshot.measurements.len();
    std::fs::remove_file(&path).map_err(io)?;
    out.insert("wal.append_ns.p50", percentile(&mut append_ns, 0.5));
    out.insert("wal.flush_us.p50", percentile(&mut flush_us, 0.5));
    out.insert("wal.flush_us.p99", percentile(&mut flush_us, 0.99));
    out.insert("wal.recover_us_per_record", load_us / records.max(1) as f64);
    Ok(())
}

/// Runs every replay that applies to the traced round `layer` came
/// from: the WAL replay only where the run flushed a WAL, the forest
/// replay only where it fitted surrogates.
pub fn replay(capture: &Capture, layer: &Values, scratch: &Path) -> Result<Values, String> {
    let figure = |name: &str| layer.get(name).copied().unwrap_or(0.0);
    let mut out = Values::new();
    proto(capture, &mut out)?;
    pick(capture, &mut out);
    let has_history = !capture.measurements.is_empty();
    if has_history && figure("surrogate.fits_per_trial") > 0.0 {
        forest(capture, &mut out)?;
    }
    if has_history && figure("wal.flushes.count") > 0.0 {
        let per_flush = figure("wal.records_per_flush.mean").round().max(1.0) as usize;
        wal(capture, per_flush, scratch, &mut out)?;
    }
    Ok(out)
}
