//! `Serialize::write_json` is the tree printer without the tree: for
//! every type whose JSON text is written out, streaming it must give byte
//! for byte what printing `to_value()` gives — the WAL checksums and
//! every recorded fixture depend on it. Checked over generated values
//! (non-finite floats, negative ints, `None`s, empty configs, strings
//! that need escaping) for the WAL records, the service's dispatch
//! payload and sidecar, and telemetry events, and over local types
//! covering every shape and attribute the derive handles.

use std::collections::BTreeMap;

use hypertune::core::persist::SubmissionRecord;
use hypertune::core::{JobSpec, ThreadedJob};
use hypertune::prelude::*;
use hypertune::registry;
use hypertune::service::StudyRecord;
use hypertune::telemetry::{Event, EventRecord, FailureKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The streamed text and the printed tree of one value.
fn both<T: Serialize + ?Sized>(x: &T) -> (String, String) {
    let mut streamed = String::new();
    x.write_json(&mut streamed);
    let mut printed = String::new();
    x.to_value().write_json(&mut printed);
    (streamed, printed)
}

fn coin(rng: &mut StdRng) -> bool {
    rng.gen_range(0..2) == 0
}

fn arb_f64(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..10) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => rng.gen_range(-3..4) as f64,
        6 => 1e300 * rng.gen::<f64>(),
        7 => 1e-300 * rng.gen::<f64>(),
        _ => rng.gen::<f64>() * 2.0 - 1.0,
    }
}

fn arb_string(rng: &mut StdRng) -> String {
    const ALPHABET: [char; 12] = [
        'a', 'Z', '7', ' ', '"', '\\', '\n', '\t', '\r', '\u{1}', 'é', '😀',
    ];
    (0..rng.gen_range(0..12usize))
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect()
}

fn arb_config(rng: &mut StdRng) -> Config {
    let values = (0..rng.gen_range(0..6usize))
        .map(|_| match rng.gen_range(0..3) {
            0 => ParamValue::Float(arb_f64(rng)),
            1 => ParamValue::Int(rng.gen_range(-1000..1000i64)),
            _ => ParamValue::Cat(rng.gen_range(0..9usize)),
        })
        .collect();
    Config::new(values)
}

fn arb_spec(rng: &mut StdRng) -> JobSpec {
    JobSpec {
        config: arb_config(rng),
        level: rng.gen_range(0..4usize),
        resource: arb_f64(rng),
        bracket: coin(rng).then(|| rng.gen_range(0..4usize)),
        id: if coin(rng) { 0 } else { rng.gen::<u64>() },
    }
}

fn arb_measurement(rng: &mut StdRng) -> Measurement {
    Measurement {
        config: arb_config(rng),
        level: rng.gen_range(0..4usize),
        resource: arb_f64(rng),
        value: arb_f64(rng),
        test_value: arb_f64(rng),
        cost: arb_f64(rng),
        finished_at: arb_f64(rng),
    }
}

fn arb_event(rng: &mut StdRng) -> Event {
    match rng.gen_range(0..7) {
        0 => Event::TrialDispatched {
            level: rng.gen_range(0..4usize),
            bracket: coin(rng).then(|| rng.gen_range(0..4usize)),
            attempt: rng.gen_range(0..3usize),
        },
        1 => Event::TrialCompleted {
            level: rng.gen_range(0..4usize),
            bracket: coin(rng).then(|| rng.gen_range(0..4usize)),
            value: arb_f64(rng),
            cost: arb_f64(rng),
        },
        2 => Event::TrialRetried {
            level: rng.gen_range(0..4usize),
            attempt: rng.gen_range(1..4usize),
            kind: FailureKind::Orphaned,
        },
        3 => Event::BracketWeightsUpdated {
            n_full: rng.gen_range(0..100usize),
            theta: (0..rng.gen_range(0..5usize))
                .map(|_| arb_f64(rng))
                .collect(),
            weights: (0..rng.gen_range(0..5usize))
                .map(|_| arb_f64(rng))
                .collect(),
        },
        4 => Event::SpanClosed {
            name: arb_string(rng),
            duration: arb_f64(rng),
        },
        5 => Event::StudyCreated {
            study: rng.gen::<u64>(),
            name: arb_string(rng),
        },
        _ => Event::BreakerClosed,
    }
}

proptest! {
    #[test]
    fn wal_records_stream_what_the_tree_prints(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let submission = SubmissionRecord {
                spec: arb_spec(&mut rng),
                value: arb_f64(&mut rng),
                test_value: arb_f64(&mut rng),
                cost: arb_f64(&mut rng),
            };
            let (streamed, printed) = both(&submission);
            prop_assert_eq!(streamed, printed);
            let (streamed, printed) = both(&arb_measurement(&mut rng));
            prop_assert_eq!(streamed, printed);
        }
        let snapshot = RunSnapshot {
            seed,
            submissions: Vec::new(),
            measurements: (0..3).map(|_| arb_measurement(&mut rng)).collect(),
        };
        let (streamed, printed) = both(&snapshot);
        prop_assert_eq!(streamed, printed);
    }

    #[test]
    fn service_payloads_stream_what_the_tree_prints(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let job = ServiceJob {
                study: rng.gen::<u64>(),
                bench: arb_string(&mut rng),
                bench_seed: rng.gen::<u64>(),
                job: ThreadedJob {
                    spec: arb_spec(&mut rng),
                    attempt: rng.gen_range(0..4usize),
                },
            };
            let (streamed, printed) = both(&job);
            prop_assert_eq!(streamed, printed);
            let record = StudyRecord {
                id: rng.gen::<u64>(),
                spec: StudySpec::new(arb_string(&mut rng), arb_string(&mut rng), MethodKind::HyperTune)
                    .with_seed(rng.gen::<u64>())
                    .with_max_evals(rng.gen_range(0..1000usize)),
                status: [StudyStatus::Running, StudyStatus::Completed, StudyStatus::Stopped]
                    [rng.gen_range(0..3usize)],
                generation: rng.gen_range(0..5u64),
            };
            let (streamed, printed) = both(&record);
            prop_assert_eq!(streamed, printed);
        }
    }

    #[test]
    fn frames_and_events_stream_what_the_tree_prints(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let event = arb_event(&mut rng);
            let (streamed, printed) = both(&event);
            prop_assert_eq!(streamed, printed);
            let record = EventRecord {
                seq: rng.gen::<u64>(),
                time: arb_f64(&mut rng),
                event,
                tenant: coin(&mut rng).then(|| rng.gen::<u64>()),
            };
            let (streamed, printed) = both(&record);
            prop_assert_eq!(streamed, printed);
        }
    }
}

#[derive(Serialize)]
struct Unit;

#[derive(Serialize)]
struct Newtype(i64);

#[derive(Serialize)]
struct Pair(String, Option<f64>);

#[allow(non_snake_case)]
#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Named {
    zeta: u8,
    alpha: String,
    #[serde(skip)]
    cache: Vec<u32>,
    #[serde(default)]
    mid: i32,
    Beta: bool,
}

#[derive(Serialize)]
enum Shapes {
    Bare,
    One(Newtype),
    Two(i8, Vec<Pair>),
    Fields { y: f32, x: BTreeMap<i32, Unit> },
}

/// Every shape the derive handles, each with keys declared out of
/// order: the streamed object must print them sorted, the way the
/// `BTreeMap` behind `serde::Map` does.
#[test]
fn every_derive_shape_streams_what_the_tree_prints() {
    let named = Named {
        zeta: 9,
        alpha: "a\"b\\c\n".to_string(),
        cache: vec![1, 2, 3],
        mid: -4,
        Beta: true,
    };
    let (streamed, printed) = both(&named);
    assert_eq!(streamed, printed);
    assert_eq!(
        streamed, r#"{"Beta":true,"alpha":"a\"b\\c\n","mid":-4,"zeta":9}"#,
        "sorted keys, no skipped field"
    );
    // The text reads back (the skipped field takes its default).
    let back: Named = serde_json::from_str(&streamed).unwrap();
    assert_eq!(
        back,
        Named {
            cache: Vec::new(),
            ..named
        }
    );

    // Map keys sort as *printed* text, not as numbers.
    let map: BTreeMap<i32, Unit> = [(-1, Unit), (10, Unit), (9, Unit)].into_iter().collect();
    let shapes = [
        Shapes::Bare,
        Shapes::One(Newtype(i64::MIN)),
        Shapes::Two(
            -7,
            vec![
                Pair("é😀\u{1}".to_string(), None),
                Pair(String::new(), Some(f64::NAN)),
                Pair("x".to_string(), Some(-0.0)),
            ],
        ),
        Shapes::Fields { y: 0.5, x: map },
    ];
    let (streamed, printed) = both(shapes.as_slice());
    assert_eq!(streamed, printed);
    assert!(streamed.contains(r#"{"Fields":{"x":{"-1":null,"10":null,"9":null},"y":0.5}}"#));
    assert_eq!(both(&Unit).0, "null");
    assert_eq!(
        both(&Pair("p".into(), Some(f64::INFINITY))).0,
        r#"["p",null]"#
    );
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
#[serde(tag = "kind", rename_all = "snake_case")]
enum Tagged {
    UnitCase,
    FieldCase {
        #[serde(skip_serializing_if = "Option::is_none")]
        a: Option<u8>,
        z: f64,
    },
}

/// An internally tagged variant is one object, its renamed tag sorted
/// among its fields; a skipped `None` leaves neither its key nor a
/// stray comma, even where it sorts first.
#[test]
fn tagged_renamed_and_skipped_keys_stream_what_the_tree_prints() {
    let field = |a| Tagged::FieldCase { a, z: 0.5 };
    let cases = [
        (Tagged::UnitCase, r#"{"kind":"unit_case"}"#),
        (field(None), r#"{"kind":"field_case","z":0.5}"#),
        (field(Some(1)), r#"{"a":1,"kind":"field_case","z":0.5}"#),
    ];
    for (x, want) in cases {
        assert_eq!(both(&x), (want.to_string(), want.to_string()));
        assert_eq!(serde_json::from_str::<Tagged>(want).unwrap(), x);
    }
    assert!(serde_json::from_str::<Tagged>(r#"{"kind":"nope"}"#).is_err());
    assert!(serde_json::from_str::<Tagged>(r#"{"z":0.5}"#).is_err());
}

/// A real `#[serde(skip)]` in the workspace: `ConfigSpace`'s name index.
#[test]
fn config_space_streams_what_the_tree_prints() {
    for bench in ["counting-ones-small", "xgboost-covertype", "nas-cifar100"] {
        let bench = registry::make_bench(bench, 3).expect("registered benchmark");
        let (streamed, printed) = both(bench.space());
        assert_eq!(streamed, printed);
        assert!(!streamed.contains("index"), "the skipped field is absent");
    }
}

/// `to_string` and `to_writer` are the streamed text.
#[test]
fn serde_json_entry_points_stream() {
    let mut rng = StdRng::seed_from_u64(11);
    let m = arb_measurement(&mut rng);
    let (streamed, _) = both(&m);
    assert_eq!(serde_json::to_string(&m).unwrap(), streamed);
    let mut bytes = Vec::new();
    serde_json::to_writer(&mut bytes, &m).unwrap();
    assert_eq!(bytes, streamed.into_bytes());
}
