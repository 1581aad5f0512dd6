//! `Serialize::write_bin` is the binary encoder without the tree: for
//! every type the driver puts on the wire, writing it straight must give
//! byte for byte what encoding `to_value()` gives — the worker decodes
//! both the same way, and the golden frames pin the latter. Checked over
//! generated values (non-finite floats, −0.0, negative ints, `None`s,
//! empty configs, strings that need escaping) for the dispatch payloads
//! (`ServiceJob`, `ThreadedJob`, `JobSpec`, `Config`), the `Eval`
//! results and hello payloads, and over local types covering every
//! shape the derive handles, the choice of array tag included. A
//! counting allocator checks that a warm dispatch encode allocates
//! nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use hypertune::cluster::proto::{self, Frame};
use hypertune::core::{JobSpec, ThreadedJob};
use hypertune::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::bin::{self, Reader};
use serde::{Serialize, Value};
use serde_json::json;

thread_local! {
    /// Heap allocations made by this thread so far.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's allocations (a
/// `realloc` or `alloc_zeroed` reaches `alloc` through the trait's
/// default methods).
struct Counting;

// SAFETY: every call goes to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counter
// is a const-initialised `Cell` with no destructor, so touching it never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through as-is.
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, that is from `System`,
        // with this `layout`.
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Asserts that the bytes written straight are those of the encoded
/// tree, that the float probe agrees with the tree, and that the bytes
/// read back as the tree; returns the bytes.
fn check<T: Serialize + ?Sized>(x: &T) -> Vec<u8> {
    let mut direct = Vec::new();
    x.write_bin(&mut direct);
    let value = x.to_value();
    let mut tree = Vec::new();
    value.write_bin(&mut tree);
    assert_eq!(
        direct, tree,
        "write_bin differs from to_value().write_bin()"
    );
    let probe = match value {
        Value::Number(serde::Number::Float(f)) => Some(f.to_bits()),
        _ => None,
    };
    assert_eq!(x.bin_float().map(f64::to_bits), probe, "bin_float probe");
    let mut r = Reader::new(&direct);
    assert_eq!(r.value().unwrap(), value, "the bytes decode to the tree");
    assert!(r.done(), "no trailing bytes");
    direct
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

fn arb_service_job(rng: &mut StdRng) -> ServiceJob {
    ServiceJob {
        study: rng.gen::<u64>(),
        bench: arb_string(rng),
        bench_seed: rng.gen::<u64>(),
        job: ThreadedJob {
            spec: arb_spec(rng),
            attempt: rng.gen_range(0..4usize),
        },
    }
}

/// What the drivers send as `Hello`: the CLI's single-study and
/// multi-study payloads, plus the session epoch the driver adds.
fn arb_hello(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..3) {
        0 => json!({
            "bench": arb_string(rng),
            "seed": rng.gen::<u64>(),
            "sleep_ms": rng.gen_range(0..100u64),
            "_epoch": rng.gen_range(0..5u64),
        }),
        1 => json!({ "multi_study": true, "_epoch": rng.gen_range(0..5u64) }),
        _ => Value::Null,
    }
}

proptest! {
    #[test]
    fn dispatch_payloads_write_what_the_tree_encodes(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let job = arb_service_job(&mut rng);
            check(&job);
            check(&job.job);
            check(&job.job.spec);
            check(&job.job.spec.config);
            // The frame the driver appends is the frame of the tree.
            let job_id = rng.gen::<u64>();
            let mut appended = vec![0xee];
            proto::append_dispatch(&mut appended, job_id, &job).unwrap();
            let framed = proto::encode_frame(&Frame::Dispatch {
                job_id,
                payload: job.to_value(),
            });
            prop_assert_eq!(&appended[1..], &framed[..], "append keeps what was there");
            prop_assert_eq!(appended[0], 0xee);
        }
    }

    #[test]
    fn results_and_hellos_write_what_the_tree_encodes(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            check(&Eval {
                value: arb_f64(&mut rng),
                test_value: arb_f64(&mut rng),
                cost: arb_f64(&mut rng),
            });
            check(&arb_hello(&mut rng));
        }
    }
}

#[derive(Serialize)]
struct Unit;

#[derive(Serialize)]
struct Empty();

#[derive(Serialize)]
struct Newtype(f64);

#[derive(Serialize)]
struct Triple(f64, f64, f64);

#[derive(Serialize)]
struct Mixed(String, Option<i64>, u8);

#[allow(non_snake_case)]
#[derive(Serialize)]
struct Named {
    zeta: u8,
    alpha: String,
    #[serde(skip)]
    #[allow(dead_code)] // only ever skipped
    cache: Vec<u32>,
    mid: i32,
    Beta: bool,
}

#[derive(Serialize)]
enum Shapes {
    Bare,
    One(Newtype),
    Two(i8, Vec<Mixed>),
    Floats(f64, f32),
    Fields { y: f32, x: BTreeMap<i32, Unit> },
}

#[derive(Serialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
enum Tagged {
    UnitCase,
    FieldCase {
        #[serde(skip_serializing_if = "Option::is_none")]
        a: Option<u8>,
        z: f64,
    },
}

/// The tag byte at the start of an encoded value.
fn tag<T: Serialize + ?Sized>(x: &T) -> u8 {
    check(x)[0]
}

#[test]
fn every_derive_shape_writes_what_the_tree_encodes() {
    let named = Named {
        zeta: 9,
        alpha: "a\"b\\c\n".to_string(),
        cache: vec![1, 2, 3],
        mid: -4,
        Beta: true,
    };
    let bytes = check(&named);
    assert_eq!(
        &bytes[..2],
        &[bin::OBJECT, 4],
        "the skipped field is absent"
    );
    assert_eq!(&bytes[2..7], b"\x04Beta", "keys sorted: Beta first");

    let map: BTreeMap<i32, Unit> = [(-1, Unit), (10, Unit), (9, Unit)].into_iter().collect();
    let shapes = vec![
        Shapes::Bare,
        Shapes::One(Newtype(-0.0)),
        Shapes::Two(
            -7,
            vec![
                Mixed("é😀\u{1}".to_string(), None, 0),
                Mixed(String::new(), Some(i64::MIN), 255),
            ],
        ),
        Shapes::Floats(0.5, 1.5),
        Shapes::Floats(f64::NAN, 1.5),
        Shapes::Fields { y: 0.5, x: map },
    ];
    check(&shapes);
    for shape in &shapes {
        check(shape);
    }
    assert_eq!(
        tag(&Shapes::Bare),
        bin::STRING,
        "a unit variant is its name"
    );
    assert_eq!(tag(&Unit), bin::NULL);
    assert_eq!(tag(&Empty()), bin::NULL);
    assert_eq!(tag(&Newtype(2.5)), bin::FLOAT, "a newtype is its field");
    assert_eq!(tag(&Newtype(f64::NAN)), bin::NULL);
    assert_eq!(tag(&Mixed("m".into(), Some(-1), 1)), bin::ARRAY);
    // An internally tagged variant is one object; a skipped key is not
    // counted.
    let field = |a| Tagged::FieldCase { a, z: 0.5 };
    for (x, keys) in [(Tagged::UnitCase, 1), (field(None), 2), (field(Some(1)), 3)] {
        assert_eq!(check(&x)[..2], [bin::OBJECT, keys]);
    }
}

#[test]
fn float_sequences_take_the_raw_array_tag_only_when_every_element_is_finite() {
    // All finite: tag 0x08, a count, then bare little-endian words.
    let finite = vec![0.5, -0.0, 1e-300, -2.0];
    let bytes = check(&finite);
    assert_eq!(bytes[0], bin::F64_ARRAY);
    assert_eq!(bytes.len(), 2 + 8 * finite.len());
    assert_eq!(tag(&Triple(1.0, -0.0, 3.0)), bin::F64_ARRAY);
    // A tuple variant's payload follows `{"Floats":` (9 bytes).
    assert_eq!(check(&Shapes::Floats(0.5, 1.5))[9], bin::F64_ARRAY);
    assert_eq!(check(&Shapes::Floats(0.5, f32::NAN))[9], bin::ARRAY);
    assert_eq!(tag(&vec![Newtype(1.0), Newtype(2.0)]), bin::F64_ARRAY);
    assert_eq!(tag(&vec![Some(1.0), Some(2.0)]), bin::F64_ARRAY);
    assert_eq!(tag(&vec![1.5f32, 2.5]), bin::F64_ARRAY);

    // One non-finite element falls back to tagged elements, the
    // non-finite one as null.
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut floats = finite.clone();
        floats[2] = bad;
        let bytes = check(&floats);
        assert_eq!(bytes[0], bin::ARRAY);
        assert!(Reader::new(&bytes).value().unwrap()[2].is_null());
        let bytes = check(&Triple(1.0, bad, 3.0));
        assert_eq!(bytes[0], bin::ARRAY);
        assert!(Reader::new(&bytes).value().unwrap()[1].is_null());
    }
    assert_eq!(tag(&vec![Some(1.0), None]), bin::ARRAY);
    assert_eq!(tag(&vec![1.0f64.to_value(), json!(1)]), bin::ARRAY);

    // The empty sequence is a generic array.
    assert_eq!(check(&Vec::<f64>::new()), vec![bin::ARRAY, 0]);
    assert_eq!(check(&Value::Array(Vec::new())), vec![bin::ARRAY, 0]);
}

#[test]
fn integers_and_strings_write_what_the_tree_encodes() {
    for i in [0, 1, -1, 127, 128, -64, -65, i64::MAX, i64::MIN] {
        check(&i);
        check(&(i as i32));
        check(&(i as isize));
    }
    for u in [0u64, 1, 127, 128, 300, u64::MAX] {
        check(&u);
        check(&(u as usize));
        check(&(u as u8));
    }
    for s in ["", "plain", "quote\" back\\slash\nnew\ttab\r\u{1}", "é😀"] {
        check(s);
        check(&s.to_string());
    }
    check(&true);
    check(&None::<u8>);
    check(&Some("x"));
}

#[test]
fn a_warm_dispatch_encode_allocates_nothing() {
    let mut rng = StdRng::seed_from_u64(7);
    let jobs: Vec<ServiceJob> = (0..64).map(|_| arb_service_job(&mut rng)).collect();
    let mut out = Vec::new();
    for (job_id, job) in jobs.iter().enumerate() {
        proto::append_dispatch(&mut out, job_id as u64, job).unwrap();
    }
    let warm = out.capacity();
    let before = allocations();
    for (job_id, job) in jobs.iter().enumerate() {
        out.clear();
        proto::append_dispatch(&mut out, job_id as u64, job).unwrap();
    }
    assert_eq!(allocations() - before, 0, "the encode allocated");
    assert_eq!(out.capacity(), warm);
    // The counter does see a tree being built.
    let before = allocations();
    let _ = jobs[0].to_value();
    assert!(allocations() > before, "the allocator counts");
}
