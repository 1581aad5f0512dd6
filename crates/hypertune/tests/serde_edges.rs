//! Two edges of the in-repo serde shims, checked from a workspace crate
//! because the shims' own tests sit outside the workspace: how a very
//! large float is written, and deriving for a tuple variant whose field
//! type is a path.

use serde::{Deserialize, Serialize, Value};

#[test]
fn integral_floats_from_1e16_print_in_exponent_form() {
    for (x, text) in [
        (1e300, "1e300"),
        (-1e300, "-1e300"),
        (1e16, "1e16"),
        (1.5e17, "1.5e17"),
        (f64::MAX, "1.7976931348623157e308"),
    ] {
        assert_eq!(serde_json::to_string(&x).unwrap(), text);
        assert_eq!(serde_json::to_string(&x.to_value()).unwrap(), text);
        let back: f64 = serde_json::from_str(text).unwrap();
        assert_eq!(back, x);
    }
    // Below 1e16 an integral float keeps its `.0`, and a fraction prints
    // as before.
    assert_eq!(serde_json::to_string(&9e15).unwrap(), "9000000000000000.0");
    assert_eq!(serde_json::to_string(&0.125).unwrap(), "0.125");
}

/// A tuple variant over path types: the derive must keep `serde::Value`
/// and `std::string::String` as paths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Record {
    Study(serde::Value),
    Pair(std::string::String, u32),
    Bytes(std::vec::Vec<u8>),
}

#[test]
fn tuple_variants_over_path_types_derive_and_round_trip() {
    let records = [
        Record::Study(Value::String("spec".into())),
        Record::Pair("a".into(), 7),
        Record::Bytes(vec![1, 2, 3]),
    ];
    for record in records {
        let text = serde_json::to_string(&record).unwrap();
        let back: Record = serde_json::from_str(&text).unwrap();
        assert_eq!(back, record, "{text}");
    }
}
