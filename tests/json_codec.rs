//! Property tests of the hand-rolled RFC 8259 codec in `erms-control`.
//!
//! The control plane's snapshot bit-identity guarantee rests entirely on
//! this codec: every finite `f64` must survive render → parse with its
//! exact bit pattern, arbitrary documents (escapes, nesting, unicode)
//! must round-trip structurally, and non-finite numbers must be refused
//! with the typed [`JsonError::NonFinite`] instead of leaking `inf` into
//! a document some other parser would choke on.

use erms::control::json::JsonError;
use erms::control::Json;
use proptest::prelude::*;

/// Builds an arbitrary JSON document from flat instruction lists — the
/// stub proptest has no recursive combinator, so nesting is driven by a
/// depth script instead.
fn doc_from(script: Vec<(u8, u64, f64)>, strings: Vec<String>) -> Json {
    let mut stack: Vec<Json> = Vec::new();
    for (i, (kind, bits, num)) in script.into_iter().enumerate() {
        let s = strings[i % strings.len().max(1)].clone();
        let leaf = match kind % 8 {
            0 => Json::Null,
            1 => Json::Bool(bits % 2 == 0),
            2 => {
                // An f64 from raw bits, masked to finite.
                let v = f64::from_bits(bits);
                Json::Num(if v.is_finite() { v } else { num })
            }
            3 => Json::Num(num),
            4 | 5 => Json::Str(s.clone()),
            6 => {
                // Fold up to three prior values into an array.
                let n = (bits % 4) as usize;
                let take = n.min(stack.len());
                Json::Arr(stack.split_off(stack.len() - take))
            }
            _ => {
                // Fold up to three prior values into an object with
                // distinct (index-suffixed) keys.
                let n = (bits % 4) as usize;
                let take = n.min(stack.len());
                let vals = stack.split_off(stack.len() - take);
                Json::Obj(
                    vals.into_iter()
                        .enumerate()
                        .map(|(k, v)| (format!("{s}#{i}.{k}"), v))
                        .collect(),
                )
            }
        };
        stack.push(leaf);
    }
    Json::Arr(stack)
}

/// Strings that exercise every escape class: quotes, backslashes, the
/// control range, multi-byte unicode, and surrogate-pair code points.
fn string_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u16>(), 0..12).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| match c % 11 {
                0 => '"',
                1 => '\\',
                2 => '\n',
                3 => '\t',
                4 => char::from(u8::try_from(c % 0x20).unwrap_or(0)),
                5 => 'é',
                6 => '李',
                7 => '🦀',
                8 => '/',
                _ => char::from(u8::try_from(0x20 + c % 0x5f).unwrap_or(b'a')),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary documents round-trip structurally, and the rendering is
    /// a fixed point: parse(render(x)) == x and render is stable.
    #[test]
    fn documents_round_trip(
        script in prop::collection::vec((any::<u8>(), any::<u64>(), -1.0e12f64..1.0e12), 0..24),
        strings in prop::collection::vec(string_strategy(), 1..4),
    ) {
        let doc = doc_from(script, strings);
        let text = doc.to_text().expect("doc has only finite numbers");
        let back = Json::parse(&text).expect("own rendering must parse");
        prop_assert_eq!(&back, &doc);
        prop_assert_eq!(back.to_text().unwrap(), text);
    }

    /// Every finite `f64` — including subnormals, -0.0, and values needing
    /// all 17 significant digits — survives the trip with its exact bits.
    #[test]
    fn finite_f64_round_trips_bit_exactly(bits in any::<u64>()) {
        let v = f64::from_bits(bits);
        prop_assume!(v.is_finite());
        let text = Json::Num(v).to_text().unwrap();
        let back = Json::parse(&text).expect("rendered number must parse");
        let Json::Num(parsed) = back else {
            return Err(proptest::test_runner::TestCaseError::Fail(
                format!("expected a number back, got {back:?}"),
            ));
        };
        prop_assert!(
            parsed.to_bits() == v.to_bits(),
            "{} re-parsed as {}", v, parsed
        );
    }

    /// Strings survive independently of where they sit in the document.
    #[test]
    fn strings_round_trip(s in string_strategy()) {
        let text = Json::Str(s.clone()).to_text().unwrap();
        prop_assert_eq!(Json::parse(&text).unwrap(), Json::Str(s));
    }
}

#[test]
fn non_finite_numbers_are_refused_with_the_typed_error() {
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(Json::Num(v).to_text(), Err(JsonError::NonFinite));
        // Buried deep in a document, the same typed error surfaces.
        let doc = Json::obj(vec![("a", Json::Arr(vec![Json::Num(1.0), Json::Num(v)]))]);
        assert_eq!(doc.to_text(), Err(JsonError::NonFinite));
    }
    // And the parser refuses the spellings other encoders leak.
    for text in ["NaN", "Infinity", "-Infinity", "inf", "[nan]"] {
        assert!(Json::parse(text).is_err(), "{text} must not parse");
    }
}
