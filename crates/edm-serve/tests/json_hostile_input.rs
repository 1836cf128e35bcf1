//! The vendored JSON parser reads every request line a client sends, so it
//! must answer any text with a value or an error, never a panic or a stack
//! overflow. The inputs mix arbitrary bytes, spliced valid documents,
//! nesting around the parser's depth limit, extreme numbers and broken
//! escapes and UTF-8. Each is parsed into a bare `Value` and into the
//! service's `Request` (and `Response`, which clients parse).

use edm_serve::protocol::{Request, Response};
use edm_serve::queue::Priority;
use proptest::prelude::*;
use serde::parser::{self, MAX_DEPTH};

/// `serde_json::from_str` over raw bytes, as upstream's `from_slice`
/// reads them: bytes that are not UTF-8 are an error.
fn from_slice<T: serde::Deserialize>(bytes: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

/// Parses `text` every way a reader may and checks the answers agree: a
/// typed parse succeeds only on text that parses as a value, and what
/// parses re-encodes to text that parses again.
fn check(text: &str) -> Result<(), TestCaseError> {
    let value = parser::parse(text);
    let request = serde_json::from_str::<Request>(text);
    let response = serde_json::from_str::<Response>(text);
    let numbers = serde_json::from_str::<Vec<f64>>(text);
    let typed_ok = request.is_ok() || response.is_ok() || numbers.is_ok();
    prop_assert!(value.is_ok() || !typed_ok, "typed parse of invalid JSON");
    if let Ok(value) = value {
        let again = parser::parse(&serde::to_compact_text(&value));
        prop_assert!(
            again.is_ok(),
            "re-encoded value does not parse: {:?}",
            again
        );
    }
    if let Ok(request) = request {
        let line = serde_json::to_string(&request).unwrap();
        prop_assert_eq!(serde_json::from_str::<Request>(&line).ok(), Some(request));
    }
    Ok(())
}

/// Valid request and response lines.
fn documents() -> Vec<String> {
    let requests = [
        Request::Submit {
            qasm: "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];".into(),
            shots: 1024,
            seed: 7,
            priority: Priority::High,
            trace_id: 3,
            parent_span: 9,
        },
        Request::Poll { id: 18_446_744_073_709_551_615 },
        Request::Flush,
        Request::Stats,
        Request::Shutdown,
    ];
    let responses = [
        Response::Accepted { id: 1, trace_id: 2 },
        Response::Rejected {
            reason: "shots must be at most 1073741824 (got 0) \u{e9}\u{1f600}".into(),
        },
    ];
    let mut docs: Vec<String> = requests
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect();
    docs.extend(responses.iter().map(|r| serde_json::to_string(r).unwrap()));
    docs
}

/// Numbers at and past every edge the parser and `u64`/`i64`/`f64` have.
const EXTREME_NUMBERS: &[&str] = &[
    "0",
    "-0",
    "00",
    "01",
    "1.",
    ".5",
    "-",
    "--1",
    "+1",
    "1e",
    "1e+",
    "1e-",
    "1E400",
    "-1e400",
    "1e-400",
    "4.9e-324",
    "1.7976931348623157e308",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775808",
    "-9223372036854775809",
    "1.0",
    "1.5",
    "-1",
    "1e19",
    "1-2",
    "1.2.3",
    "0x10",
    "NaN",
    "Infinity",
];

/// Broken escapes and string edges.
const BROKEN_STRINGS: &[&str] = &[
    r#""\u12""#,
    r#""\u00zz""#,
    r#""\ud800""#,
    r#""\udc00\ud800""#,
    r#""\x41""#,
    r#""\""#,
    r#""\"#,
    r#"""#,
    r#""\u""#,
    "\"\u{0}\u{1f}\"",
    "\"tab\there\"",
    r#""\/\b\f\n\r\t\\\"""#,
    "\"\u{10ffff}\"",
];

/// One hostile piece of text.
fn piece() -> impl Strategy<Value = Vec<u8>> {
    let docs = documents();
    let whole = {
        let docs = docs.clone();
        (0..docs.len()).prop_map(move |i| docs[i].clone().into_bytes())
    };
    // The head of one valid document joined to the tail of another, cut at
    // arbitrary bytes (possibly inside a multi-byte character).
    let spliced = (0..docs.len(), 0..docs.len(), 0.0..1.0, 0.0..1.0).prop_map(
        move |(a, b, head, tail): (usize, usize, f64, f64)| {
            let (a, b) = (docs[a].as_bytes(), docs[b].as_bytes());
            let head = &a[..(head * a.len() as f64) as usize];
            let tail = &b[(tail * b.len() as f64) as usize..];
            [head, tail].concat()
        },
    );
    let number = (0..EXTREME_NUMBERS.len()).prop_map(|i| EXTREME_NUMBERS[i].as_bytes().to_vec());
    let in_a_field = (0..EXTREME_NUMBERS.len(), 0usize..3).prop_map(|(i, field)| {
        let n = EXTREME_NUMBERS[i];
        match field {
            0 => format!(r#"{{"Poll":{{"id":{n}}}}}"#),
            1 => format!(r#"{{"Submit":{{"qasm":"","shots":{n},"seed":1,"priority":"Normal"}}}}"#),
            _ => format!("[{n},{n}]"),
        }
        .into_bytes()
    });
    let string = (0..BROKEN_STRINGS.len()).prop_map(|i| BROKEN_STRINGS[i].as_bytes().to_vec());
    let in_qasm = (0..BROKEN_STRINGS.len()).prop_map(|i| {
        let s = BROKEN_STRINGS[i];
        format!(r#"{{"Submit":{{"qasm":{s},"shots":1,"seed":1,"priority":"Low"}}}}"#).into_bytes()
    });
    prop_oneof![
        proptest::collection::vec(0u8..=255, 1..16),
        proptest::collection::vec(32u8..127, 1..32),
        Just(vec![0xff, 0xfe]),
        Just("\"\u{e9}".as_bytes()[..2].to_vec()),
        Just(b"\xf0\x9f\x98".to_vec()),
        Just(b"{\"a\":\xc3}".to_vec()),
        Just(b" \t\r\n".to_vec()),
        Just(b",".to_vec()),
        Just(b":".to_vec()),
        whole,
        spliced,
        number,
        in_a_field,
        string,
        in_qasm,
    ]
}

/// `depth` nested arrays or objects (`kind` 0 or 1), closed or not, with
/// a scalar at the bottom.
fn nest(depth: usize, kind: usize, closed: bool) -> String {
    let (open, close) = match kind {
        0 => ("[", "]"),
        _ => (r#"{"a":"#, "}"),
    };
    let mut text = open.repeat(depth);
    text.push('1');
    if closed {
        text.push_str(&close.repeat(depth));
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn any_bytes_parse_or_report_an_error(pieces in proptest::collection::vec(piece(), 0..6)) {
        let bytes = pieces.concat();
        let value = from_slice::<Request>(&bytes);
        prop_assert!(value.is_err() || std::str::from_utf8(&bytes).is_ok());
        match std::str::from_utf8(&bytes) {
            Ok(text) => check(text)?,
            // What a lossy reader would make of the same bytes.
            Err(_) => check(&String::from_utf8_lossy(&bytes))?,
        }
    }

    #[test]
    fn nesting_around_the_depth_limit_parses_exactly_up_to_it(
        depth in (MAX_DEPTH - 8)..(MAX_DEPTH + 8),
        kind in 0usize..2,
        closed in 0usize..2,
        wrap_in_a_request in 0usize..2,
    ) {
        let closed = closed == 1;
        let mut text = nest(depth, kind, closed);
        if wrap_in_a_request == 1 {
            text = format!(r#"{{"Poll":{{"id":{text}}}}}"#);
        }
        let levels = depth + 2 * wrap_in_a_request;
        let value = parser::parse(&text);
        prop_assert_eq!(value.is_ok(), closed && levels <= MAX_DEPTH, "{} levels", levels);
        prop_assert!(serde_json::from_str::<Request>(&text).is_err());
        check(&text)?;
    }
}

#[test]
fn nesting_far_past_the_limit_is_an_error_not_a_stack_overflow() {
    for depth in [MAX_DEPTH + 1, 10_000, 1_000_000] {
        for kind in 0..2 {
            for closed in [false, true] {
                let text = nest(depth, kind, closed);
                assert!(parser::parse(&text).is_err(), "depth {depth}");
                assert!(serde_json::from_str::<Request>(&text).is_err());
                assert!(from_slice::<Response>(text.as_bytes()).is_err());
            }
        }
    }
}

#[test]
fn extreme_numbers_in_request_fields_are_values_or_errors() {
    let max = format!(r#"{{"Poll":{{"id":{}}}}}"#, u64::MAX);
    assert_eq!(
        serde_json::from_str::<Request>(&max).ok(),
        Some(Request::Poll { id: u64::MAX })
    );
    for n in EXTREME_NUMBERS {
        let poll = format!(r#"{{"Poll":{{"id":{n}}}}}"#);
        let parsed = serde_json::from_str::<Request>(&poll);
        if let Ok(Request::Poll { id }) = parsed {
            // Only an exact non-negative integer may become an id.
            assert_eq!(n.parse::<f64>().ok(), Some(id as f64), "{n}");
        }
    }
}

/// Text a client may mean as an integer that is not one in JSON: a float,
/// even an integer-valued one, a number past `u64::MAX`, leading zeros, a
/// bare point. Each is refused with an error line, never read as some
/// other id (`1e19` and `18446744073709551616` once became `u64::MAX`,
/// `007` became 7).
#[test]
fn integer_fields_refuse_floats_and_malformed_numbers() {
    for n in [
        "1e19",
        "18446744073709551616",
        "007",
        "1.",
        "1.0",
        "1e0",
        "00",
        "-",
        "-1",
    ] {
        let line = format!(r#"{{"Poll":{{"id":{n}}}}}"#);
        let err = serde_json::from_str::<Request>(&line).expect_err(&line);
        let reply = serde_json::to_string(&Response::Error {
            reason: format!("bad request line: {err}"),
        })
        .expect("an error line encodes");
        assert!(
            reply.starts_with(r#"{"Error":{"reason":"bad request line: "#),
            "{line}: {reply}"
        );
        let submit =
            format!(r#"{{"Submit":{{"qasm":"","shots":{n},"seed":1,"priority":"Normal"}}}}"#);
        assert!(
            serde_json::from_str::<Request>(&submit).is_err(),
            "{submit}"
        );
    }
}
