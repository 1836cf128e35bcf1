//! `qasm::parse` reads files and network submissions, so it must answer
//! any input with `Ok` or `Err` and never panic, and every circuit it
//! accepts must carry only finite gate angles. The inputs are arbitrary
//! bytes (decoded lossily, as a reader of untrusted text would) and a
//! valid program with one angle swapped for a token and random byte and
//! token splices.

use proptest::prelude::*;
use qcir::{qasm, Circuit};

/// A valid program using every statement form the parser knows.
fn valid_program() -> String {
    let mut c = Circuit::new(3, 3);
    c.h(0)
        .x(1)
        .rz(2, 0.5)
        .rx(0, -1.25)
        .ry(1, 3.0)
        .cx(0, 1)
        .cz(1, 2)
        .swap(0, 2)
        .ccx(0, 1, 2)
        .cswap(2, 0, 1)
        .measure_all();
    qasm::to_qasm(&c)
}

/// Fragments that steer splices into the parser's corners: numbers the
/// float parser accepts but no simulator can use, out-of-range register
/// sizes and indices, statement punctuation and non-ASCII text.
const TOKENS: &[&str] = &[
    "nan",
    "NaN",
    "inf",
    "-inf",
    "infinity",
    "1e999",
    "-1e999",
    "0x10",
    "(",
    ")",
    "[",
    "]",
    ";",
    ",",
    " ",
    "->",
    "\n",
    "\r\n",
    "//",
    "q[",
    "c[",
    "-1",
    "4294967295",
    "99999999999",
    "qreg q[2]",
    "creg c[70]",
    "measure q[0] -> c[9]",
    "rz(",
    "OPENQASM 2.0;",
    "\u{fffd}",
    "é",
];

/// One edit: `(position, kind, bytes, token, length)`. Kind 0 inserts the
/// random bytes, kind 1 inserts a token, kind 2 deletes `length` bytes.
type Splice = (usize, u8, Vec<u8>, usize, usize);

fn splices() -> impl Strategy<Value = Vec<Splice>> {
    let splice = (
        0usize..4096,
        0u8..3,
        proptest::collection::vec(0u8..=255, 0..6),
        0..TOKENS.len(),
        0usize..8,
    );
    proptest::collection::vec(splice, 0..6)
}

fn apply(mut bytes: Vec<u8>, splices: &[Splice]) -> Vec<u8> {
    for (pos, kind, random, token, length) in splices {
        let at = pos % (bytes.len() + 1);
        match kind {
            0 => drop(bytes.splice(at..at, random.iter().copied())),
            1 => drop(bytes.splice(at..at, TOKENS[*token].bytes())),
            _ => drop(bytes.drain(at..(at + length).min(bytes.len()))),
        }
    }
    bytes
}

/// Parses `bytes` as untrusted text; an accepted circuit must have only
/// finite angles. A panic anywhere fails the test.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    let text = String::from_utf8_lossy(bytes);
    if let Ok(circuit) = qasm::parse(&text) {
        for gate in circuit.iter() {
            if let Some(angle) = gate.param() {
                prop_assert!(angle.is_finite(), "accepted {:?} in {:?}", gate, text);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_the_parser(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        check(&bytes)?;
    }

    #[test]
    fn spliced_programs_never_panic_the_parser(angle in 0..TOKENS.len(), edits in splices()) {
        let program = valid_program().replacen("0.5", TOKENS[angle], 1);
        check(&apply(program.into_bytes(), &edits))?;
    }
}

#[test]
fn the_unspliced_program_parses() {
    assert!(qasm::parse(&valid_program()).is_ok());
}
