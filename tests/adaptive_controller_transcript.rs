//! Golden transcripts of `edm-cli run --adaptive-controller`: the
//! closed-loop local mode must print, line for line, what is recorded in
//! `fixtures/adaptive_controller_*.out` for a GHZ-3 and a BV-5 circuit
//! (4096 shots in 4 rounds, seed 3). Every printed number comes from the
//! controller's planning and feedback steps, so a change to either shows
//! up here as a changed health score, weight, or PST.

use std::path::Path;
use std::process::Command;

fn assert_transcript(circuit: &str) {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let qasm = fixtures.join(format!("{circuit}.qasm"));
    let want = std::fs::read_to_string(fixtures.join(format!("adaptive_controller_{circuit}.out")))
        .expect("read expected transcript");
    let out = Command::new(env!("CARGO_BIN_EXE_edm-cli"))
        .arg("run")
        .arg(&qasm)
        .args(["--adaptive-controller", "--shots", "4096", "--rounds", "4"])
        .args(["--seed", "3"])
        .output()
        .expect("spawn edm-cli");
    assert!(out.status.success(), "edm-cli failed: {out:?}");
    let got = String::from_utf8(out.stdout).expect("utf8 stdout");
    let got: Vec<&str> = got.lines().collect();
    let want: Vec<&str> = want.lines().collect();
    assert_eq!(got.len(), want.len(), "line count: {got:#?}");
    for (i, (got, want)) in got.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "{circuit}: line {}", i + 1);
    }
}

#[test]
fn ghz3_matches_the_recorded_transcript() {
    assert_transcript("ghz3");
}

#[test]
fn bv5_matches_the_recorded_transcript() {
    assert_transcript("bv5");
}
