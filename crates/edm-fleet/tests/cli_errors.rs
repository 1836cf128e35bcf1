//! Command-line and pipe failures of the `edm-serve` and `edm-fleet`
//! binaries: a misspelled flag is a usage error, and a reader that closes
//! `edm-serve`'s stdout early ends the session without a panic.

use std::io::{Read, Write};
use std::process::{Command, Output, Stdio};

fn run(binary: &str, args: &[&str]) -> Output {
    Command::new(binary)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .expect("run binary")
}

fn assert_usage_error(output: &Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr was: {stderr}");
    assert!(
        stderr.contains(&format!("unknown argument '{flag}'")),
        "stderr was: {stderr}"
    );
    assert!(stderr.contains("usage:"), "stderr was: {stderr}");
}

#[test]
fn edm_serve_rejects_misspelled_flags() {
    let serve = env!("CARGO_BIN_EXE_edm-serve");
    assert_usage_error(&run(serve, &["--thread", "2", "--controler"]), "--thread");
    assert_usage_error(
        &run(serve, &["--threads", "2", "--controler"]),
        "--controler",
    );
}

#[test]
fn edm_fleet_rejects_misspelled_flags() {
    let fleet = env!("CARGO_BIN_EXE_edm-fleet");
    assert_usage_error(&run(fleet, &["--device", "5", "--shard", "2"]), "--device");
    assert_usage_error(&run(fleet, &["--devices", "1", "--shard", "2"]), "--shard");
}

#[test]
fn edm_serve_stops_quietly_when_stdout_closes() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_edm-serve"))
        .args(["--threads", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn edm-serve");
    let mut stdin = child.stdin.take().expect("stdin piped");
    let mut stdout = child.stdout.take().expect("stdout piped");
    writeln!(stdin, "\"Stats\"").expect("write request");
    // Like `head -c 1`: read one byte, then hang up.
    let mut byte = [0u8; 1];
    stdout.read_exact(&mut byte).expect("first response byte");
    drop(stdout);
    // The server may already have exited, so these writes may fail.
    for _ in 0..64 {
        if writeln!(stdin, "\"Stats\"").is_err() {
            break;
        }
    }
    drop(stdin);
    let output = child.wait_with_output().expect("edm-serve exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "stderr was: {stderr}");
    assert!(
        output.status.success(),
        "status {:?}: {stderr}",
        output.status
    );
}
