//! Kill-and-restart smoke test of the `edm-serve` binary with `--journal`:
//! a job acknowledged before a crash is replayed by the next process under
//! its original id and produces the same summary as an uninterrupted run.

use edm_serve::protocol::{JobSummary, Request, Response};
use edm_serve::queue::Priority;
use qcir::{qasm, Circuit};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

fn ghz_qasm() -> String {
    let mut c = Circuit::new(3, 3);
    c.h(0).cx(0, 1).cx(1, 2).measure_all();
    qasm::to_qasm(&c)
}

fn submit() -> Request {
    Request::Submit {
        qasm: ghz_qasm(),
        shots: 512,
        seed: 7,
        priority: Priority::Normal,
        trace_id: 0,
        parent_span: 0,
    }
}

fn spawn(extra: &[&str]) -> std::process::Child {
    Command::new(env!("CARGO_BIN_EXE_edm-serve"))
        .args(["--threads", "2"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn edm-serve")
}

fn send(child: &mut std::process::Child, request: &Request) {
    let stdin = child.stdin.as_mut().expect("stdin piped");
    let line = serde_json::to_string(request).unwrap();
    writeln!(stdin, "{line}").expect("write request");
}

fn recv(reader: &mut impl BufRead) -> Response {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    serde_json::from_str(&line).expect("parse response")
}

/// Runs an uninterrupted journal-less session and returns job 1's summary.
fn reference_summary() -> JobSummary {
    let mut child = spawn(&[]);
    let mut out = BufReader::new(child.stdout.take().expect("stdout piped"));
    send(&mut child, &submit());
    assert!(matches!(recv(&mut out), Response::Accepted { id: 1, .. }));
    send(&mut child, &Request::Poll { id: 1 });
    let Response::Finished { id: 1, summary } = recv(&mut out) else {
        panic!("reference run did not finish");
    };
    send(&mut child, &Request::Shutdown);
    assert_eq!(recv(&mut out), Response::Bye);
    assert!(child.wait().expect("edm-serve exits").success());
    summary
}

#[test]
fn killed_server_replays_its_journal_on_restart() {
    let dir = std::env::temp_dir().join(format!("edm-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("serve.jsonl");
    let _ = std::fs::remove_file(&journal);
    let journal_arg = journal.to_str().unwrap();
    let index = dir.join("serve.jsonl.index");
    let _ = std::fs::remove_file(&index);

    let mut want = reference_summary();

    // First server: accept the job, then die before ever processing it.
    // The Accepted ack proves the journal entry is on disk (the service
    // journals before acknowledging).
    let mut child = spawn(&["--journal", journal_arg]);
    let mut out = BufReader::new(child.stdout.take().expect("stdout piped"));
    send(&mut child, &submit());
    let Response::Accepted {
        id: 1,
        trace_id: acked_trace,
    } = recv(&mut out)
    else {
        panic!("first server did not accept the job");
    };
    assert_ne!(acked_trace, 0);
    child.kill().expect("kill edm-serve");
    child.wait().expect("reap edm-serve");

    // Second server: replays the journal and serves the job under its
    // original id, bit-identical to the uninterrupted run.
    let mut child = spawn(&["--journal", journal_arg]);
    let mut out = BufReader::new(child.stdout.take().expect("stdout piped"));
    send(&mut child, &Request::Poll { id: 1 });
    let Response::Finished { id: 1, summary } = recv(&mut out) else {
        panic!("restarted server did not finish the replayed job");
    };
    assert_eq!(
        summary.trace_id, acked_trace,
        "the replayed job must keep the trace id acknowledged before the crash"
    );
    // Trace ids are freshly drawn per process and latency is wall-clock,
    // so both differ across runs by construction; everything else must be
    // bit-identical.
    want.trace_id = summary.trace_id;
    want.latency_ms = summary.latency_ms;
    assert_eq!(summary, want, "replay must be bit-identical");
    send(&mut child, &Request::Shutdown);
    assert_eq!(recv(&mut out), Response::Bye);
    assert!(child.wait().expect("edm-serve exits").success());

    // Third start: the journal now records completion, so nothing replays
    // and the id is unknown.
    let mut child = spawn(&["--journal", journal_arg]);
    let mut out = BufReader::new(child.stdout.take().expect("stdout piped"));
    send(&mut child, &Request::Poll { id: 1 });
    assert_eq!(recv(&mut out), Response::Unknown { id: 1 });
    send(&mut child, &Request::Shutdown);
    assert_eq!(recv(&mut out), Response::Bye);
    assert!(child.wait().expect("edm-serve exits").success());

    // The journal is the only file: job ids need no side index.
    assert!(!index.exists(), "edm-serve wrote {}", index.display());
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn corrupt_journal_exits_with_the_data_code() {
    let dir = std::env::temp_dir().join(format!("edm-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("corrupt.jsonl");
    std::fs::write(&journal, "{\"garbage\": true}\n{\"more\": 1}\n").unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_edm-serve"))
        .args(["--journal", journal.to_str().unwrap()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .expect("run edm-serve");
    assert_eq!(
        output.status.code(),
        Some(65),
        "corrupt journal is EX_DATAERR"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("journal"), "stderr was: {stderr}");

    std::fs::remove_file(&journal).unwrap();
}
