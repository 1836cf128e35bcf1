//! Golden transcript of the `edm-serve` binary: one scripted session
//! (submits, poll, flush, recalibration, stats, and every class of bad
//! input) must answer line for line as recorded in
//! `fixtures/serve_transcript.out`, up to trace ids and latencies, which
//! differ per process by construction. The same submissions sent over TCP
//! to a one-device `edm-fleet` must finish with the same summaries.

use edm_serve::protocol::{JobSummary, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const GHZ: &str = r#"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\nmeasure q[2] -> c[2];"#;

const EXPECTED: &str = include_str!("fixtures/serve_transcript.out");

/// The rejection prefix a fleet puts before its device's admission error.
const REFUSED: &str = "every device refused the job: ";

fn submit(qasm: &str, shots: u64, seed: u64) -> String {
    format!(r#"{{"Submit":{{"qasm":"{qasm}","shots":{shots},"seed":{seed},"priority":"Normal"}}}}"#)
}

/// The scripted session, one request per line.
fn script() -> Vec<String> {
    vec![
        submit(GHZ, 1024, 7),
        submit(GHZ, 1024, 8),
        r#"{"Poll":{"id":1}}"#.into(),
        r#""Flush""#.into(),
        r#""BumpCalibration""#.into(),
        submit(GHZ, 1024, 7),
        r#"{"Poll":{"id":3}}"#.into(),
        r#""Stats""#.into(),
        r#""FleetStats""#.into(),
        r#"{"Submit": not json"#.into(),
        submit("this is not qasm", 64, 1),
        submit(GHZ, 0, 1),
        r#"{"Poll":{"id":99}}"#.into(),
        "x".repeat(edm_serve::framing::DEFAULT_MAX_FRAME + 16),
        r#""Shutdown""#.into(),
    ]
}

/// Zeroes every `"trace_id":N` and `"latency…":N` field of a JSON line.
fn normalize(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(pos) = rest.find("\":") {
        let (head, tail) = rest.split_at(pos + 2);
        out.push_str(head);
        rest = tail;
        let key = &head[head[..pos].rfind('"').map_or(0, |i| i + 1)..pos];
        if key == "trace_id" || key.starts_with("latency") {
            let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
            if digits > 0 {
                out.push('0');
                rest = &rest[digits..];
            }
        }
    }
    out.push_str(rest);
    out
}

fn run_script() -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_edm-serve"))
        .args(["--threads", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn edm-serve");
    let mut stdin = child.stdin.take().expect("stdin piped");
    // Write from a thread: the oversized frame outgrows the pipe buffer
    // while responses queue up on the other pipe.
    let writer = std::thread::spawn(move || {
        for line in script() {
            writeln!(stdin, "{line}").expect("write request");
        }
    });
    let output = child.wait_with_output().expect("edm-serve exits");
    writer.join().expect("writer thread");
    assert!(output.status.success(), "edm-serve failed: {output:?}");
    String::from_utf8(output.stdout).expect("utf8 stdout")
}

fn finished_summaries(transcript: &str) -> Vec<JobSummary> {
    transcript
        .lines()
        .filter_map(|line| match serde_json::from_str(line) {
            Ok(Response::Finished { mut summary, .. }) => {
                summary.trace_id = 0;
                summary.latency_ms = 0;
                Some(summary)
            }
            _ => None,
        })
        .collect()
}

#[test]
fn stdin_session_matches_the_recorded_transcript() {
    let got = run_script();
    let got: Vec<&str> = got.lines().collect();
    let want: Vec<&str> = EXPECTED.lines().collect();
    assert_eq!(got.len(), want.len(), "response count: {got:#?}");
    for (i, (got, want)) in got.iter().zip(&want).enumerate() {
        let rejected = |line: &str| match serde_json::from_str(line) {
            Ok(Response::Rejected { reason }) => Some(reason),
            _ => None,
        };
        if let (Some(got), Some(want)) = (rejected(got), rejected(want)) {
            assert!(
                got == want || got == format!("{REFUSED}{want}"),
                "line {}: rejection {got:?} lost the reason {want:?}",
                i + 1
            );
        } else {
            assert_eq!(normalize(got), normalize(want), "line {}", i + 1);
        }
    }
}

#[test]
fn tcp_fleet_of_one_finishes_with_the_same_summaries() {
    let want = finished_summaries(EXPECTED);
    assert_eq!(want.len(), 2, "the transcript finishes jobs 1 and 3");

    let mut child = Command::new(env!("CARGO_BIN_EXE_edm-fleet"))
        .args([
            "--devices",
            "1",
            "--presets",
            "melbourne14",
            "--threads",
            "2",
        ])
        .args(["--addr", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn edm-fleet");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let addr = loop {
        let mut line = String::new();
        assert!(stderr.read_line(&mut line).expect("read stderr") > 0);
        if let Some(addr) = line.trim().strip_prefix("fleet listening on ") {
            break addr.to_string();
        }
    };
    let mut client = Client::connect(&addr);
    let script = script();
    assert!(matches!(
        client.exchange(&script[0]),
        Response::Accepted { id: 1, .. }
    ));
    assert!(matches!(
        client.exchange(&script[1]),
        Response::Accepted { id: 2, .. }
    ));
    let mut got = vec![client.finish(1)];
    client.finish(2);
    assert_eq!(
        client.exchange(&script[4]),
        Response::Recalibrated { generation: 1 }
    );
    assert!(matches!(
        client.exchange(&script[5]),
        Response::Accepted { id: 3, .. }
    ));
    got.push(client.finish(3));
    for summary in &mut got {
        summary.trace_id = 0;
        summary.latency_ms = 0;
    }
    assert_eq!(got, want);
    assert_eq!(client.exchange(r#""Shutdown""#), Response::Bye);
    assert!(child.wait().expect("edm-fleet exits").success());
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to edm-fleet");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("set read timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    fn exchange(&mut self, line: &str) -> Response {
        writeln!(self.writer, "{line}").expect("write request");
        let mut response = String::new();
        let n = self.reader.read_line(&mut response).expect("read response");
        assert!(n > 0, "edm-fleet closed the connection");
        serde_json::from_str(&response).expect("response parses")
    }

    /// Polls until the job finishes (the executor threads run it).
    fn finish(&mut self, id: u64) -> JobSummary {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.exchange(&format!(r#"{{"Poll":{{"id":{id}}}}}"#)) {
                Response::Finished { summary, .. } => return summary,
                Response::Queued { .. } if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                other => panic!("job {id} did not finish: {other:?}"),
            }
        }
    }
}

#[test]
fn normalize_zeroes_only_trace_ids_and_latencies() {
    assert_eq!(
        normalize(r#"{"Accepted":{"id":12,"trace_id":345}}"#),
        r#"{"Accepted":{"id":12,"trace_id":0}}"#
    );
    assert_eq!(
        normalize(r#"{"latency_p50_ms":7,"latency_ms":9,"shots":1024}"#),
        r#"{"latency_p50_ms":0,"latency_ms":0,"shots":1024}"#
    );
}
