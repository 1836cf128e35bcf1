//! JSON-lines smoke test of the `edm-serve` binary: submit, poll, stats,
//! resubmit (cache hit), shutdown — one process, scripted stdin.

use edm_serve::protocol::{Request, Response};
use edm_serve::queue::Priority;
use qcir::{qasm, Circuit};
use std::io::Write;
use std::process::{Command, Stdio};

fn ghz_qasm() -> String {
    let mut c = Circuit::new(3, 3);
    c.h(0).cx(0, 1).cx(1, 2).measure_all();
    qasm::to_qasm(&c)
}

fn run_session(lines: &[Request]) -> Vec<Response> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_edm-serve"))
        .args(["--threads", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn edm-serve");
    {
        let stdin = child.stdin.as_mut().expect("stdin piped");
        for request in lines {
            let line = serde_json::to_string(request).unwrap();
            writeln!(stdin, "{line}").expect("write request");
        }
    }
    let output = child.wait_with_output().expect("edm-serve exits");
    assert!(output.status.success(), "edm-serve failed: {output:?}");
    String::from_utf8(output.stdout)
        .expect("utf8 stdout")
        .lines()
        .map(|line| serde_json::from_str(line).expect("parse response"))
        .collect()
}

#[test]
fn submit_poll_stats_shutdown_round_trip() {
    let submit = Request::Submit {
        qasm: ghz_qasm(),
        shots: 1024,
        seed: 7,
        priority: Priority::Normal,
        trace_id: 0,
        parent_span: 0,
    };
    let responses = run_session(&[
        submit.clone(),
        Request::Poll { id: 1 },
        submit.clone(),
        Request::Poll { id: 2 },
        Request::Stats,
        Request::Shutdown,
    ]);
    assert_eq!(responses.len(), 6);
    let Response::Accepted { id: 1, trace_id } = responses[0] else {
        panic!("expected Accepted for job 1, got {:?}", responses[0]);
    };
    assert_ne!(trace_id, 0, "every accepted job carries a correlation id");

    let Response::Finished { id: 1, summary } = &responses[1] else {
        panic!("expected Finished for job 1, got {:?}", responses[1]);
    };
    assert_eq!(summary.shots, 1024);
    // GHZ answer: the merged top outcome is one of the two peaks.
    assert!(
        summary.top_outcome == "000" || summary.top_outcome == "111",
        "unexpected GHZ answer {:?}",
        summary.top_outcome
    );

    assert!(matches!(responses[2], Response::Accepted { id: 2, .. }));
    assert!(matches!(responses[3], Response::Finished { id: 2, .. }));

    let Response::Stats { stats } = &responses[4] else {
        panic!("expected Stats, got {:?}", responses[4]);
    };
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.compilations, 1, "resubmission must hit the cache");
    assert_eq!(stats.cache.hits, 1);

    assert_eq!(responses[5], Response::Bye);
}

#[test]
fn bad_requests_are_reported_not_fatal() {
    let responses = run_session(&[
        Request::Submit {
            qasm: "this is not qasm".into(),
            shots: 64,
            seed: 1,
            priority: Priority::Normal,
            trace_id: 0,
            parent_span: 0,
        },
        Request::Submit {
            qasm: ghz_qasm(),
            shots: 0,
            seed: 1,
            priority: Priority::Normal,
            trace_id: 0,
            parent_span: 0,
        },
        Request::Poll { id: 42 },
        Request::Shutdown,
    ]);
    assert_eq!(responses.len(), 4);
    assert!(matches!(&responses[0], Response::Rejected { reason } if reason.contains("bad qasm")));
    assert!(
        matches!(&responses[1], Response::Rejected { reason } if reason.contains("shots must be at least 1"))
    );
    assert_eq!(responses[2], Response::Unknown { id: 42 });
    assert_eq!(responses[3], Response::Bye);
}

#[test]
fn non_finite_angle_is_refused_at_submit_and_the_server_keeps_serving() {
    let submit = |qasm: String| Request::Submit {
        qasm,
        shots: 256,
        seed: 3,
        priority: Priority::Normal,
        trace_id: 0,
        parent_span: 0,
    };
    let nan = "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\nrz(nan) q[0];\n\
               cx q[0],q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n";
    let responses = run_session(&[
        submit(nan.into()),
        submit(ghz_qasm()),
        Request::Poll { id: 1 },
        Request::Shutdown,
    ]);
    assert_eq!(responses.len(), 4);
    assert!(
        matches!(&responses[0], Response::Rejected { reason }
            if reason.contains("bad qasm") && reason.contains("not finite")),
        "{:?}",
        responses[0]
    );
    assert!(matches!(responses[1], Response::Accepted { id: 1, .. }));
    assert!(
        matches!(responses[2], Response::Finished { id: 1, .. }),
        "{:?}",
        responses[2]
    );
    assert_eq!(responses[3], Response::Bye);
}

#[test]
fn bump_calibration_invalidates_served_cache() {
    let submit = Request::Submit {
        qasm: ghz_qasm(),
        shots: 256,
        seed: 3,
        priority: Priority::Normal,
        trace_id: 0,
        parent_span: 0,
    };
    let responses = run_session(&[
        submit.clone(),
        Request::Flush,
        Request::BumpCalibration,
        submit.clone(),
        Request::Flush,
        Request::Stats,
        Request::Shutdown,
    ]);
    assert_eq!(responses[1], Response::Processed { jobs: 1 });
    assert_eq!(responses[2], Response::Recalibrated { generation: 1 });
    assert_eq!(responses[4], Response::Processed { jobs: 1 });
    let Response::Stats { stats } = &responses[5] else {
        panic!("expected Stats, got {:?}", responses[5]);
    };
    assert_eq!(
        stats.compilations, 2,
        "generation bump must force recompile"
    );
}
