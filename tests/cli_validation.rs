//! `edm-cli` argument validation: degenerate `--shots` / `--threads`
//! values must die at the flag parser with a clear message, not deep in
//! the pipeline.

use std::process::Command;

/// Writes the GHZ fixture to a path owned by one test in one process, so
/// concurrently running tests never truncate a file another test's
/// `edm-cli` is still reading.
fn ghz_file(test: &str) -> std::path::PathBuf {
    let mut c = qcir::Circuit::new(2, 2);
    c.h(0).cx(0, 1).measure_all();
    let path = std::env::temp_dir().join(format!(
        "edm_cli_validation_{test}_{}.qasm",
        std::process::id()
    ));
    std::fs::write(&path, qcir::qasm::to_qasm(&c)).expect("write qasm fixture");
    path
}

fn run_cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_edm-cli"))
        .args(args)
        .output()
        .expect("spawn edm-cli")
}

#[test]
fn zero_shots_is_a_clean_cli_error() {
    let qasm = ghz_file("zero_shots_is_a_clean_cli_error");
    let out = run_cli(&["run", qasm.to_str().unwrap(), "--shots", "0"]);
    let _ = std::fs::remove_file(&qasm);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--shots") && stderr.contains("shots must be at least 1"),
        "stderr was: {stderr}"
    );
}

#[test]
fn oversized_shot_budget_is_a_usage_error() {
    let qasm = ghz_file("oversized_shot_budget_is_a_usage_error");
    let out = run_cli(&[
        "run",
        qasm.to_str().unwrap(),
        "--shots",
        "18446744073709551615",
    ]);
    let _ = std::fs::remove_file(&qasm);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--shots") && stderr.contains("shots must be at most 1073741824"),
        "stderr was: {stderr}"
    );
}

#[test]
fn zero_threads_is_a_clean_cli_error() {
    let qasm = ghz_file("zero_threads_is_a_clean_cli_error");
    let out = run_cli(&[
        "run",
        qasm.to_str().unwrap(),
        "--threads",
        "0",
        "--shots",
        "64",
    ]);
    let _ = std::fs::remove_file(&qasm);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--threads") && stderr.contains("omit the flag"),
        "stderr was: {stderr}"
    );
}

#[test]
fn explicit_thread_cap_still_works() {
    let qasm = ghz_file("explicit_thread_cap_still_works");
    let out = run_cli(&[
        "run",
        qasm.to_str().unwrap(),
        "--threads",
        "1",
        "--shots",
        "256",
    ]);
    let _ = std::fs::remove_file(&qasm);
    assert!(
        out.status.success(),
        "stderr was: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("ideal (correct) answer"),
        "stdout: {stdout}"
    );
}

#[test]
fn misspelled_run_flag_is_a_usage_error() {
    let qasm = ghz_file("misspelled_run_flag_is_a_usage_error");
    let out = run_cli(&[
        "run",
        qasm.to_str().unwrap(),
        "--shots",
        "512",
        "--adaptive-controler",
        "--rouds",
        "3",
    ]);
    let _ = std::fs::remove_file(&qasm);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown argument '--adaptive-controler'"),
        "stderr was: {stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing may run: {out:?}");
}

#[test]
fn misspelled_map_flag_is_a_usage_error() {
    let out = run_cli(&["map", "--bench", "bv-6", "--ensembel", "3"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown argument '--ensembel'"),
        "stderr was: {stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing may run: {out:?}");
}

#[test]
fn register_wider_than_63_bits_is_a_data_error() {
    let path = std::env::temp_dir().join(format!(
        "edm_cli_validation_wide_register_{}.qasm",
        std::process::id()
    ));
    std::fs::write(
        &path,
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[64];\n\
         h q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[63];\n",
    )
    .expect("write qasm fixture");
    let out = run_cli(&[
        "run",
        path.to_str().unwrap(),
        "--shots",
        "64",
        "--threads",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(65), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("64 classical bits"), "stderr was: {stderr}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn circuit_wider_than_a_state_vector_is_a_data_error() {
    let mut c = qcir::Circuit::new(40, 40);
    c.h(0);
    for q in 1..40 {
        c.cx(q - 1, q);
    }
    c.measure_all();
    let path = std::env::temp_dir().join(format!(
        "edm_cli_validation_wide_circuit_{}.qasm",
        std::process::id()
    ));
    std::fs::write(&path, qcir::qasm::to_qasm(&c)).expect("write qasm fixture");
    let out = run_cli(&[
        "run",
        path.to_str().unwrap(),
        "--device",
        "eagle127",
        "--shots",
        "64",
        "--threads",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(65), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("40 qubits"), "stderr was: {stderr}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn non_finite_gate_angle_is_a_data_error() {
    let path = std::env::temp_dir().join(format!(
        "edm_cli_validation_nan_angle_{}.qasm",
        std::process::id()
    ));
    std::fs::write(
        &path,
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n\
         h q[0];\nrz(nan) q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n",
    )
    .expect("write qasm fixture");
    let out = run_cli(&[
        "run",
        path.to_str().unwrap(),
        "--shots",
        "64",
        "--threads",
        "1",
    ]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(65), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 6") && stderr.contains("not finite"),
        "stderr was: {stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing may run: {out:?}");
}

#[test]
fn exhaustive_map_names_the_result_cap_not_a_budget() {
    // ghz-12 on tokyo20 has more swap-free embeddings than the 200,000
    // candidate cap; the exhaustive search has no budget to hit.
    let out = run_cli(&["map", "--bench", "ghz-12", "--device", "tokyo20"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("mapper: exhaustive"),
        "stdout was: {stdout}"
    );
    let search = stdout
        .lines()
        .find(|line| line.starts_with("search: "))
        .unwrap_or_else(|| panic!("no search line: {stdout}"));
    assert!(
        search.starts_with("search: truncated (result cap of 200000 embeddings reached after "),
        "search line was: {search}"
    );
    assert!(!search.contains("budget"), "search line was: {search}");
}

/// Every number printed after `label` on the lines of `stdout`.
fn values_after<'a>(stdout: &'a str, label: &str) -> Vec<&'a str> {
    stdout
        .lines()
        .filter_map(|line| line.split_once(label))
        .map(|(_, rest)| rest.split_whitespace().next().unwrap_or(""))
        .collect()
}

#[test]
fn tiny_esp_values_print_without_rounding_to_zero() {
    // qft-10 on eagle127 needs 171 SWAPs: every mapping's ESP is far
    // below 1e-4, so a fixed four-decimal format would print 0.0000.
    let out = run_cli(&["map", "--bench", "qft-10", "--device", "eagle127"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut printed = values_after(&stdout, "baseline ESP ");
    printed.extend(values_after(&stdout, "  ESP "));

    let path = std::env::temp_dir().join(format!(
        "edm_cli_validation_tiny_esp_{}.qasm",
        std::process::id()
    ));
    let qft = qbench::registry::scaling_by_name("qft-10").unwrap();
    std::fs::write(&path, qcir::qasm::to_qasm(&qft)).expect("write qasm fixture");
    let out = run_cli(&["transpile", path.to_str().unwrap(), "--device", "eagle127"]);
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "{out:?}");
    let transpiled = String::from_utf8_lossy(&out.stdout);
    printed.extend(values_after(&transpiled, "compile-time ESP: "));

    assert!(
        printed.len() >= 3,
        "baseline, a member and transpile: {printed:?}"
    );
    for text in printed {
        let esp: f64 = text
            .parse()
            .unwrap_or_else(|_| panic!("not a number: {text}"));
        assert!(esp > 0.0 && esp < 1e-4, "ESP printed as {text}");
    }
}
