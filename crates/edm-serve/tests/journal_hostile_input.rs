//! Journal replay reads whatever a crash, a full disk or an operator left
//! on disk, so it must answer any file with its entries or a
//! `JournalError`, never a panic or a stack overflow. The bytes mix
//! arbitrary noise with whole and spliced valid entries and hostile JSON.

use edm_serve::journal::{self, Journal, JournalEntry, JournalError};
use edm_serve::queue::Priority;
use proptest::prelude::*;
use qcir::Circuit;
use std::sync::atomic::{AtomicU64, Ordering};

/// One valid journal line (no newline) per entry kind.
fn valid_lines() -> Vec<String> {
    let mut bell = Circuit::new(2, 2);
    bell.h(0).cx(0, 1).measure_all();
    let entries = [
        JournalEntry::Accepted {
            id: 1,
            trace_id: 77,
            circuit: bell,
            shots: 256,
            seed: 9,
            priority: Priority::High,
        },
        JournalEntry::Completed { id: 1 },
        JournalEntry::Failed { id: 2 },
    ];
    entries
        .iter()
        .map(|e| serde_json::to_string(e).unwrap())
        .collect()
}

/// A piece of a journal file.
fn piece() -> impl Strategy<Value = Vec<u8>> {
    let lines = valid_lines();
    let whole = {
        let lines = lines.clone();
        (0..lines.len()).prop_map(move |i| format!("{}\n", lines[i]).into_bytes())
    };
    // The head of one valid line joined to the tail of another, cut at
    // arbitrary bytes: torn writes and interleaved appends.
    let spliced = (0..lines.len(), 0..lines.len(), 0.0..1.0, 0.0..1.0).prop_map(
        move |(a, b, head, tail): (usize, usize, f64, f64)| {
            let (a, b) = (lines[a].as_bytes(), lines[b].as_bytes());
            let head = &a[..(head * a.len() as f64) as usize];
            let tail = &b[(tail * b.len() as f64) as usize..];
            [head, tail].concat()
        },
    );
    let hostile = prop_oneof![
        Just(br#"{"Accepted":{"id":-1}}"#.to_vec()),
        Just(br#"{"Completed":{"id":18446744073709551616}}"#.to_vec()),
        Just(br#"{"Failed":{"id":1.5}}"#.to_vec()),
        Just(br#"{"Completed":{}}"#.to_vec()),
        Just(br#"{"Nope":{"id":1}}"#.to_vec()),
        Just(br#"{"Accepted":{"id":3,"trace_id":1,"circuit":{"num_qubits":2,"num_clbits":64,"ops":[{"Cx":[0,9]}]},"shots":1,"seed":1,"priority":"Normal"}}"#.to_vec()),
        Just(br#"[1,2,3]"#.to_vec()),
        Just(b"\"\\ud800\"".to_vec()),
        (1usize..400).prop_map(|n| "[".repeat(n).into_bytes()),
        (1usize..400).prop_map(|n| "{\"Completed\":".repeat(n).into_bytes()),
        Just(vec![0xff, 0xfe, 0xc3, b'\n']),
    ];
    prop_oneof![
        proptest::collection::vec(0u8..=255, 1..8),
        proptest::collection::vec(32u8..127, 1..24),
        Just(b"\n".to_vec()),
        Just(b"\r\n".to_vec()),
        Just(b"   \n".to_vec()),
        whole,
        spliced,
        hostile,
    ]
}

/// A fresh path in the temp directory, one per case.
fn temp_journal_path() -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "edm-journal-hostile-{}-{n}.jsonl",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn any_file_replays_or_reports_an_error(
        pieces in proptest::collection::vec(piece(), 0..12),
    ) {
        let bytes = pieces.concat();
        let path = temp_journal_path();
        std::fs::write(&path, &bytes).unwrap();
        let first = Journal::open(&path);
        // Replay must not change the file it reads.
        let again = Journal::open(&path);
        let after = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(&after, &bytes);
        match (first, again) {
            (Ok((_, entries)), Ok((_, twice))) => {
                prop_assert_eq!(&entries, &twice);
                let (open, max_id) = journal::outstanding(&entries);
                let accepted: Vec<u64> = entries
                    .iter()
                    .filter_map(|e| match e {
                        JournalEntry::Accepted { id, .. } => Some(*id),
                        _ => None,
                    })
                    .collect();
                prop_assert_eq!(max_id, accepted.iter().copied().max().unwrap_or(0));
                for job in &open {
                    prop_assert!(accepted.contains(&job.id), "job {} never accepted", job.id);
                }
            }
            (Err(JournalError::Corrupt { line, .. }), Err(JournalError::Corrupt { line: twice, .. })) => {
                prop_assert_eq!(line, twice);
                let lines = bytes.split(|&b| b == b'\n').count();
                prop_assert!(line >= 1 && line <= lines, "line {} of {}", line, lines);
            }
            (Err(JournalError::Io(_)), Err(JournalError::Io(_))) => {
                // Not UTF-8: reported as an I/O error, the same both times.
                prop_assert!(std::str::from_utf8(&bytes).is_err());
            }
            (a, b) => prop_assert!(false, "replays disagree: {:?} vs {:?}", a.err(), b.err()),
        }
    }
}

#[test]
fn a_line_nested_past_the_parser_limit_is_corrupt_not_a_crash() {
    let path = temp_journal_path();
    let deep = format!("{}{}\n", "[".repeat(100_000), "]".repeat(100_000));
    std::fs::write(&path, format!("{deep}{deep}")).unwrap();
    let result = Journal::open(&path);
    let _ = std::fs::remove_file(&path);
    match result {
        Err(JournalError::Corrupt { line: 1, reason }) => {
            assert!(reason.contains("recursion limit"), "{reason}")
        }
        other => panic!("expected a corrupt first line, got {:?}", other.err()),
    }
}
