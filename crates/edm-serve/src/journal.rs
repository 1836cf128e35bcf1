//! Crash-safe job recovery: a JSON-lines write-ahead journal.
//!
//! The service appends one [`JournalEntry`] line per state transition —
//! `Accepted` when a job passes admission (before any work), `Completed` /
//! `Failed` when it finishes — flushing after every line. On restart,
//! [`Journal::open`] replays the file: accepted-but-unfinished jobs are the
//! crash's in-flight work, and because every entry preserves the job's id
//! and seed, re-running them produces results bit-identical to the run the
//! crash interrupted.
//!
//! Two corruption cases are deliberately distinguished:
//!
//! - a **truncated final line** (no terminating newline, unparseable) is
//!   the signature of dying mid-append and is silently dropped — losing
//!   the entry being written at the instant of the crash is the WAL
//!   contract, and the job it described was never acknowledged;
//! - an **unparseable line anywhere else** means the file was damaged at
//!   rest, which replay refuses to paper over: it returns
//!   [`JournalError::Corrupt`] so the operator sees a data error
//!   (exit code 65) instead of quietly dropped jobs.

use crate::queue::{JobRequest, Priority};
use qcir::Circuit;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// One journaled state transition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalEntry {
    /// A job passed admission. Everything needed to re-run it bit-identically
    /// is recorded before the service does any work on it.
    Accepted {
        /// The service-assigned id, preserved across restarts.
        id: u64,
        /// The correlation id stamped on every response, journal entry, and
        /// telemetry span for this job — preserved across restarts so a
        /// replayed job is traceable back to its original submission.
        trace_id: u64,
        /// The logical circuit.
        circuit: Circuit,
        /// Total trial budget.
        shots: u64,
        /// The run seed — the key to bit-identical recovery.
        seed: u64,
        /// Admission priority class.
        priority: Priority,
    },
    /// The job finished with a result; replay need not re-run it.
    Completed {
        /// The finished job's id.
        id: u64,
    },
    /// The job finished with a terminal error; replay need not re-run it.
    Failed {
        /// The failed job's id.
        id: u64,
    },
}

/// Why the journal could not be read or written.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem trouble opening, reading, or appending.
    Io(std::io::Error),
    /// A non-final line failed to parse: the file is damaged at rest. Also
    /// raised when journals contradict each other (line 0).
    Corrupt {
        /// 1-based line number of the first bad line; 0 when the fault is
        /// not on one line.
        line: usize,
        /// The parse failure.
        reason: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Corrupt { line: 0, reason } => write!(f, "journal corrupt: {reason}"),
            JournalError::Corrupt { line, reason } => {
                write!(f, "journal corrupt at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// An append-only JSON-lines journal, flushed per entry.
#[derive(Debug)]
pub struct Journal {
    writer: BufWriter<File>,
    path: PathBuf,
    appended: u64,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`, first replaying
    /// whatever survived the last run. Returns the journal ready for
    /// appending plus the replayed entries in append order.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem trouble; [`JournalError::Corrupt`]
    /// when a non-final line fails to parse (a truncated final line is
    /// dropped, not an error — see the module docs).
    pub fn open(path: impl AsRef<Path>) -> Result<(Journal, Vec<JournalEntry>), JournalError> {
        let path = path.as_ref().to_path_buf();
        let entries = match File::open(&path) {
            Ok(mut file) => {
                let mut text = String::new();
                file.read_to_string(&mut text)?;
                parse_entries(&text)?
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok((
            Journal {
                writer: BufWriter::new(file),
                path,
                appended: 0,
            },
            entries,
        ))
    }

    /// Appends one entry and flushes it to the OS before returning, so an
    /// acknowledged entry survives a process crash.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the write or flush fails.
    pub fn append(&mut self, entry: &JournalEntry) -> Result<(), JournalError> {
        let line = serde_json::to_string(entry).expect("journal entries always serialize");
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.appended += 1;
        Ok(())
    }

    /// Entries appended through this handle (replayed entries not counted).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// The file this journal appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Parses journal text, tolerating only a truncated final line.
fn parse_entries(text: &str) -> Result<Vec<JournalEntry>, JournalError> {
    let mut entries = Vec::new();
    let lines: Vec<&str> = text.split('\n').collect();
    let last = lines.len().saturating_sub(1);
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<JournalEntry>(line) {
            Ok(entry) => entries.push(entry),
            // `split('\n')` puts a complete (newline-terminated) final entry
            // at index last-1 with "" at last, so an unparseable fragment at
            // `last` is precisely a line whose newline never made it out.
            Err(_) if i == last => break,
            Err(e) => {
                return Err(JournalError::Corrupt {
                    line: i + 1,
                    reason: e.to_string(),
                })
            }
        }
    }
    Ok(entries)
}

/// A job the crash left unfinished, reconstructed from its `Accepted`
/// entry: the original id, the original correlation [`trace_id`], and the
/// request to re-run.
///
/// [`trace_id`]: RecoveredJob::trace_id
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredJob {
    /// The id originally assigned at submission.
    pub id: u64,
    /// The correlation id originally assigned at submission.
    pub trace_id: u64,
    /// The original request (circuit, shots, seed, priority).
    pub request: JobRequest,
}

/// Distills replayed entries into the jobs the crash left unfinished, in
/// acceptance order, plus the largest id ever issued (0 when none).
///
/// A job is outstanding when its `Accepted` has no matching `Completed` or
/// `Failed`. Re-submitting these with their recorded ids and seeds yields
/// results bit-identical to the interrupted run, and their recorded trace
/// ids keep the replays correlatable with the original submissions.
pub fn outstanding(entries: &[JournalEntry]) -> (Vec<RecoveredJob>, u64) {
    let mut max_id = 0;
    let mut open: Vec<RecoveredJob> = Vec::new();
    for entry in entries {
        match entry {
            JournalEntry::Accepted {
                id,
                trace_id,
                circuit,
                shots,
                seed,
                priority,
            } => {
                max_id = max_id.max(*id);
                open.push(RecoveredJob {
                    id: *id,
                    trace_id: *trace_id,
                    request: JobRequest {
                        circuit: circuit.clone(),
                        shots: *shots,
                        seed: *seed,
                        priority: *priority,
                    },
                });
            }
            JournalEntry::Completed { id } | JournalEntry::Failed { id } => {
                open.retain(|job| job.id != *id);
            }
        }
    }
    (open, max_id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "edm-journal-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn bell() -> Circuit {
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure_all();
        c
    }

    fn accepted(id: u64) -> JournalEntry {
        JournalEntry::Accepted {
            id,
            trace_id: id * 1000 + 7,
            circuit: bell(),
            shots: 256,
            seed: id * 11,
            priority: Priority::Normal,
        }
    }

    #[test]
    fn entries_survive_a_reopen() {
        let path = dir().join("roundtrip.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, replayed) = Journal::open(&path).unwrap();
            assert!(replayed.is_empty());
            j.append(&accepted(1)).unwrap();
            j.append(&JournalEntry::Completed { id: 1 }).unwrap();
            j.append(&accepted(2)).unwrap();
            assert_eq!(j.appended(), 3);
        }
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed.len(), 3);
        let (open, max_id) = outstanding(&replayed);
        assert_eq!(max_id, 2);
        assert_eq!(open.len(), 1);
        assert_eq!(open[0].id, 2);
        assert_eq!(open[0].trace_id, 2007, "trace id survives the reopen");
        assert_eq!(open[0].request.seed, 22);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_final_line_is_dropped_not_fatal() {
        let path = dir().join("truncated.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(&accepted(1)).unwrap();
        }
        // Simulate dying mid-append: a half-written line, no newline.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"Accepted\":{\"id\":2,\"circ").unwrap();
        }
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        assert!(matches!(replayed[0], JournalEntry::Accepted { id: 1, .. }));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_middle_line_is_a_data_error() {
        let path = dir().join("corrupt.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(&accepted(1)).unwrap();
            j.append(&accepted(2)).unwrap();
        }
        // Damage the FIRST line; the file still ends in a clean newline.
        let text = std::fs::read_to_string(&path).unwrap();
        let damaged = text.replacen("Accepted", "Axxepted", 1);
        std::fs::write(&path, damaged).unwrap();
        let err = Journal::open(&path).unwrap_err();
        match err {
            JournalError::Corrupt { line, .. } => assert_eq!(line, 1),
            other => panic!("expected Corrupt, got {other}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn outstanding_ignores_finished_jobs_and_tracks_max_id() {
        let entries = vec![
            accepted(5),
            accepted(6),
            JournalEntry::Failed { id: 5 },
            accepted(7),
            JournalEntry::Completed { id: 7 },
        ];
        let (open, max_id) = outstanding(&entries);
        assert_eq!(max_id, 7);
        assert_eq!(open.iter().map(|j| j.id).collect::<Vec<_>>(), vec![6]);
    }

    #[test]
    fn fresh_journal_replays_empty() {
        let path = dir().join("fresh.jsonl");
        let _ = std::fs::remove_file(&path);
        let (j, replayed) = Journal::open(&path).unwrap();
        assert!(replayed.is_empty());
        assert_eq!(j.path(), path);
        let (open, max_id) = outstanding(&replayed);
        assert!(open.is_empty());
        assert_eq!(max_id, 0);
        std::fs::remove_file(&path).unwrap();
    }
}
