//! Crash recovery of a fleet with one job-id space: jobs acknowledged
//! before a SIGKILL are replayed on their original devices by the next
//! `edm-fleet` process under the ids clients hold, fresh ids never collide
//! with any id a journal ever issued, and device journals that claim the
//! same open id are refused.

use edm_fleet::backend::DeviceBackend;
use edm_fleet::fleet::{Fleet, FleetConfig};
use edm_serve::journal::{Journal, JournalEntry};
use edm_serve::protocol::{Request, Response};
use edm_serve::queue::{JobRequest, Priority};
use edm_serve::service::{JobService, JobState, ServeConfig};
use qdevice::{presets, DeviceModel};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

fn ghz() -> qcir::Circuit {
    let mut c = qcir::Circuit::new(3, 3);
    c.h(0).cx(0, 1).cx(1, 2).measure_all();
    c
}

fn ghz_qasm() -> String {
    qcir::qasm::to_qasm(&ghz())
}

/// A fresh scratch directory owned by one test in one process.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "edm-fleet-{test}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The file names under `dir`, sorted.
fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// Writes a device journal as a crashed process would have left it.
fn write_journal(path: &Path, entries: &[JournalEntry]) {
    let (mut journal, replayed) = Journal::open(path).unwrap();
    assert!(replayed.is_empty(), "{} already exists", path.display());
    for entry in entries {
        journal.append(entry).unwrap();
    }
}

fn accepted(id: u64, seed: u64) -> JournalEntry {
    JournalEntry::Accepted {
        id,
        trace_id: 1000 + id,
        circuit: ghz(),
        shots: 512,
        seed,
        priority: Priority::Normal,
    }
}

/// A running `edm-fleet` process plus the address it printed to stderr.
struct Server {
    child: Child,
    addr: String,
    recovered: u64,
}

fn spawn(journal_dir: &str) -> Server {
    let mut child = Command::new(env!("CARGO_BIN_EXE_edm-fleet"))
        .args(["--devices", "2", "--threads", "2", "--addr", "127.0.0.1:0"])
        .args(["--journal-dir", journal_dir])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn edm-fleet");
    // The binary prints `recovered N unfinished job(s) ...` (if any) and
    // then `fleet listening on ADDR`, both to stderr, before serving.
    let stderr = child.stderr.take().expect("stderr piped");
    let mut reader = BufReader::new(stderr);
    let mut recovered = 0;
    let addr = loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read stderr");
        assert!(n > 0, "edm-fleet exited before listening");
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("recovered ") {
            let count = rest.split_whitespace().next().unwrap_or("0");
            recovered = count.parse().expect("recovered count parses");
        }
        if let Some(addr) = line.strip_prefix("fleet listening on ") {
            break addr.to_string();
        }
    };
    Server {
        child,
        addr,
        recovered,
    }
}

/// Starts a two-device `edm-fleet` on a journal dir it must refuse and
/// returns its exit code and stderr. Fails, rather than hangs, when the
/// fleet starts serving instead.
fn refused_start(dir: &Path) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_edm-fleet"))
        .args(["--devices", "2", "--journal-dir", dir.to_str().unwrap()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn edm-fleet");
    let mut stderr = String::new();
    for line in BufReader::new(child.stderr.take().expect("stderr piped")).lines() {
        let line = line.expect("read stderr");
        if line.starts_with("fleet listening on ") {
            child.kill().expect("kill edm-fleet");
            child.wait().expect("reap edm-fleet");
            panic!("edm-fleet served {} instead of refusing it", dir.display());
        }
        stderr.push_str(&line);
        stderr.push('\n');
    }
    (child.wait().expect("edm-fleet exits").code(), stderr)
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to fleet server");
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("set read timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    fn exchange(&mut self, request: &Request) -> Response {
        let mut line = serde_json::to_string(request).expect("request serializes");
        line.push('\n');
        self.writer.write_all(line.as_bytes()).expect("write");
        self.writer.flush().expect("flush");
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed the connection unexpectedly");
        serde_json::from_str(&line).expect("response parses")
    }

    fn submit(&mut self, shots: u64, seed: u64) -> u64 {
        match self.exchange(&Request::Submit {
            qasm: ghz_qasm(),
            shots,
            seed,
            priority: Priority::Normal,
            trace_id: 0,
            parent_span: 0,
        }) {
            Response::Accepted { id, .. } => id,
            other => panic!("expected Accepted, got {other:?}"),
        }
    }

    /// Polls until the job leaves the queue; `true` iff it finished.
    fn resolve(&mut self, id: u64) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        loop {
            match self.exchange(&Request::Poll { id }) {
                Response::Finished { .. } => return true,
                Response::Unknown { .. } => return false,
                Response::Queued { .. } => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "job {id} never finished"
                    );
                    std::thread::sleep(Duration::from_millis(5));
                }
                other => panic!("expected Finished/Unknown/Queued for {id}, got {other:?}"),
            }
        }
    }
}

#[test]
fn killed_fleet_replays_its_journals_on_restart() {
    let dir = scratch_dir("smoke");
    let dir_arg = dir.to_str().unwrap().to_string();

    // First fleet: ack a burst of jobs, then die hard. Each Accepted ack
    // proves the routed device journaled the job before replying, so
    // every acked id is either on disk as unfinished (replays) or made it
    // all the way to completion before the kill.
    let mut server = spawn(&dir_arg);
    assert_eq!(server.recovered, 0, "an empty dir recovers nothing");
    let mut client = Client::connect(&server.addr);
    let ids: Vec<u64> = (0..8).map(|seed| client.submit(4096, seed)).collect();
    server.child.kill().expect("SIGKILL edm-fleet");
    server.child.wait().expect("reap edm-fleet");

    // Second fleet: replays the device journals, maps every open id back
    // to its device, and finishes the survivors.
    let mut server = spawn(&dir_arg);
    assert!(
        server.recovered >= 1,
        "a burst of 8 jobs cannot all have finished before the kill"
    );
    let mut client = Client::connect(&server.addr);
    let finished = ids.iter().filter(|&&id| client.resolve(id)).count() as u64;
    assert_eq!(
        finished, server.recovered,
        "every recovered job must finish under its pre-crash fleet id"
    );
    // Replay also moved the shared id counter: a fresh submission must
    // not collide with any pre-crash id.
    let fresh = client.submit(64, 99);
    assert!(
        fresh > *ids.iter().max().unwrap(),
        "fresh id {fresh} collides with pre-crash ids {ids:?}"
    );
    assert!(client.resolve(fresh));
    assert!(matches!(client.exchange(&Request::Shutdown), Response::Bye));
    assert!(server.child.wait().expect("edm-fleet exits").success());

    // Third start: everything is journaled complete, so nothing replays
    // and the old ids are gone.
    let mut server = spawn(&dir_arg);
    assert_eq!(server.recovered, 0);
    let mut client = Client::connect(&server.addr);
    assert!(matches!(
        client.exchange(&Request::Poll { id: ids[0] }),
        Response::Unknown { .. }
    ));
    assert!(matches!(client.exchange(&Request::Shutdown), Response::Bye));
    assert!(server.child.wait().expect("edm-fleet exits").success());

    // One journal per device and nothing else: ids need no side index.
    assert_eq!(file_names(&dir), ["device-0.jsonl", "device-1.jsonl"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn open_jobs_on_every_device_replay_under_the_ids_clients_hold() {
    let dir = scratch_dir("replay");
    let journals = [dir.join("device-0.jsonl"), dir.join("device-1.jsonl")];
    // Device 0 left three jobs open, one more than its queue holds; device
    // 1 left two open and finished the job holding the highest id.
    write_journal(
        &journals[0],
        &[accepted(1, 11), accepted(2, 12), accepted(3, 13)],
    );
    write_journal(
        &journals[1],
        &[
            accepted(4, 14),
            accepted(5, 15),
            accepted(9, 19),
            JournalEntry::Completed { id: 9 },
        ],
    );
    let serve = ServeConfig {
        queue_capacity: 2,
        threads: 2,
        ..ServeConfig::default()
    };
    let topologies = [
        (presets::melbourne14(), "melbourne14"),
        (presets::guadalupe16(), "guadalupe16"),
    ];
    let config = FleetConfig {
        serve: serve.clone(),
        depth_cap: 2,
        ..FleetConfig::default()
    };
    let fleet = Fleet::synthesize(&topologies, 42, config);
    assert_eq!(fleet.attach_journals(&journals).unwrap(), 5);

    // Recovery failed the overflow visibly, under its own id.
    match fleet.poll(3) {
        Some(JobState::Failed(reason)) => {
            assert!(reason.contains("recovery dropped"), "got: {reason}")
        }
        other => panic!("overflowed job 3 must poll Failed, got {other:?}"),
    }
    assert_eq!(fleet.placement(3), Some((0, 3)));
    fleet.process_all();

    // Every other open id finishes on its own device, bit-identical to a
    // direct run there (DESIGN.md §7 journal-replay identity).
    for (id, device, seed) in [(1, 0, 11), (2, 0, 12), (4, 1, 14), (5, 1, 15)] {
        assert_eq!(fleet.placement(id), Some((device, id)));
        assert_eq!(fleet.trace_id(id), Some(1000 + id));
        let Some(JobState::Done(got)) = fleet.poll(id) else {
            panic!("job {id} did not finish: {:?}", fleet.poll(id));
        };
        let (topology, _) = &topologies[device];
        let model = Arc::new(DeviceModel::synthesize(
            topology.clone(),
            42 + device as u64,
        ));
        let mut direct = JobService::new(
            model.topology().clone(),
            model.calibration(),
            DeviceBackend::new(Arc::clone(&model)),
            serve.clone(),
        );
        let direct_id = direct
            .submit(JobRequest {
                circuit: ghz(),
                shots: 512,
                seed,
                priority: Priority::Normal,
            })
            .unwrap();
        direct.process_all();
        let Some(JobState::Done(want)) = direct.poll(direct_id) else {
            panic!("direct run of job {id} failed");
        };
        assert_eq!(
            got.result, want.result,
            "job {id} replay must be bit-identical"
        );
    }

    // The finished job is not replayed, but its id stays spent: fresh ids
    // start past the highest id any journal issued.
    assert!(fleet.poll(9).is_none());
    let fresh = fleet
        .submit(JobRequest {
            circuit: ghz(),
            shots: 64,
            seed: 99,
            priority: Priority::Normal,
        })
        .unwrap();
    assert_eq!(fresh.id, 10);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journals_claiming_the_same_open_id_exit_with_the_data_code() {
    // What two devices of a build with per-device id counters would leave.
    let dir = scratch_dir("collide");
    write_journal(&dir.join("device-0.jsonl"), &[accepted(1, 11)]);
    write_journal(&dir.join("device-1.jsonl"), &[accepted(1, 21)]);

    let (code, stderr) = refused_start(&dir);
    assert_eq!(code, Some(65), "stderr was: {stderr}");
    assert!(
        stderr.contains("job id 1 is open in both"),
        "stderr was: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_device_journal_exits_with_the_data_code() {
    let dir = scratch_dir("corrupt");
    std::fs::write(
        dir.join("device-0.jsonl"),
        "{\"garbage\": true}\n{\"more\": 1}\n",
    )
    .unwrap();

    let (code, stderr) = refused_start(&dir);
    assert_eq!(code, Some(65), "corrupt journal is EX_DATAERR");
    assert!(stderr.contains("journal"), "stderr was: {stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}
