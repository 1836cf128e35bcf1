//! `edm-serve` — a JSON-lines job service over the EDM pipeline.
//!
//! ```text
//! edm-serve [--device-seed N] [--threads N] [--queue N] [--cache N] [--batch N]
//! ```
//!
//! Reads one [`Request`] JSON object per stdin line, writes one
//! [`Response`] JSON object per stdout line, and exits on `"Shutdown"`,
//! EOF, or a closed stdout. It is the stdin/stdout transport of the
//! fleet: the same request path as `edm-fleet`'s TCP shards, in front of
//! a one-device [`Fleet`]. The device is the simulated IBMQ-14
//! (`melbourne14`) synthesized from `--device-seed`, matching `edm-cli
//! run` — so a served result is bit-identical to the direct run with the
//! same circuit, shots, and seed.

use edm_core::Backend;
use edm_fleet::backend::DeviceBackend;
use edm_fleet::fleet::Fleet;
use edm_fleet::server::{encode_response, frame_to_request, handle_request};
use edm_fleet::startup::{self, Fatal};
use edm_serve::dispatch::ChaosBackend;
use edm_serve::flags;
use edm_serve::framing::LineFramer;
use edm_serve::protocol::{Request, Response};
use qdevice::{presets, DeviceModel};
use std::io::{Read, Write};
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage:
  edm-serve [--device-seed N] [--threads N] [--queue N] [--cache N] [--batch N]
            [--journal PATH] [--metrics-port N] [--trace-out PATH]
            [--controller] [--controller-log PATH] [--chaos-kill SEED:MEMBER]

Speaks JSON lines on stdin/stdout. Requests:
  {\"Submit\":{\"qasm\":\"...\",\"shots\":N,\"seed\":N,\"priority\":\"Normal\"}}
  {\"Poll\":{\"id\":N}}   {\"Trace\":{\"id\":N}}   \"Flush\"   \"Stats\"
  \"Metrics\"   \"FleetStats\"   \"BumpCalibration\"   \"Shutdown\"

Submit also accepts optional trace_id/parent_span fields: a client that
already opened a trace stamps them so the server's spans (admission,
planning, pool slices, assembly) join the client's trace.

--journal PATH appends a JSON-lines write-ahead journal of accepted jobs;
restarting with the same path replays unfinished jobs bit-identically
under their original ids. PATH is the only file written; a PATH.index
left by an older build is ignored.

--metrics-port N serves Prometheus text on http://127.0.0.1:N/metrics
(plus /metrics.json, /spans, and /healthz) and enables telemetry; port 0
picks an ephemeral port, printed to stderr as `metrics listening on ...`.
/spans accepts ?trace_id=ID (decimal or 0x-hex) and ?limit=N filters.

--trace-out PATH appends every finished span as one JSON line (enables
telemetry). The file is size-bounded: at 16 MiB it rotates once to
PATH.1, so traces survive long past the in-memory flight recorder.

--controller enables the closed-loop adaptive controller: per-circuit
feedback that reweights the WEDM merge, swaps persistently underperforming
ensemble members for spares, and recompiles the layout pool after a
calibration change. --controller-log PATH appends its decisions as JSON
lines.

--chaos-kill SEED:MEMBER (repeatable, test hook) permanently fails the
ensemble member at plan position MEMBER of any job submitted with seed
SEED, forcing the controller to observe real failures.

exit codes:
  0   success
  1   unclassified failure
  2   usage error (bad flags)
  65  data error (corrupt journal)
  75  transient backend failure; rerunning may succeed";

/// Every flag `edm-serve` takes a value for.
const VALUED: &[&str] = &[
    "--device-seed",
    "--threads",
    "--queue",
    "--cache",
    "--batch",
    "--journal",
    "--metrics-port",
    "--trace-out",
    "--controller-log",
    "--chaos-kill",
];

/// Every `--chaos-kill SEED:MEMBER` occurrence, parsed.
fn chaos_kills(args: &[String]) -> Result<Vec<(u64, u64)>, Fatal> {
    let mut kills = Vec::new();
    for value in flags::all(args, "--chaos-kill")
        .map_err(|_| Fatal::usage("--chaos-kill expects SEED:MEMBER"))?
    {
        let (seed, member) = value
            .split_once(':')
            .ok_or_else(|| Fatal::usage(format!("--chaos-kill {value}: expected SEED:MEMBER")))?;
        let seed: u64 = seed
            .parse()
            .map_err(|_| Fatal::usage(format!("--chaos-kill {value}: SEED must be an integer")))?;
        let member: u64 = member.parse().map_err(|_| {
            Fatal::usage(format!("--chaos-kill {value}: MEMBER must be an integer"))
        })?;
        kills.push((seed, member));
    }
    Ok(kills)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if flags::switch(&args, "--help") || flags::switch(&args, "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    startup::exit(run(&args), USAGE)
}

fn run(args: &[String]) -> Result<(), Fatal> {
    flags::check(args, VALUED, &["--controller"])?;
    let device_seed = flags::int(args, "--device-seed")?.unwrap_or(42);
    let config = startup::fleet_config(args)?;
    let journal = flags::text(args, "--journal")?;
    let controller_log = flags::text(args, "--controller-log")?;
    if controller_log.is_some() && config.serve.controller.is_none() {
        return Err(Fatal::usage("--controller-log requires --controller"));
    }
    let kills = chaos_kills(args)?;
    startup::start_telemetry(args)?;

    let device = Arc::new(DeviceModel::synthesize(presets::melbourne14(), device_seed));
    let name = format!("melbourne14#{device_seed}");
    let backend = DeviceBackend::new(Arc::clone(&device));
    // The chaos wrapper changes the fleet's backend type, so the serve
    // loop is generic and the choice happens once, here.
    if kills.is_empty() {
        let mut fleet = Fleet::new(config);
        fleet.add_device(name, &device, backend);
        serve(&fleet, journal, controller_log)
    } else {
        let mut chaos = ChaosBackend::new(backend, 0, 0);
        for (seed, member) in kills {
            chaos.kill_seed(qsim::rngstream::fork(seed, member));
        }
        let mut fleet = Fleet::new(config);
        fleet.add_device(name, &device, chaos);
        serve(&fleet, journal, controller_log)
    }
}

/// The stdin/stdout transport: attach the journal, open the controller
/// decision log, then answer JSON lines until shutdown, EOF, or a closed
/// stdout.
fn serve<B: Backend>(
    fleet: &Fleet<B>,
    journal: Option<String>,
    controller_log: Option<String>,
) -> Result<(), Fatal> {
    if let Some(path) = &journal {
        startup::attach_journals(fleet, &[path], path)?;
    }
    let mut decision_log = match controller_log {
        Some(path) => Some(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| Fatal::failure(format!("cannot open controller log {path}: {e}")))?,
        ),
        None => None,
    };

    let mut input = std::io::stdin().lock();
    let mut out = std::io::stdout().lock();
    // The framer reassembles requests split across reads (a pipe write
    // boundary mid-line must not error) and turns malformed frames into
    // reject-with-reason responses instead of hangups.
    let mut framer = LineFramer::default();
    let mut buf = [0u8; 8192];
    loop {
        let n = match input.read(&mut buf) {
            Ok(0) => return Ok(()),
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Ok(()),
        };
        framer.feed(&buf[..n]);
        while let Some(frame) = framer.next_frame() {
            let (response, shutdown) = match frame_to_request(frame) {
                Ok(None) => continue,
                Err(reason) => (Response::Error { reason }, false),
                Ok(Some(request)) => {
                    let shutdown = matches!(request, Request::Shutdown);
                    // Polling drives the fleet: anything queued runs first,
                    // so a single-client session never needs a Flush.
                    if matches!(request, Request::Poll { .. }) {
                        fleet.process_all();
                    }
                    let response = handle_request(fleet, request);
                    drain_decisions(fleet, &mut decision_log);
                    (response, shutdown)
                }
            };
            let written = out
                .write_all(encode_response(&response).as_bytes())
                .and_then(|()| out.flush());
            // A reader that went away ends the session, not the process.
            if written.is_err() || shutdown {
                return Ok(());
            }
        }
    }
}

/// Appends any controller decisions made since the last request to the
/// decision log, one JSON object per line, flushed so the log survives a
/// kill. Without a log the events are dropped (the counters in `stats`
/// still track them).
fn drain_decisions<B: Backend>(fleet: &Fleet<B>, log: &mut Option<std::fs::File>) {
    let decisions = fleet.take_controller_events();
    let Some(file) = log.as_mut() else {
        return;
    };
    for decision in &decisions {
        let written = serde_json::to_string(decision)
            .map_err(std::io::Error::other)
            .and_then(|line| file.write_all(format!("{line}\n").as_bytes()));
        if written.is_err() {
            *log = None;
            return;
        }
    }
    if file.flush().is_err() {
        *log = None;
    }
}
