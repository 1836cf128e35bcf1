//! `edm-fleet` — a multi-client TCP front end over a fleet of virtual
//! devices.
//!
//! ```text
//! edm-fleet [--addr HOST:PORT] [--devices N] [--device-seed N] [--shards N]
//!           [--presets NAME,NAME,...] [--threads N] [--queue N] [--cache N]
//!           [--batch N] [--depth-cap N] [--metrics-port N]
//!           [--routing esp|live-ist] [--trace-out FILE]
//! ```
//!
//! Speaks the same JSON-lines protocol as `edm-serve`, over TCP, against
//! N virtual devices (topology presets cycle melbourne14 → guadalupe16 →
//! tokyo20 by default, or any `--presets` list of `qdevice::presets`
//! names, each synthesized from `--device-seed + index`). Every
//! submission is routed to the device with the highest predicted ESP for
//! its circuit; results are bit-identical to a direct single-device run
//! with the same (device, seed). Prints `fleet listening on ADDR` to
//! stderr once ready; any client's `"Shutdown"` stops the server.

use edm_fleet::fleet::{Fleet, RoutingPolicy};
use edm_fleet::server::{FleetServer, ServerConfig};
use edm_fleet::startup::{self, Fatal};
use edm_serve::flags;
use edm_serve::journal::JournalError;
use qdevice::presets;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage:
  edm-fleet [--addr HOST:PORT] [--devices N] [--device-seed N] [--shards N]
            [--presets NAME,NAME,...] [--threads N] [--queue N] [--cache N]
            [--batch N] [--depth-cap N] [--metrics-port N]
            [--journal-dir DIR] [--controller] [--routing esp|live-ist]
            [--trace-out FILE]

Speaks the edm-serve JSON-lines protocol over TCP against a fleet of N
virtual devices (presets cycle melbourne14, guadalupe16, tokyo20 by
default; --presets takes a comma-separated list of preset names —
melbourne14, guadalupe16, tokyo20, falcon27, hummingbird65, eagle127 — to
cycle instead; device i is synthesized from --device-seed + i).
Submissions route to the device with the highest predicted ESP;
\"FleetStats\" reports per-device status.

--addr defaults to 127.0.0.1:0 (ephemeral port); the bound address is
printed to stderr as `fleet listening on ADDR`.

--metrics-port N serves Prometheus text on http://127.0.0.1:N/metrics with
per-device label families (edm_fleet_*{device=\"dI\"}); port 0 picks an
ephemeral port, printed to stderr.

--journal-dir DIR keeps crash-safe write-ahead journals under DIR: one
per device (device-I.jsonl) plus a fleet index (fleet-index.jsonl).
Restarting with the same DIR replays unfinished jobs bit-identically on
their original devices and keeps old fleet job ids pollable.

--controller enables the closed-loop adaptive controller on every device:
feedback that reweights WEDM merges, swaps underperforming ensemble
members, and recompiles layouts after calibration changes.

--routing picks the scheduler's scoring policy: `esp` (default) scores by
compile-time predicted ESP alone; `live-ist` multiplies each device's ESP
by its live quality factor (EWMA of observed top-outcome share vs promised
ESP) once that device's estimator has warmed up, so a drift-degraded
device sheds traffic. Before warmup live-ist routes identically to esp.

--trace-out FILE appends every finished span to FILE as JSON lines (also
enables telemetry). The file rotates to FILE.1 when it exceeds 16 MiB;
drops are counted in edm_telemetry_trace_export_dropped_total.

exit codes:
  0   success
  1   unclassified failure
  2   usage error (bad flags)
  65  data error (corrupt journal)";

/// Every flag `edm-fleet` takes a value for.
const VALUED: &[&str] = &[
    "--addr",
    "--devices",
    "--device-seed",
    "--shards",
    "--presets",
    "--threads",
    "--queue",
    "--cache",
    "--batch",
    "--depth-cap",
    "--metrics-port",
    "--journal-dir",
    "--routing",
    "--trace-out",
];

/// Parses `--presets a,b,c` into topologies, defaulting to the original
/// three-preset cycle so existing deployments (and the fleet smoke test)
/// see identical devices.
fn presets_flag(args: &[String]) -> Result<Vec<(qdevice::Topology, String)>, Fatal> {
    let spec =
        flags::text(args, "--presets")?.unwrap_or_else(|| "melbourne14,guadalupe16,tokyo20".into());
    let mut cycle = Vec::new();
    for name in spec.split(',').map(str::trim).filter(|n| !n.is_empty()) {
        let topology = presets::by_name(name).ok_or_else(|| {
            Fatal::usage(format!(
                "--presets: unknown preset '{name}' (expected one of: {})",
                presets::NAMES.join(", ")
            ))
        })?;
        cycle.push((topology, name.to_string()));
    }
    if cycle.is_empty() {
        return Err(Fatal::usage("--presets needs at least one preset name"));
    }
    Ok(cycle)
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
    let addr = flags::text(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:0".into());
    let devices = flags::int(args, "--devices")?.unwrap_or(3);
    if devices == 0 {
        return Err(Fatal::usage("--devices must be at least 1"));
    }
    let cycle = presets_flag(args)?;
    let device_seed = flags::int(args, "--device-seed")?.unwrap_or(42);
    let mut fleet_config = startup::fleet_config(args)?;
    match flags::int(args, "--depth-cap")? {
        Some(0) => return Err(Fatal::usage("--depth-cap must be at least 1")),
        Some(cap) => fleet_config.depth_cap = (cap as usize).min(fleet_config.serve.queue_capacity),
        None => {}
    }
    let mut server_config = ServerConfig::default();
    if let Some(shards) = flags::int(args, "--shards")? {
        if shards == 0 {
            return Err(Fatal::usage("--shards must be at least 1"));
        }
        server_config.shards = shards as usize;
    }
    if let Some(spec) = flags::text(args, "--routing")? {
        fleet_config.routing = spec.parse::<RoutingPolicy>().map_err(Fatal::usage)?;
    }
    let journal_dir = flags::text(args, "--journal-dir")?;
    startup::start_telemetry(args)?;

    // Heterogeneous by construction: presets cycle, and each device gets
    // its own synthesis seed, so calibrations (and therefore ESP scores)
    // genuinely differ across the fleet.
    let members: Vec<(qdevice::Topology, &str)> = (0..devices as usize)
        .map(|i| {
            let (topology, name) = &cycle[i % cycle.len()];
            (topology.clone(), name.as_str())
        })
        .collect();
    let fleet = Fleet::synthesize(&members, device_seed, fleet_config);
    if let Some(dir) = &journal_dir {
        let path = Path::new(dir);
        std::fs::create_dir_all(path)
            .map_err(|e| Fatal::failure(JournalError::from(e).to_string()))?;
        let journals: Vec<_> = (0..fleet.num_devices())
            .map(|i| path.join(format!("device-{i}.jsonl")))
            .collect();
        startup::attach_journals(&fleet, &journals, path.join("fleet-index.jsonl"), dir)?;
    }

    let server = FleetServer::bind(fleet, &addr, server_config)
        .map_err(|e| Fatal::failure(format!("cannot bind {addr}: {e}")))?;
    eprintln!("fleet listening on {}", server.local_addr());
    server.run();
    Ok(())
}
