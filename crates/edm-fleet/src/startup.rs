//! Process start-up shared by the `edm-serve` and `edm-fleet` binaries:
//! the service configuration flags, the telemetry sinks, journal
//! recovery, and the mapping of every start-up failure onto an exit code.

use crate::fleet::{Fleet, FleetConfig};
use edm_core::{Backend, ControllerConfig};
use edm_serve::exitcode;
use edm_serve::flags::{self, FlagError};
use edm_serve::journal::JournalError;
use edm_serve::service::ServeConfig;
use edm_serve::validate;
use std::path::Path;
use std::process::ExitCode;

/// A start-up failure: the message for stderr and the exit code.
#[derive(Debug)]
pub struct Fatal {
    /// Process exit code ([`exitcode::USAGE`] prints the usage text too).
    pub code: u8,
    /// Printed after `error: `.
    pub message: String,
}

impl Fatal {
    /// Exit 2: the command line could not be understood.
    pub fn usage(message: impl Into<String>) -> Self {
        Fatal {
            code: exitcode::USAGE,
            message: message.into(),
        }
    }

    /// Exit 1: everything else.
    pub fn failure(message: impl Into<String>) -> Self {
        Fatal {
            code: exitcode::FAILURE,
            message: message.into(),
        }
    }
}

impl From<FlagError> for Fatal {
    fn from(e: FlagError) -> Self {
        Fatal::usage(e.0)
    }
}

/// The exit code for a binary's result, printing a failure's message (and
/// `usage` after a usage error) to stderr.
pub fn exit(result: Result<(), Fatal>, usage: &str) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(fatal) => {
            if fatal.code == exitcode::USAGE {
                eprintln!("error: {}\n{usage}", fatal.message);
            } else {
                eprintln!("error: {}", fatal.message);
            }
            ExitCode::from(fatal.code)
        }
    }
}

/// The fleet configuration `--threads`, `--queue`, `--cache`, `--batch`,
/// and `--controller` describe, with the default routing depth cap (a
/// quarter of the admission queue).
///
/// # Errors
///
/// A usage [`Fatal`] for a malformed or zero value.
pub fn fleet_config(args: &[String]) -> Result<FleetConfig, Fatal> {
    let mut serve = ServeConfig::default();
    if let Some(threads) = validate::threads(flags::int(args, "--threads")?)
        .map_err(|e| Fatal::usage(e.to_string()))?
    {
        serve.threads = threads;
    }
    let positive = |name: &str| -> Result<Option<usize>, Fatal> {
        match flags::int(args, name)? {
            Some(0) => Err(Fatal::usage(format!("{name} must be at least 1"))),
            value => Ok(value.map(|v| v as usize)),
        }
    };
    if let Some(queue) = positive("--queue")? {
        serve.queue_capacity = queue;
    }
    if let Some(cache) = positive("--cache")? {
        serve.cache_capacity = cache;
    }
    if let Some(batch) = positive("--batch")? {
        serve.max_batch_jobs = batch;
    }
    if flags::switch(args, "--controller") {
        serve.controller = Some(ControllerConfig::default());
    }
    Ok(FleetConfig {
        depth_cap: (serve.queue_capacity / 4).max(1),
        serve,
        routing: Default::default(),
    })
}

/// Starts the telemetry sinks `--metrics-port N` (Prometheus exposition,
/// address printed to stderr) and `--trace-out PATH` (span export) ask
/// for; either one enables telemetry. The metrics listener lives for the
/// rest of the process.
///
/// # Errors
///
/// A usage [`Fatal`] for a malformed flag; a failure [`Fatal`] when the
/// port cannot be bound or the trace file cannot be opened.
pub fn start_telemetry(args: &[String]) -> Result<(), Fatal> {
    let port = match flags::int(args, "--metrics-port")? {
        Some(port) => Some(
            u16::try_from(port).map_err(|_| Fatal::usage("--metrics-port must fit in 16 bits"))?,
        ),
        None => None,
    };
    let trace_out = flags::text(args, "--trace-out")?;
    if let Some(port) = port {
        edm_telemetry::set_enabled(true);
        let server = edm_telemetry::http::serve(port)
            .map_err(|e| Fatal::failure(format!("cannot bind metrics port {port}: {e}")))?;
        eprintln!("metrics listening on http://{}/metrics", server.addr());
    }
    if let Some(path) = trace_out {
        edm_telemetry::set_enabled(true);
        edm_telemetry::trace::set_trace_file(
            &path,
            edm_telemetry::trace::DEFAULT_TRACE_FILE_MAX_BYTES,
        )
        .map_err(|e| Fatal::failure(format!("cannot open trace file {path}: {e}")))?;
        eprintln!("traces appending to {path}");
    }
    Ok(())
}

/// [`Fleet::attach_journals`], reporting recovered jobs on stderr as
/// coming from `source`. A corrupt journal, or two journals holding the
/// same open job id, exits 65; any other journal failure 1.
///
/// # Errors
///
/// The [`Fatal`] those exit codes carry.
pub fn attach_journals<B: Backend>(
    fleet: &Fleet<B>,
    devices: &[impl AsRef<Path>],
    source: &str,
) -> Result<(), Fatal> {
    match fleet.attach_journals(devices) {
        Ok(0) => Ok(()),
        Ok(recovered) => {
            eprintln!("recovered {recovered} unfinished job(s) from {source}");
            Ok(())
        }
        Err(e @ JournalError::Corrupt { .. }) => Err(Fatal {
            code: exitcode::DATA,
            message: e.to_string(),
        }),
        Err(e) => Err(Fatal::failure(e.to_string())),
    }
}
