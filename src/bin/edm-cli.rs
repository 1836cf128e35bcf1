//! `edm-cli` — a small command-line front end for the EDM reproduction.
//!
//! ```text
//! edm-cli draw <circuit.qasm>                 render an ASCII diagram
//! edm-cli transpile <circuit.qasm> [--device NAME] [--seed N]
//!                                             map onto a simulated device
//! edm-cli run <circuit.qasm> [--device NAME] [--shots N] [--seed N]
//!                [--threads N] [--profile]    baseline vs EDM vs WEDM
//! edm-cli run <circuit.qasm> --connect ADDR [--shots N] [--seed N]
//!                [--trace-out FILE]           submit to a fleet server
//! edm-cli trace <job-id> --connect ADDR       print a job's span timeline
//! edm-cli stats --connect ADDR [--watch N]    per-device fleet status table
//! edm-cli map (<circuit.qasm> | --bench NAME) [--device NAME] [--ensemble K]
//!                [--seed N]                   enumerate a diverse top-K pool
//! edm-cli device [--device NAME] [--seed N]   dump the device model as JSON
//! ```
//!
//! Circuits are OpenQASM 2.0 in the subset `qcir::qasm` understands (the
//! same subset it emits). `--device` takes any `qdevice::presets` name
//! (melbourne14 … eagle127); the embedding engine follows the device size
//! (exhaustive VF2 up to 20 qubits, budgeted FDLS above).

use edm_core::{
    metrics, Backend, Controller, ControllerConfig, ControllerEvent, EdmError, EdmRunner,
    EnsembleConfig, ProbDist, RunHealth, ShotAllocation,
};
use edm_serve::{exitcode, flags, validate};
use qcir::{draw, qasm, Circuit};
use qdevice::mapper::{MapperSelection, SearchOutcome};
use qdevice::{persist, presets, DeviceModel, Topology};
use qmap::Transpiler;
use qsim::{ideal, NoisySimulator};
use std::process::ExitCode;

/// A command failure carrying the exit code its class maps to.
struct CliError {
    code: u8,
    message: String,
}

impl CliError {
    /// Exit 2: the command line could not be understood.
    fn usage(message: impl Into<String>) -> Self {
        CliError {
            code: exitcode::USAGE,
            message: message.into(),
        }
    }

    /// Exit 65: an input file exists but is unusable.
    fn data(message: impl Into<String>) -> Self {
        CliError {
            code: exitcode::DATA,
            message: message.into(),
        }
    }

    /// Exit 1: everything else.
    fn other(message: impl Into<String>) -> Self {
        CliError {
            code: exitcode::FAILURE,
            message: message.into(),
        }
    }

    /// Exit 75 for a transient backend failure (rerunning may succeed),
    /// exit 1 for deterministic pipeline errors.
    fn run(e: EdmError) -> Self {
        let code = match &e {
            EdmError::Sim(sim) => exitcode::for_sim_error(sim),
            _ => exitcode::FAILURE,
        };
        CliError {
            code,
            message: e.to_string(),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(exitcode::USAGE);
    };
    let result = match command.as_str() {
        "draw" => cmd_draw(&args[1..]),
        "transpile" => cmd_transpile(&args[1..]),
        "run" => cmd_run(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "map" => cmd_map(&args[1..]),
        "device" => cmd_device(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::usage(format!(
            "unknown command '{other}'\n{USAGE}"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            ExitCode::from(e.code)
        }
    }
}

const USAGE: &str = "usage:
  edm-cli draw <circuit.qasm>
  edm-cli transpile <circuit.qasm> [--device NAME] [--seed N]
  edm-cli run <circuit.qasm> [--device NAME] [--shots N] [--seed N]
             [--threads N] [--profile]
             [--adaptive-controller] [--rounds N]
  edm-cli run <circuit.qasm> --connect ADDR [--shots N] [--seed N]
             [--trace-out FILE]
  edm-cli trace <job-id> --connect ADDR
  edm-cli stats --connect ADDR [--watch N]
  edm-cli map (<circuit.qasm> | --bench NAME) [--device NAME] [--ensemble K]
             [--seed N]
  edm-cli device [--device NAME] [--seed N]

device options:
  --device NAME preset topology to synthesize (default: melbourne14).
                Presets: melbourne14 guadalupe16 tokyo20 falcon27
                hummingbird65 eagle127. Devices up to 20 qubits map with
                exhaustive VF2, larger ones with the budgeted FDLS search

map options:
  --bench NAME  use a registry workload instead of a .qasm file: a Table-1
                name (bv-6, qaoa-5, ...) or a scaling instance
                (qft-N, ghz-N, qaoa-ring-N)
  --ensemble K  pool size to diversify down to (default: 4)

run options:
  --threads N   cap execution worker threads, N >= 1 (default: all cores;
                results are identical for every N — threads only change
                speed). With --connect the server picks its own thread
                count (same validation, same results either way)
  --profile     enable telemetry for this run and print a per-stage timing
                table (calls, total ms, % of wall) after the results
  --connect ADDR
                submit to a running edm-serve/edm-fleet JSON-lines server
                at ADDR (e.g. 127.0.0.1:7878) instead of running locally,
                then poll until the job finishes and print its summary
  --adaptive-controller
                run the shot budget in rounds through the closed-loop
                feedback controller: an enlarged mapping pool is compiled
                once, and between rounds the controller reweights the WEDM
                merge and swaps persistently underperforming members for
                spares; prints per-round health and decisions
  --rounds N    feedback rounds for --adaptive-controller, N >= 2
                (default: 4)
  --trace-out FILE
                with --connect: also append this client's own spans to FILE
                as JSON lines (the server keeps its half of the trace; see
                edm-cli trace)

trace options:
  <job-id>      the id `run --connect` printed in its `accepted:` line
  --connect ADDR
                the server that accepted the job; prints every span the
                server recorded for the job's trace as an indented tree
                with per-span durations

stats options:
  --connect ADDR
                server to query; prints one row per fleet device (queue
                depth, breaker, quarantine, live IST, ESP gap)
  --watch N     refresh every N seconds until interrupted (N >= 1);
                redraws in place when stdout is a terminal

exit codes:
  0   success
  1   unclassified failure
  2   usage error (unknown or bad flags / arguments)
  65  data error (missing, unparseable, or unsimulable circuit file)
  75  transient backend failure; rerunning may succeed";

impl From<flags::FlagError> for CliError {
    fn from(e: flags::FlagError) -> Self {
        CliError::usage(e.0)
    }
}

/// `--device NAME`, defaulting to the paper's IBMQ-14 stand-in.
fn device_flag(args: &[String]) -> Result<(Topology, String), CliError> {
    let name = flags::text(args, "--device")?.unwrap_or_else(|| "melbourne14".into());
    let topology = presets::by_name(&name).ok_or_else(|| {
        CliError::usage(format!(
            "--device: unknown preset '{name}' (expected one of: {})",
            presets::NAMES.join(", ")
        ))
    })?;
    Ok((topology, name))
}

/// Rejects any argument outside a subcommand's declared flags (exit 2),
/// after taking out the one positional argument at `positional`.
fn check_flags(
    args: &[String],
    positional: Option<usize>,
    valued: &[&str],
    switches: &[&str],
) -> Result<(), CliError> {
    let mut rest = args.to_vec();
    if let Some(i) = positional {
        rest.remove(i);
    }
    Ok(flags::check(&rest, valued, switches)?)
}

/// Index of the circuit argument: the first non-flag ending in `.qasm`.
fn qasm_arg(args: &[String]) -> Option<usize> {
    args.iter()
        .position(|a| !a.starts_with("--") && a.ends_with(".qasm"))
}

fn load_circuit(args: &[String]) -> Result<Circuit, CliError> {
    let path =
        &args[qasm_arg(args).ok_or_else(|| CliError::usage("expected a .qasm file argument"))?];
    let text = std::fs::read_to_string(path).map_err(|e| CliError::data(format!("{path}: {e}")))?;
    qasm::parse(&text).map_err(|e| CliError::data(format!("{path}: {e}")))
}

fn cmd_draw(args: &[String]) -> Result<(), CliError> {
    check_flags(args, qasm_arg(args), &[], &[])?;
    let circuit = load_circuit(args)?;
    print!("{}", draw::draw(&circuit));
    Ok(())
}

fn cmd_transpile(args: &[String]) -> Result<(), CliError> {
    check_flags(args, qasm_arg(args), &["--device", "--seed"], &[])?;
    let circuit = load_circuit(args)?;
    let seed = flags::int(args, "--seed")?.unwrap_or(42);
    let (topology, device_name) = device_flag(args)?;
    let device = DeviceModel::synthesize(topology, seed);
    let cal = device.calibration();
    let transpiler = Transpiler::new(device.topology(), &cal);
    let out = transpiler
        .transpile(&circuit)
        .map_err(|e| CliError::other(e.to_string()))?;
    println!(
        "device: {device_name} ({} qubits)  mapper: {}",
        device.topology().num_qubits(),
        transpiler.mapper_selection().describe(device.topology())
    );
    println!("initial layout: {}", out.initial_layout);
    println!("swaps inserted: {}", out.swap_count);
    println!("compile-time ESP: {:.4e}", out.esp);
    println!("\n{}", qasm::to_qasm(&out.physical));
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    check_flags(
        args,
        qasm_arg(args),
        &[
            "--device",
            "--shots",
            "--seed",
            "--threads",
            "--rounds",
            "--connect",
            "--trace-out",
        ],
        &["--profile", "--adaptive-controller"],
    )?;
    let circuit = load_circuit(args)?;
    let shots = validate::shots(flags::int(args, "--shots")?.unwrap_or(16_384))
        .map_err(|e| CliError::usage(format!("--shots: {e}")))?;
    let seed = flags::int(args, "--seed")?.unwrap_or(42);
    // Absent = auto (all cores). Any value gives bit-identical results; the
    // flag exists to bound CPU usage, not to pick an RNG schedule.
    let threads = validate::threads(flags::int(args, "--threads")?)
        .map_err(|e| CliError::usage(format!("--threads: {e}")))?;
    let profile = flags::switch(args, "--profile");
    let (topology, _) = device_flag(args)?;
    if circuit.count_measure() == 0 {
        return Err(CliError::data(
            "circuit has no measurements; nothing to run",
        ));
    }
    // --threads was validated above even for remote runs (catch bad values
    // before touching the network); the server picks its own thread count.
    if let Some(addr) = flags::text(args, "--connect")? {
        let trace_out = flags::text(args, "--trace-out")?;
        return cmd_run_remote(&addr, &circuit, shots, seed, trace_out.as_deref());
    }
    if flags::switch(args, "--adaptive-controller") {
        let rounds = flags::int(args, "--rounds")?.unwrap_or(4);
        if rounds < 2 {
            return Err(CliError::usage("--rounds must be at least 2"));
        }
        return cmd_run_adaptive(&circuit, shots, seed, rounds, threads, topology);
    }
    if profile {
        edm_telemetry::set_enabled(true);
    }
    let wall_start = std::time::Instant::now();
    let correct = {
        let _span = edm_telemetry::trace::span("ideal_reference");
        ideal::outcome(&circuit).map_err(|e| CliError::data(e.to_string()))?
    };
    let device;
    let cal;
    {
        let _span = edm_telemetry::trace::span("device_setup");
        device = DeviceModel::synthesize(topology, seed);
        cal = device.calibration();
    }
    let transpiler = Transpiler::new(device.topology(), &cal);
    let backend = NoisySimulator::from_device(&device);
    let mut runner = EdmRunner::new(&transpiler, &backend, EnsembleConfig::default());
    if let Some(threads) = threads {
        runner = runner.with_threads(threads);
    }

    let baseline = runner
        .run_baseline(&circuit, shots, seed)
        .map_err(CliError::run)?;
    let result = runner.run(&circuit, shots, seed).map_err(CliError::run)?;
    let wall = wall_start.elapsed();

    if let RunHealth::Degraded {
        failed_members,
        quorum,
    } = &result.health
    {
        println!(
            "DEGRADED: {} member(s) failed permanently; merged over {} survivor(s) (quorum {})",
            failed_members.len(),
            result.members.len(),
            quorum
        );
    }
    let width = circuit.num_clbits();
    println!(
        "ideal (correct) answer: {}",
        qsim::counts::format_bitstring(correct, width)
    );
    println!(
        "baseline: PST {:.4}  IST {:.3}",
        metrics::pst(&baseline.dist, correct),
        metrics::ist(&baseline.dist, correct)
    );
    println!(
        "EDM:      PST {:.4}  IST {:.3}",
        metrics::pst(&result.edm, correct),
        result.ist_edm(correct)
    );
    println!(
        "WEDM:     PST {:.4}  IST {:.3}",
        metrics::pst(&result.wedm, correct),
        result.ist_wedm(correct)
    );
    for (i, m) in result.members.iter().enumerate() {
        println!(
            "member {i}: qubits {:?}  ESP {:.3}  PST {:.4}",
            m.member.qubits,
            m.member.esp,
            metrics::pst(&m.dist, correct)
        );
    }
    if profile {
        print_profile(wall);
    }
    Ok(())
}

/// `run --adaptive-controller`: the closed-loop local mode. Compiles one
/// enlarged mapping pool (the usual ensemble plus the controller's spare
/// budget), then spends the shot budget in rounds; after each round the
/// controller scores every active member against its predicted ESP share,
/// reweights the WEDM merge, and swaps persistent underperformers for the
/// next-ranked spare. The final answer merges the per-round WEDM
/// distributions weighted by their shot counts.
fn cmd_run_adaptive(
    circuit: &Circuit,
    shots: u64,
    seed: u64,
    rounds: u64,
    threads: Option<usize>,
    topology: Topology,
) -> Result<(), CliError> {
    let correct = ideal::outcome(circuit).map_err(|e| CliError::data(e.to_string()))?;
    let width = circuit.num_clbits();
    let device = DeviceModel::synthesize(topology, seed);
    let cal = device.calibration();
    let transpiler = Transpiler::new(device.topology(), &cal);
    let backend = NoisySimulator::from_device(&device);
    let threads = threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });

    let base = EnsembleConfig::default();
    let controller_config = ControllerConfig::default();
    let pool =
        edm_core::build_ensemble(&transpiler, circuit, &controller_config.pool_config(&base))
            .map_err(CliError::run)?;
    let mut controller = Controller::new(controller_config, pool.len(), base.size);
    let active_len = controller.active().len();

    let round_shots = shots / rounds;
    if round_shots < active_len as u64 {
        return Err(CliError::usage(format!(
            "--shots {shots} over {rounds} rounds leaves fewer shots per round than the \
             {active_len} ensemble members"
        )));
    }

    println!(
        "ideal (correct) answer: {}",
        qsim::counts::format_bitstring(correct, width)
    );
    println!(
        "pool: {} mapping(s) ({} active + {} spare(s)), {} round(s) of {} shot(s)",
        pool.len(),
        active_len,
        pool.len() - active_len,
        rounds,
        round_shots
    );

    let mut round_dists: Vec<ProbDist> = Vec::new();
    let mut round_masses: Vec<f64> = Vec::new();
    for round in 0..rounds {
        let (members, swaps) = controller.plan(&pool, None);
        for event in swaps {
            if let ControllerEvent::Swap {
                slot,
                out_member,
                in_member,
                reason,
                ..
            } = event
            {
                println!("round {round}: swap slot {slot}: member {out_member} -> {in_member} ({reason:?})");
            }
        }
        // Each round forks its own seed, so rounds are independent trials
        // and the whole run stays reproducible from the one CLI seed.
        let plan = edm_core::plan_run(
            members,
            round_shots,
            qsim::rngstream::fork(seed, round),
            ShotAllocation::Uniform,
        )
        .map_err(CliError::run)?;
        let raw = backend.execute_batch(&plan.jobs(), threads);
        let mut result =
            edm_core::assemble_result(plan.members, raw, &base).map_err(CliError::run)?;
        controller.feed_back(&mut result, &base);

        let health: Vec<String> = controller
            .health()
            .iter()
            .map(|h| format!("{h:.2}"))
            .collect();
        println!(
            "round {round}: WEDM PST {:.4}  health [{}]",
            metrics::pst(&result.wedm, correct),
            health.join(" ")
        );
        round_masses.push(result.members.iter().map(|m| m.counts.shots() as f64).sum());
        round_dists.push(result.wedm);
    }

    let final_wedm = ProbDist::merge_weighted(&round_dists, &round_masses);
    println!(
        "adaptive WEDM: PST {:.4}  IST {:.3}",
        metrics::pst(&final_wedm, correct),
        metrics::ist(&final_wedm, correct)
    );
    println!(
        "controller: {} swap(s), {} reweight(s) over {} round(s)",
        controller.swaps(),
        controller.reweights(),
        controller.runs()
    );
    Ok(())
}

/// `map`: transpiles a workload onto the chosen preset and prints the
/// diversified top-K mapping pool — the EDM ensemble before any shots are
/// spent. This is the command the CI mapping smoke test drives: it proves
/// the engine the device size selects can produce a ranked, diverse pool
/// on the large heavy-hex presets within its budget.
fn cmd_map(args: &[String]) -> Result<(), CliError> {
    check_flags(
        args,
        qasm_arg(args),
        &["--bench", "--device", "--ensemble", "--seed"],
        &[],
    )?;
    let circuit = match flags::text(args, "--bench")? {
        Some(name) => qbench::registry::by_name(&name)
            .map(|b| b.circuit)
            .or_else(|| qbench::registry::scaling_by_name(&name))
            .ok_or_else(|| {
                CliError::usage(format!(
                    "--bench: unknown workload '{name}' (Table-1 name or qft-N / ghz-N / qaoa-ring-N)"
                ))
            })?,
        None => load_circuit(args)?,
    };
    let seed = flags::int(args, "--seed")?.unwrap_or(42);
    let size = flags::int(args, "--ensemble")?.unwrap_or(4) as usize;
    let (topology, device_name) = device_flag(args)?;
    let device = DeviceModel::synthesize(topology, seed);
    let cal = device.calibration();
    let transpiler = Transpiler::new(device.topology(), &cal);

    let out = transpiler
        .transpile(&circuit)
        .map_err(|e| CliError::other(e.to_string()))?;
    let config = EnsembleConfig {
        size,
        // Keep every candidate the engine can reach: `map` reports the
        // pool itself, so the §3.2 ESP cutoff would only hide members.
        min_esp_ratio: 0.0,
        ..EnsembleConfig::default()
    };
    let (members, outcome) =
        edm_core::diversify_detailed(&transpiler, &out.physical, &config).map_err(CliError::run)?;

    let selection = transpiler.mapper_selection();
    println!(
        "device: {device_name} ({} qubits)  mapper: {}",
        device.topology().num_qubits(),
        selection.describe(device.topology())
    );
    println!(
        "circuit: {} logical qubits, {} swaps inserted, baseline ESP {:.4e}",
        circuit.num_qubits(),
        out.swap_count,
        out.esp
    );
    match outcome {
        SearchOutcome::Complete => println!("search: complete"),
        // The exhaustive search has no budgets: only the cap stops it.
        SearchOutcome::Truncated { explored }
            if selection.resolve(device.topology()) == MapperSelection::Exhaustive =>
        {
            println!(
                "search: truncated (result cap of {} embeddings reached after {explored} node expansions)",
                config.max_candidates
            );
        }
        SearchOutcome::Truncated { explored } => {
            println!("search: truncated (budget hit after {explored} node expansions)");
        }
    }
    for (i, m) in members.iter().enumerate() {
        println!("member {i}: qubits {:?}  ESP {:.4e}", m.qubits, m.esp);
    }
    Ok(())
}

/// Exit 75: the server may just not be up yet.
fn transient(message: String) -> CliError {
    CliError {
        code: exitcode::TRANSIENT,
        message,
    }
}

/// A line-oriented protocol client over one TCP connection, shared by the
/// `run --connect`, `trace`, and `stats` commands.
struct LineClient {
    addr: String,
    reader: std::io::BufReader<std::net::TcpStream>,
    writer: std::net::TcpStream,
}

impl LineClient {
    fn connect(addr: &str) -> Result<Self, CliError> {
        let stream = std::net::TcpStream::connect(addr)
            .map_err(|e| transient(format!("cannot connect to {addr}: {e}")))?;
        stream.set_nodelay(true).ok();
        let reader = std::io::BufReader::new(
            stream
                .try_clone()
                .map_err(|e| transient(format!("{addr}: {e}")))?,
        );
        Ok(LineClient {
            addr: addr.to_string(),
            reader,
            writer: stream,
        })
    }

    fn exchange(
        &mut self,
        request: &edm_serve::protocol::Request,
    ) -> Result<edm_serve::protocol::Response, CliError> {
        use std::io::{BufRead, Write};
        let addr = &self.addr;
        let line = serde_json::to_string(request)
            .map_err(|e| CliError::other(format!("encode request: {e}")))?;
        writeln!(self.writer, "{line}").map_err(|e| transient(format!("{addr}: write: {e}")))?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err(transient(format!("{addr}: server closed the connection"))),
            Ok(_) => serde_json::from_str(&response)
                .map_err(|e| CliError::other(format!("{addr}: bad response: {e}"))),
            Err(e) => Err(transient(format!("{addr}: read: {e}"))),
        }
    }
}

/// `run --connect`: submits the circuit to a JSON-lines server (an
/// `edm-fleet` front end or a line-oriented `edm-serve` peer), polls the
/// returned id until the job reaches a terminal state, and prints the
/// summary. The submission carries this client's freshly minted trace id
/// and root span, so the server's shard, device-service, and pool-slice
/// spans all land in one cross-process trace (`edm-cli trace <id>` walks
/// it back). Connection problems exit 75 (transient — the server may just
/// not be up yet); a server-side rejection or job failure exits 65.
fn cmd_run_remote(
    addr: &str,
    circuit: &Circuit,
    shots: u64,
    seed: u64,
    trace_out: Option<&str>,
) -> Result<(), CliError> {
    use edm_serve::protocol::{Request, Response};

    // The client is the trace's origin: it mints the id and owns the root
    // span, exactly like an edge gateway in a conventional tracing setup.
    edm_telemetry::set_enabled(true);
    if let Some(path) = trace_out {
        edm_telemetry::trace::set_trace_file(
            path,
            edm_telemetry::trace::DEFAULT_TRACE_FILE_MAX_BYTES,
        )
        .map_err(|e| CliError::other(format!("--trace-out {path}: {e}")))?;
    }
    let trace_id = edm_telemetry::trace::next_trace_id();
    let _trace = edm_telemetry::trace::with_trace(trace_id);
    let client_span = edm_telemetry::trace::span("client_run");
    let parent_span = client_span.id();

    let mut client = LineClient::connect(addr)?;
    let id = match client.exchange(&Request::Submit {
        qasm: qasm::to_qasm(circuit),
        shots,
        seed,
        priority: edm_serve::queue::Priority::Normal,
        trace_id,
        parent_span,
    })? {
        Response::Accepted { id, trace_id } => {
            println!("accepted: id {id}  trace {trace_id:#018x}");
            id
        }
        Response::Rejected { reason } => {
            return Err(CliError::data(format!("server rejected the job: {reason}")))
        }
        other => return Err(CliError::other(format!("unexpected response: {other:?}"))),
    };

    let outcome = loop {
        match client.exchange(&Request::Poll { id })? {
            Response::Queued { .. } => std::thread::sleep(std::time::Duration::from_millis(20)),
            Response::Finished { summary, .. } => {
                println!(
                    "finished: {} member(s), {} shot(s), {} ms",
                    summary.members, summary.shots, summary.latency_ms
                );
                if summary.degraded {
                    println!(
                        "DEGRADED: {} member(s) failed permanently",
                        summary.failed_members
                    );
                }
                println!(
                    "top outcome: {}  p = {:.4}",
                    summary.top_outcome, summary.top_probability
                );
                // Surface adaptive-controller activity without making the
                // user scrape Prometheus; servers without the controller
                // report zeros and print nothing.
                if let Ok(Response::Stats { stats }) = client.exchange(&Request::Stats) {
                    if stats.controller_swaps > 0
                        || stats.controller_reweights > 0
                        || stats.controller_recompiles > 0
                    {
                        println!(
                            "controller: {} swap(s), {} reweight(s), {} recompile(s)",
                            stats.controller_swaps,
                            stats.controller_reweights,
                            stats.controller_recompiles
                        );
                    }
                }
                break Ok(());
            }
            Response::Failed { reason, .. } => {
                break Err(CliError::data(format!(
                    "job failed on the server: {reason}"
                )))
            }
            other => break Err(CliError::other(format!("unexpected response: {other:?}"))),
        }
    };
    // Close the root span so it reaches the recorder (and the export file)
    // before the process exits.
    drop(client_span);
    if trace_out.is_some() {
        edm_telemetry::trace::flush_trace_file();
    }
    outcome
}

/// `trace <job-id> --connect ADDR`: fetches every span the server recorded
/// for the job's trace and prints them as an indented call tree. Spans
/// whose parent lives in another process (the client's root span, for a
/// job submitted by `run --connect`) print at the top level with their
/// remote parent noted.
fn cmd_trace(args: &[String]) -> Result<(), CliError> {
    use edm_serve::protocol::{Request, Response, SpanInfo};

    let id_arg = args.iter().position(|a| !a.starts_with("--"));
    check_flags(args, id_arg, &["--connect"], &[])?;
    let id: u64 = args[id_arg.ok_or_else(|| CliError::usage("trace expects a job id"))?]
        .parse()
        .map_err(|_| CliError::usage("trace expects a numeric job id"))?;
    let addr = flags::text(args, "--connect")?
        .ok_or_else(|| CliError::usage("trace requires --connect ADDR"))?;

    let mut client = LineClient::connect(&addr)?;
    let (trace_id, spans) = match client.exchange(&Request::Trace { id })? {
        Response::Trace {
            trace_id, spans, ..
        } => (trace_id, spans),
        Response::Unknown { .. } => {
            return Err(CliError::data(format!("server does not know job {id}")))
        }
        other => return Err(CliError::other(format!("unexpected response: {other:?}"))),
    };

    println!(
        "job {id}: trace {trace_id:#018x}, {} span(s) on the server",
        spans.len()
    );
    if spans.is_empty() {
        println!("(no spans retained — was the server started with telemetry enabled?)");
        return Ok(());
    }
    // Reconstruct the call tree: spans arrive in completion order, ids are
    // allocation-ordered, so sorting children by id approximates start
    // order without needing wall-clock timestamps.
    let known: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
    let mut children: std::collections::BTreeMap<u64, Vec<&SpanInfo>> =
        std::collections::BTreeMap::new();
    let mut roots: Vec<&SpanInfo> = Vec::new();
    for span in &spans {
        // A self-parented span is a root: its declared parent id is a
        // cross-process collision, not a real edge.
        if span.parent_id != span.id && known.contains(&span.parent_id) {
            children.entry(span.parent_id).or_default().push(span);
        } else {
            roots.push(span);
        }
    }
    for list in children.values_mut() {
        list.sort_by_key(|s| s.id);
    }
    roots.sort_by_key(|s| s.id);

    fn print_subtree(
        span: &SpanInfo,
        depth: usize,
        children: &std::collections::BTreeMap<u64, Vec<&SpanInfo>>,
        visited: &mut std::collections::BTreeSet<u64>,
    ) {
        // Colliding ids could forge a parent cycle; print each span once.
        if !visited.insert(span.id) {
            return;
        }
        let indent = "  ".repeat(depth);
        let label = format!("{indent}{}", span.name);
        println!(
            "{label:<28} {:>10.3} ms  span {}",
            span.elapsed_us as f64 / 1000.0,
            span.id
        );
        for child in children.get(&span.id).into_iter().flatten() {
            print_subtree(child, depth + 1, children, visited);
        }
    }
    let mut visited = std::collections::BTreeSet::new();
    for root in roots {
        if root.parent_id != 0 && root.parent_id != root.id {
            println!("(remote parent span {})", root.parent_id);
        }
        print_subtree(root, 0, &children, &mut visited);
    }
    // Orphans only appear if the tree wiring ever regresses; printing a
    // flat tail beats silently hiding spans the server did retain.
    for span in spans.iter().filter(|s| !visited.contains(&s.id)) {
        println!(
            "{:<28} {:>10.3} ms  span {} (unreachable; parent {})",
            span.name,
            span.elapsed_us as f64 / 1000.0,
            span.id,
            span.parent_id
        );
    }
    Ok(())
}

/// `stats --connect ADDR [--watch N]`: one table row per fleet device —
/// queue depth, breaker state, quarantine, and the live answer-quality
/// plane (observed IST, ESP gap, warmup). With `--watch N` the table
/// redraws every N seconds (in place when stdout is a terminal).
fn cmd_stats(args: &[String]) -> Result<(), CliError> {
    use edm_serve::protocol::{Request, Response};
    use std::io::IsTerminal;

    check_flags(args, None, &["--connect", "--watch"], &[])?;
    let addr = flags::text(args, "--connect")?
        .ok_or_else(|| CliError::usage("stats requires --connect ADDR"))?;
    let watch = flags::int(args, "--watch")?;
    if watch == Some(0) {
        return Err(CliError::usage("--watch must be at least 1 second"));
    }
    let redraw_in_place = watch.is_some() && std::io::stdout().is_terminal();

    let mut client = LineClient::connect(&addr)?;
    loop {
        let devices = match client.exchange(&Request::FleetStats)? {
            Response::FleetStats { devices } => devices,
            other => return Err(CliError::other(format!("unexpected response: {other:?}"))),
        };
        if redraw_in_place {
            // Clear the screen and home the cursor between refreshes.
            print!("\x1b[2J\x1b[H");
        }
        println!(
            "{:<3} {:<18} {:>5} {:>9} {:>6} {:>6} {:>9} {:>9} {:>8}",
            "dev", "name", "depth", "breaker", "quar", "jobs", "live IST", "ESP gap", "factor"
        );
        for d in &devices {
            let breaker = match d.breaker {
                edm_serve::dispatch::BreakerState::Closed => "closed",
                edm_serve::dispatch::BreakerState::HalfOpen => "half-open",
                edm_serve::dispatch::BreakerState::Open => "open",
            };
            let fmt3 = |v: Option<f64>| match v {
                Some(v) => format!("{v:.3}"),
                None => "-".to_string(),
            };
            println!(
                "{:<3} {:<18} {:>5} {:>9} {:>6} {:>6} {:>9} {:>9} {:>8}",
                d.device,
                d.name,
                d.queue_depth,
                breaker,
                if d.quarantined { "yes" } else { "no" },
                d.stats.completed,
                fmt3(d.quality.live_ist),
                fmt3(d.quality.esp_gap),
                if d.quality.warmed_up {
                    format!("{:.2}", d.quality.quality_factor)
                } else {
                    "warmup".to_string()
                },
            );
        }
        match watch {
            None => return Ok(()),
            Some(interval) => std::thread::sleep(std::time::Duration::from_secs(interval)),
        }
    }
}

/// Prints the per-stage timing table `--profile` promises: one row per
/// traced stage (root stages first, nested stages indented beneath them),
/// then the root-stage total against the measured wall time. Root spans
/// never overlap — they all run on the driving thread — so their sum is
/// directly comparable to wall time.
fn print_profile(wall: std::time::Duration) {
    let spans = edm_telemetry::trace::recorder().recent();
    let totals = edm_telemetry::trace::stage_totals(&spans);
    let wall_us = (wall.as_micros() as u64).max(1);
    println!("\nprofile ({} span(s) recorded):", spans.len());
    println!(
        "{:<20} {:>6} {:>12} {:>8}",
        "stage", "calls", "total ms", "% wall"
    );
    let ms = |us: u64| us as f64 / 1000.0;
    let pct = |us: u64| 100.0 * us as f64 / wall_us as f64;
    let mut root_total_us = 0u64;
    for stage in totals.iter().filter(|s| s.root) {
        root_total_us += stage.total_us;
        println!(
            "{:<20} {:>6} {:>12.2} {:>7.1}%",
            stage.name,
            stage.calls,
            ms(stage.total_us),
            pct(stage.total_us)
        );
    }
    for stage in totals.iter().filter(|s| !s.root) {
        println!(
            "  {:<18} {:>6} {:>12.2} {:>7.1}%",
            stage.name,
            stage.calls,
            ms(stage.total_us),
            pct(stage.total_us)
        );
    }
    println!(
        "stages account for {:.2} ms of {:.2} ms wall ({:.1}%)",
        ms(root_total_us),
        ms(wall_us),
        pct(root_total_us)
    );
}

fn cmd_device(args: &[String]) -> Result<(), CliError> {
    check_flags(args, None, &["--device", "--seed"], &[])?;
    let seed = flags::int(args, "--seed")?.unwrap_or(42);
    let (topology, _) = device_flag(args)?;
    let device = DeviceModel::synthesize(topology, seed);
    let json = persist::device_to_json(&device).map_err(|e| CliError::other(e.to_string()))?;
    println!("{json}");
    Ok(())
}
