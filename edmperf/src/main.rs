//! `edmperf` — the EDM stack's benchmark.
//!
//! ```text
//! edmperf --workload <paper-ist|compile-scaling|fleet-mixed> --seed N --seconds S --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the named workload untraced for about `S`
//! seconds and prints its end-to-end metrics. With `--trace 1` it runs all
//! three workloads traced, about `S / 3` seconds each, and prints every
//! per-layer metric, prefixed by workload. Spans are timed around the
//! benchmark's own calls into each layer's public functions and saved as
//! JSON lines under `.bench_trace/`. The last line of stdout is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. A failed
//! correctness check makes the exit code 1; bad arguments make it 2.

mod alloc;
mod batch;
mod fleet;
mod hostref;
mod report;
mod span;

use report::{Metrics, Tally};
use std::path::Path;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 9;

const WORKLOADS: [&str; 3] = ["paper-ist", "compile-scaling", "fleet-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: edmperf --workload <{}> --seed N --seconds S --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} expects a value")));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed expects an integer"))
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage("--seconds expects a positive number"))
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace expects 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    args
}

/// Execution threads of the batch workloads and of their host-speed slices:
/// two, or fewer on a smaller host, so results stay comparable across
/// hosts with more cores.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

fn batch_spec(workload: &str) -> (batch::Spec, fn(u64) -> batch::Env) {
    let threads = threads();
    match workload {
        "paper-ist" => (
            batch::Spec {
                shots: 4096,
                threads,
                quality_seeds: 8,
                host_scaled: true,
            },
            batch::paper_env,
        ),
        _ => (
            batch::Spec {
                shots: 256,
                threads,
                quality_seeds: 96,
                host_scaled: false,
            },
            batch::compile_env,
        ),
    }
}

/// Saves a workload's spans; a failure to write is reported, not fatal.
pub fn write_trace(workload: &str, seed: u64, spans: &[span::Span]) {
    let path = Path::new(".bench_trace").join(format!("{workload}-seed{seed}.jsonl"));
    match span::write_jsonl(&path, spans) {
        Ok(()) => eprintln!(
            "{workload}: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("{workload}: cannot write {}: {e}", path.display()),
    }
}

fn run_untraced(args: &Args) -> (Metrics, Tally, Vec<String>) {
    if args.workload == "fleet-mixed" {
        return fleet::measure(args.seed, args.seconds, SETUPS);
    }
    let (spec, make) = batch_spec(&args.workload);
    let (env, setup_s) = batch::setup(make, args.seed, spec.threads, SETUPS);
    batch::measure(&env, &spec, setup_s, args.seconds)
}

fn run_traced(args: &Args) -> (Metrics, Tally, Vec<String>) {
    let share = args.seconds / WORKLOADS.len() as f64;
    let mut all = Metrics::default();
    let mut tally = Tally::default();
    let mut errors = Vec::new();
    for workload in WORKLOADS {
        let (m, t, e) = if workload == "fleet-mixed" {
            fleet::trace(args.seed, share)
        } else {
            let (spec, make) = batch_spec(workload);
            let (env, _) = batch::setup(make, args.seed, spec.threads, 1);
            let (m, t, e, spans) = batch::trace(&env, &spec, share);
            write_trace(workload, args.seed, &spans);
            (m, t, e)
        };
        all.extend_prefixed(&format!("{workload}."), m);
        tally.add(t);
        errors.extend(e);
    }
    (all, tally, errors)
}

fn main() {
    let args = parse_args();
    eprintln!(
        "edmperf: workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let (metrics, tally, errors) = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    let correct = tally.failed == 0 && errors.is_empty() && tally.attempted > 0;
    eprint!("{}", metrics.table());
    eprintln!(
        "{} operations attempted, {} failed",
        tally.attempted, tally.failed
    );
    println!("{}", report::result_line(correct, tally, &metrics));
    if !correct {
        std::process::exit(1);
    }
}
