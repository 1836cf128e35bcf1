//! Pipeline latency profile: runs the IST workload suite with telemetry
//! enabled and writes `BENCH_pipeline.json` — per-stage histogram counts
//! with p50/p99/mean microseconds, the exact work counters, and the gauges
//! (such as the shot loop's SIMD tier) — so CI archives stage latency
//! alongside the paper's figures and a regression shows up as a diff.
//!
//! Flags:
//!
//! - `--out <path>` — where to write the profile JSON (default:
//!   `results/BENCH_pipeline.json` at the repository root, so CI and local
//!   runs stop scattering artifacts into whatever directory they ran from).
//! - `--compare <baseline>` — after profiling, gate the fresh run against a
//!   committed baseline document; exits with code 65 (`EX_DATAERR`) when
//!   any gated stage's mean regresses beyond tolerance or any work counter
//!   differs from the baseline's value.
//! - `--tolerance <ratio>` — regression tolerance for `--compare`
//!   (default 1.25 = a stage may be 25% slower before the gate fails).
//! - `--min-mean-us <µs>` — baseline stages with a smaller mean are not
//!   gated (default 50µs; sub-floor stages are timer noise).

use edm_bench::perfgate::{self, PipelineBench};
use edm_bench::{experiments, setup};
use edm_core::EnsembleConfig;
use edm_telemetry::metrics::{quantile_from_buckets, registry, MetricSnapshot};
use qbench::registry as workloads;

/// `sysexits.h` EX_DATAERR: the input (the fresh profile) failed the gate.
const EXIT_REGRESSION: i32 = 65;

struct Args {
    out: std::path::PathBuf,
    compare: Option<std::path::PathBuf>,
    tolerance: f64,
    min_mean_us: f64,
}

fn parse_args() -> Args {
    let default_out =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_pipeline.json");
    let mut out = Args {
        out: default_out,
        compare: None,
        tolerance: perfgate::DEFAULT_TOLERANCE,
        min_mean_us: perfgate::DEFAULT_MIN_MEAN_US,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} expects a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--out" => out.out = value("--out").into(),
            "--compare" => out.compare = Some(value("--compare").into()),
            "--tolerance" => {
                out.tolerance = value("--tolerance").parse().unwrap_or_else(|_| {
                    eprintln!("--tolerance expects a number");
                    std::process::exit(2);
                })
            }
            "--min-mean-us" => {
                out.min_mean_us = value("--min-mean-us").parse().unwrap_or_else(|_| {
                    eprintln!("--min-mean-us expects a number");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!(
                    "unknown flag {other}; supported: --out PATH --compare BASELINE \
                     --tolerance RATIO --min-mean-us US"
                );
                std::process::exit(2);
            }
        }
    }
    out
}

fn main() {
    let args = parse_args();
    edm_telemetry::set_enabled(true);
    let shots = 4096;
    let config = EnsembleConfig::default();
    let mut workload_runs = 0u64;
    for bench in workloads::ist_suite() {
        for seed in 0..2u64 {
            let device = setup::paper_device(100 + seed);
            let _ = experiments::run_workload(
                &bench,
                &device,
                &config,
                shots,
                experiments::DRIFT_SIGMA,
                seed,
            );
            workload_runs += 1;
        }
    }

    let mut stages = Vec::new();
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    for metric in registry().snapshot() {
        match metric {
            MetricSnapshot::Histogram { name, snapshot, .. } => {
                let mean_us = if snapshot.count == 0 {
                    0.0
                } else {
                    snapshot.sum as f64 / snapshot.count as f64
                };
                stages.push(perfgate::StageLatency {
                    name: name.to_string(),
                    count: snapshot.count,
                    mean_us,
                    p50_us: quantile_from_buckets(snapshot.count, &snapshot.buckets, 0.50),
                    p99_us: quantile_from_buckets(snapshot.count, &snapshot.buckets, 0.99),
                });
            }
            MetricSnapshot::Counter { name, value, .. } => {
                counters.push(perfgate::CounterValue {
                    name: name.to_string(),
                    value,
                });
            }
            MetricSnapshot::Gauge { name, value, .. } => {
                gauges.push(perfgate::GaugeValue {
                    name: name.to_string(),
                    value,
                });
            }
        }
    }

    let doc = PipelineBench {
        shots,
        workload_runs,
        stages,
        counters,
        gauges,
    };
    let json = serde_json::to_string_pretty(&doc).expect("profile document serializes");
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(&args.out, json).expect("write profile JSON");
    println!(
        "wrote {}: {} stage histogram(s), {} counter(s), {} gauge(s), {} workload run(s)",
        args.out.display(),
        doc.stages.len(),
        doc.counters.len(),
        doc.gauges.len(),
        doc.workload_runs
    );

    if let Some(baseline_path) = &args.compare {
        let baseline_json = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {}: {e}", baseline_path.display());
            std::process::exit(2);
        });
        let baseline = PipelineBench::from_json(&baseline_json).unwrap_or_else(|e| {
            eprintln!("baseline {} is not a profile: {e}", baseline_path.display());
            std::process::exit(2);
        });
        let regressions = perfgate::compare(&baseline, &doc, args.tolerance, args.min_mean_us);
        if regressions.is_empty() {
            println!(
                "perf gate: OK ({} gated stage(s) within {:.2}x, {} counter(s) equal to {})",
                baseline
                    .stages
                    .iter()
                    .filter(|s| perfgate::is_gated(s, args.min_mean_us))
                    .count(),
                args.tolerance,
                baseline.counters.len(),
                baseline_path.display()
            );
        } else {
            eprintln!(
                "perf gate: FAIL — {} regression(s) vs {} (tolerance {:.2}x):",
                regressions.len(),
                baseline_path.display(),
                args.tolerance
            );
            for r in &regressions {
                eprintln!("  {r}");
            }
            std::process::exit(EXIT_REGRESSION);
        }
    }
}
