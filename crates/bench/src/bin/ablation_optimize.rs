//! Ablation: effect of the peephole optimizer (inverse-pair cancellation +
//! rotation fusion) on gate counts and ESP across the benchmark suite.

use edm_bench::{args, experiments, setup, table};
use qbench::registry;
use qmap::{optimize, Transpiler};

fn main() {
    let run = args::parse();
    let device = setup::paper_device(run.seed);
    let cal = experiments::compile_view(&device, 0.0, run.seed);
    let t = Transpiler::new(device.topology(), &cal);

    table::header(&[
        ("workload", 9),
        ("gates", 6),
        ("gates_opt", 10),
        ("esp", 7),
        ("esp_opt", 8),
    ]);
    let (mut shorter, mut rose, mut held, mut fell) = (0, 0, 0, Vec::new());
    for bench in registry::all() {
        let raw = bench.circuit.decomposed();
        let opt = optimize::optimize(&raw);
        let esp_raw = t.transpile(&raw).expect("transpiles").esp;
        let esp_opt = t.transpile(&opt).expect("transpiles").esp;
        shorter += usize::from(opt.len() < raw.len());
        match esp_opt.total_cmp(&esp_raw) {
            std::cmp::Ordering::Greater => rose += 1,
            std::cmp::Ordering::Equal => held += 1,
            std::cmp::Ordering::Less => fell.push(bench.name),
        }
        table::row(&[
            (bench.name.to_string(), 9),
            (raw.len().to_string(), 6),
            (opt.len().to_string(), 10),
            (table::f(esp_raw, 4), 7),
            (table::f(esp_opt, 4), 8),
        ]);
    }
    println!("\nadjacent inverse pairs (e.g. the CX pairs between the adder's Toffoli");
    println!("blocks) are removed: fewer gates means fewer error sites.");
    let total = rose + held + fell.len();
    println!("the optimizer shortened {shorter} of {total} workloads; ESP rose on {rose},");
    println!("held on {held} and fell on {}.", fell.len());
    if !fell.is_empty() {
        println!(
            "ESP fell on {}: placement is not monotone in gate count when the",
            fell.join(", ")
        );
        println!("interaction graph changes shape.");
    }
}
