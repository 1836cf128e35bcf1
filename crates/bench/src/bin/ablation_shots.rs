//! Ablation: uniform vs ESP-weighted shot allocation across the ensemble.
//!
//! The paper divides trials equally among members (§5.2). A tempting
//! alternative is to give ESP-stronger members more trials — this experiment
//! measures whether that helps or hurts, given that ESP is an imperfect
//! predictor (Fig. 8).

use edm_bench::{args, experiments, setup, table};
use edm_core::{EnsembleConfig, ShotAllocation};
use qbench::registry;

fn main() {
    let run = args::parse();
    println!(
        "median of {} rounds, {} trials per policy per round",
        run.rounds, run.shots
    );
    table::header(&[
        ("workload", 9),
        ("ist_base", 9),
        ("edm_uniform", 12),
        ("edm_espweighted", 16),
    ]);
    // Rows won by uniform, won by ESP-weighted, and tied, compared at the
    // printed precision so the verdict matches the table.
    let (mut uniform_wins, mut weighted_wins, mut ties) = (0, 0, 0);
    for bench in registry::ist_suite() {
        let device = setup::paper_device(run.seed);
        let mut cells = vec![(bench.name.to_string(), 9)];
        let mut base_recorded = false;
        for allocation in [ShotAllocation::Uniform, ShotAllocation::EspWeighted] {
            let config = EnsembleConfig {
                shot_allocation: allocation,
                ..EnsembleConfig::default()
            };
            let r = experiments::median_round(
                &bench,
                &device,
                &config,
                run.shots,
                experiments::DRIFT_SIGMA,
                run.rounds,
                run.seed,
            );
            if !base_recorded {
                cells.push((table::f(r.best_estimated.ist, 3), 9));
                base_recorded = true;
            }
            cells.push((
                table::f(r.edm.ist, 3),
                if allocation == ShotAllocation::Uniform {
                    12
                } else {
                    16
                },
            ));
        }
        let ist = |cell: usize| cells[cell].0.parse::<f64>().expect("printed IST");
        match ist(2).total_cmp(&ist(3)) {
            std::cmp::Ordering::Greater => uniform_wins += 1,
            std::cmp::Ordering::Less => weighted_wins += 1,
            std::cmp::Ordering::Equal => ties += 1,
        }
        table::row(&cells);
    }
    println!("\nEDM IST: uniform allocation wins {uniform_wins} workloads, ESP-weighted");
    println!("allocation wins {weighted_wins}, and {ties} tied.");
    match (uniform_wins, weighted_wins) {
        (_, 0) => {
            println!("uniform allocation keeps the wrong-answer attenuation factor at K for");
            println!("every member; weighting by (drift-corrupted) ESP re-concentrates trials");
            println!("and with them the correlated mistakes.");
        }
        (0, _) => println!("weighting by ESP helps despite the drift-corrupted estimate."),
        _ => {
            println!("neither policy dominates: weighting by drift-corrupted ESP helps where");
            println!("it finds the truly better members and hurts where it re-concentrates");
            println!("trials, and with them the correlated mistakes.");
        }
    }
}
