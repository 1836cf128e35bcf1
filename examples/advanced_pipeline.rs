//! The full toolbox on one workload: EDM with the footnote-2 uniformity
//! filter dropping noise-drowned members, stacked with readout-error
//! unfolding and bootstrap confidence intervals, on a heavy-hex
//! (guadalupe-16) device rather than melbourne.
//!
//! ```sh
//! cargo run --release --example advanced_pipeline
//! ```

use edm_core::analysis;
use edm_core::mitigate::{unfold, ReadoutConfusion};
use edm_core::{filter, metrics, EdmRunner, EnsembleConfig, ProbDist};
use qbench::bv;
use qdevice::{presets, DeviceModel};
use qmap::Transpiler;
use qsim::NoisySimulator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let key = 0b10110u64;
    let circuit = bv::bv(key, 5);

    // A heavy-hex device: EDM is not melbourne-specific.
    let device = DeviceModel::synthesize(presets::guadalupe16(), 8);
    let cal = device.calibration();
    let transpiler = Transpiler::new(device.topology(), &cal);
    let backend = NoisySimulator::from_device(&device);
    let config = EnsembleConfig {
        uniformity_filter: Some(filter::DEFAULT_RSD_THRESHOLD),
        ..EnsembleConfig::default()
    };
    let runner = EdmRunner::new(&transpiler, &backend, config);

    // 1. EDM run; the uniformity filter keeps noise-drowned members out
    //    of the merges.
    let result = runner.run(&circuit, 16_384, 5)?;
    println!(
        "EDM run: {} members, filtered out (uniform-looking): {:?}",
        result.members.len(),
        result.filtered_out
    );
    println!(
        "EDM merge: PST {:.3}, IST {:.3}",
        metrics::pst(&result.edm, key),
        result.ist_edm(key)
    );

    // 2. Stack readout unfolding per member, then re-merge.
    let mitigated: Vec<ProbDist> = result
        .members
        .iter()
        .map(|m| {
            let confusion = ReadoutConfusion::for_circuit(&m.member.physical, device.truth());
            unfold(&m.dist, &confusion)
        })
        .collect();
    let merged = ProbDist::merge_uniform(&mitigated);
    println!(
        "after readout unfolding: PST {:.3}, IST {:.3}",
        metrics::pst(&merged, key),
        metrics::ist(&merged, key)
    );

    // 3. Statistical confidence: bootstrap the IST of the pooled counts.
    let mut pooled = qsim::Counts::new(circuit.num_clbits());
    for m in &result.members {
        for (k, n) in m.counts.iter() {
            for _ in 0..n {
                pooled.record(k);
            }
        }
    }
    let ci = analysis::ist_confidence(&pooled, key, 300, 0.05, 11);
    println!(
        "pooled IST = {:.3}, 95% bootstrap CI [{:.3}, {:.3}]{}",
        ci.estimate,
        ci.lo,
        ci.hi,
        if ci.confidently_above_one() {
            "  -> answer inferable with confidence"
        } else {
            ""
        }
    );

    // 4. Where do the residual errors live?
    let spectrum = analysis::error_spectrum(&merged, key);
    println!(
        "error spectrum by Hamming distance from the key: {:?}",
        spectrum
            .mass
            .iter()
            .map(|p| (p * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
    println!(
        "readout-bias indicator (0.5 = unbiased): {:.3}",
        spectrum.bias_toward_zero()
    );
    Ok(())
}
