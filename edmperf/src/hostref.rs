//! Host speed, measured with a fixed slice of the benchmark's own work.
//!
//! The 2-core host the benchmark was built on changes speed by up to 2x
//! over tens of seconds, because other tenants share its cores. A run
//! times a fixed slice of work between its own operations and scales its
//! rates and latencies to a host on which the median slice takes
//! [`NOMINAL_MS`].
//! The slice is the benchmark's code, not the program's, so a change to
//! the program moves the scaled figures as much as the raw ones.

use std::hint::black_box;
use std::time::Instant;

/// The slice time scaled figures refer to: about the typical slice on the
/// host the benchmark was built on.
pub const NOMINAL_MS: f64 = 1.1;

/// Amplitudes of the state a slice works on: 13 qubits, 128 KiB.
const AMPLITUDES: usize = 1 << 13;

/// Work shaped like a state-vector simulation: four sweeps of 2x2
/// rotations over every qubit of the state in `re` and `im`.
fn work(re: &mut [f64], im: &mut [f64]) {
    let n = re.len();
    re.fill(1.0 / (n as f64).sqrt());
    im.fill(0.0);
    let (c, s) = (0.6f64, 0.8f64);
    for _ in 0..4 {
        for q in 0..n.trailing_zeros() {
            let m = 1usize << q;
            for i in (0..n).filter(|i| i & m == 0) {
                let j = i | m;
                let (ar, ai, br, bi) = (re[i], im[i], re[j], im[j]);
                re[i] = c * ar - s * bi;
                im[i] = c * ai + s * br;
                re[j] = c * br - s * ai;
                im[j] = c * bi + s * ar;
            }
        }
        black_box((&mut *re, &mut *im));
    }
}

/// Host speed over a stretch of a run: the median of the slices timed in
/// it. Each thread of a slice works on its own state, allocated and
/// written once beforehand, so a slice times no page faults.
#[derive(Debug, Default, Clone)]
pub struct Meter {
    states: Vec<(Vec<f64>, Vec<f64>)>,
    slices_ms: Vec<f64>,
}

impl Meter {
    /// Times `slices` slices, each `threads` threads doing the work at
    /// once, as the workloads simulate on `threads` threads.
    pub fn sample(&mut self, threads: usize, slices: u32) {
        self.states
            .resize_with(threads.max(1), || (vec![1.0; AMPLITUDES], vec![1.0; AMPLITUDES]));
        for _ in 0..slices {
            let t0 = Instant::now();
            std::thread::scope(|s| {
                let (first, rest) = self.states.split_first_mut().expect("one state or more");
                for (re, im) in rest {
                    s.spawn(move || work(re, im));
                }
                work(&mut first.0, &mut first.1);
            });
            self.slices_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }

    fn median_ms(&self) -> f64 {
        if self.slices_ms.is_empty() {
            NOMINAL_MS
        } else {
            crate::report::median(&self.slices_ms)
        }
    }

    /// How much slower than nominal the host ran: a raw rate times this,
    /// or a raw time divided by it, is the figure on the nominal host.
    pub fn factor(&self) -> f64 {
        self.median_ms() / NOMINAL_MS
    }
}
