//! Verifies the zero-allocation contract of the steady-state shot loop.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! warms a [`qsim::SimScratch`] + `Counts` pair with one run and then
//! repeats the identical run, asserting that not a single heap allocation
//! happens during the repeat — including shots that resume from a
//! clean-prefix checkpoint, shots that share a trajectory, and runs longer
//! than one shot window. This is the whole file on purpose: the
//! global allocator hook is process-wide, so the test binary holds exactly
//! one test and no test-harness concurrency can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use qcir::Circuit;
use qdevice::{presets, DeviceModel};
use qsim::{Counts, NoisySimulator, SimScratch};

/// System allocator with an allocation-event counter (`alloc` and
/// `realloc`; frees are not counted — releasing memory is allowed, taking
/// more is what the contract forbids).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A 3-qubit plan long enough for clean-prefix checkpoints, so fired-error
/// shots resume mid-circuit (copying a checkpoint into the scratch state)
/// instead of replaying from |000⟩.
fn checkpointed_plan(sim: &NoisySimulator<'_>) -> qsim::CompiledCircuit {
    let mut c = Circuit::new(3, 3);
    c.h(0).cx(0, 1).t(1).h(2).cx(1, 2);
    for i in 0..12 {
        c.rx(0, 0.1 * i as f64).cx(0, 1).rz(1, 0.3).cx(1, 2).h(2);
    }
    c.measure_all();
    let plan = sim.compile(&c).expect("circuit is physical");
    assert!(plan.num_checkpoints() > 0);
    plan
}

#[test]
fn steady_state_shot_loop_does_not_allocate() {
    let device = DeviceModel::synthesize(presets::melbourne14(), 42);
    let sim = NoisySimulator::from_device(&device);
    let plan = checkpointed_plan(&sim);

    // One window of shots, then several: 5000 shots run as four full
    // windows and a partial one, whose buffers were all sized by the
    // warm-up's windows.
    for shots in [1024, 5000] {
        let mut scratch = SimScratch::new();
        let mut counts = Counts::new(plan.num_clbits());

        // Warm-up: grows the scratch buffers to this plan's sizes and
        // seeds the histogram's key set (an identical rerun below revisits
        // exactly the same outcomes, so `Counts` never inserts a new node).
        plan.run_into(shots, 7, &mut scratch, &mut counts);

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let work = plan.run_into(shots, 7, &mut scratch, &mut counts);
        let during = ALLOCATIONS.load(Ordering::Relaxed) - before;

        assert_eq!(counts.shots(), 2 * shots);
        assert!(work.skipped_ops > 0, "no shot resumed from a checkpoint");
        assert!(
            work.distinct_trajectories < work.replayed_shots,
            "no shots shared a trajectory"
        );
        assert_eq!(
            during, 0,
            "steady-state shot loop performed {during} heap allocations over {shots} shots"
        );
    }
}
