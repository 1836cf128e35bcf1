//! A batch holds the pass-1 draws of one wave of slices at a time, not of
//! all its shots: doubling a job's shots must not raise the peak heap.
//!
//! A `#[global_allocator]` tracks live and peak bytes. It is process-wide,
//! so this binary holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use qcir::Circuit;
use qdevice::{presets, DeviceModel};
use qsim::parallel::{BatchJob, SLICE_SHOTS, WAVE_SLICES};
use qsim::NoisySimulator;

/// System allocator that tracks live bytes and their high-water mark.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Bytes the heap grew by at its peak while `f` ran.
fn peak_growth(f: impl FnOnce()) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed) - before
}

#[test]
fn batch_heap_does_not_grow_with_shots() {
    let device = DeviceModel::synthesize(presets::melbourne14(), 42);
    let sim = NoisySimulator::from_device(&device);
    // Deep enough that most shots fire an error and are deferred.
    let mut c = Circuit::new(3, 3);
    for _ in 0..10 {
        c.h(0).cx(0, 1).cx(1, 2);
    }
    c.measure_all();

    let wave = WAVE_SLICES as u64 * SLICE_SHOTS;
    for threads in [1, 2] {
        let run = |shots: u64| {
            let job = BatchJob::new(&c, shots, 7);
            peak_growth(|| {
                let counts = sim.run_batch(&[job], threads).pop().unwrap().unwrap();
                assert_eq!(counts.shots(), shots);
            })
        };
        // Warm the pool and its workers' scratch first.
        run(wave);
        let two = run(2 * wave);
        let four = run(4 * wave);
        // Two more waves hold no more draws; only the layout's per-slice
        // entries (a few bytes each) grow. A wave's deferred shots alone
        // are over a megabyte here.
        assert!(
            four < two + 64 * 1024,
            "{threads} thread(s): peak grew from {two} to {four} bytes"
        );
    }
}
