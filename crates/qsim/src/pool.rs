//! A persistent scoped worker pool for shot-level parallelism.
//!
//! Trajectory simulation is embarrassingly parallel, but spawning fresh OS
//! threads per call (as `std::thread::scope` does) costs a spawn/join cycle
//! every time the executor runs a batch. This pool keeps a fixed set of
//! background workers parked on a condvar; dispatching a job wakes them,
//! they pull work items off a shared atomic counter, and the dispatching
//! thread participates as the final worker so a pool of `n` background
//! threads yields `n + 1`-way parallelism.
//!
//! Determinism contract: work items are *indexed*, each item's result is
//! written to its own slot, and nothing about the output depends on which
//! worker ran which item or in what order items finished. Combined with
//! the per-item seed streams from [`crate::rngstream`], this makes every
//! consumer of [`WorkerPool::map`] bit-identical across worker counts.
//!
//! A panic inside a work item is caught where it runs and fails only that
//! item's slot: the batch keeps draining, a panicking item never takes
//! down a pool thread or deadlocks the dispatcher, and nothing is
//! re-raised.
//!
//! Because workers are persistent (threads live for the process lifetime),
//! `thread_local!` state on a worker survives across batches. The parallel
//! executor exploits this to keep one set of warm simulation buffers per
//! worker: allocated on a worker's first slice and reused for every slice
//! it runs afterwards.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A fixed-size pool of parked worker threads plus the caller.
///
/// # Examples
///
/// ```
/// use qsim::pool::WorkerPool;
///
/// let pool = WorkerPool::new(3); // 3 background workers + the caller
/// let squares = pool.map(&[1u64, 2, 3, 4, 5], 4, |_, &x| x * x);
/// assert_eq!(squares, vec![Ok(1), Ok(4), Ok(9), Ok(16), Ok(25)]);
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    background: usize,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Signalled when a new job is posted (and at shutdown).
    work_ready: Condvar,
    /// Signalled when the last busy worker leaves a job.
    workers_idle: Condvar,
}

struct PoolState {
    /// Monotone job counter; workers use it to avoid re-joining a job they
    /// already finished.
    generation: u64,
    job: Option<Job>,
    /// Background workers currently inside a job's work loop. The
    /// dispatcher may not return (and so free the job's stack frame) while
    /// this is non-zero.
    busy: usize,
    shutdown: bool,
}

/// A posted job: a lifetime-erased handle to the dispatcher's work loop.
#[derive(Clone, Copy)]
struct Job {
    generation: u64,
    /// How many more background workers may still join this job.
    slots_left: usize,
    /// The dispatcher's work closure with its lifetime erased. Valid only
    /// while the dispatcher is blocked in [`WorkerPool::dispatch`]; the
    /// `busy` handshake guarantees no worker touches it after that.
    run: &'static (dyn Fn() + Sync),
}

impl WorkerPool {
    /// Creates a pool with `background` parked worker threads.
    ///
    /// The dispatching thread always participates in jobs, so `new(0)` is a
    /// valid (fully serial) pool and `new(n)` gives `n + 1`-way
    /// parallelism.
    pub fn new(background: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                generation: 0,
                job: None,
                busy: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            workers_idle: Condvar::new(),
        });
        let handles = (0..background)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qsim-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            background,
        }
    }

    /// The process-wide shared pool, sized to the machine: one background
    /// worker per available core beyond the caller's.
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| WorkerPool::new(default_threads().saturating_sub(1)))
    }

    /// Applies `f` to every item, using at most `max_workers` threads
    /// (including the caller), and returns the results in item order.
    ///
    /// The output is identical for every `max_workers` value: scheduling
    /// decides only *who* computes each `f(i, &items[i])`, never what the
    /// result slot `i` holds.
    ///
    /// A panic in `f` fails only its own item: it is caught where the
    /// item runs, the batch keeps draining, every other slot completes
    /// normally, and the pool stays usable. A panicked slot holds
    /// `Err(message)` with the stringified panic payload. This is the
    /// containment boundary fault-tolerant callers build on: a panicking
    /// work item fails one job, not the whole batch.
    ///
    /// # Panics
    ///
    /// Panics if `max_workers == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use qsim::pool::WorkerPool;
    ///
    /// let pool = WorkerPool::new(2);
    /// let out = pool.map(&[1u64, 2, 3], 3, |_, &x| {
    ///     if x == 2 { panic!("bad item"); }
    ///     x * 10
    /// });
    /// assert_eq!(out[0], Ok(10));
    /// assert_eq!(out[1], Err("bad item".to_string()));
    /// assert_eq!(out[2], Ok(30));
    /// ```
    pub fn map<T, R, F>(&self, items: &[T], max_workers: usize, f: F) -> Vec<Result<R, String>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        assert!(max_workers > 0, "need at least one worker");
        let run = |i: usize| {
            catch_unwind(AssertUnwindSafe(|| f(i, &items[i])))
                .map_err(|p| panic_message(p.as_ref()))
        };
        let total = items.len();
        if total <= 1 || max_workers == 1 || self.background == 0 {
            return (0..total).map(run).collect();
        }

        let mut slots: Vec<Option<Result<R, String>>> = Vec::with_capacity(total);
        slots.resize_with(total, || None);
        let writer = SlotWriter(slots.as_mut_ptr());
        let next = AtomicUsize::new(0);
        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= total {
                break;
            }
            // SAFETY: `i` is unique per fetch_add claim, so each slot is
            // written by exactly one worker; the dispatch handshake orders
            // all writes before `slots` is read below.
            unsafe { writer.write(i, run(i)) }
        };
        self.dispatch(&work, max_workers - 1);
        slots
            .into_iter()
            .map(|s| s.expect("every work item writes its slot"))
            .collect()
    }

    /// Posts `work` for up to `extra_workers` background threads, runs it
    /// on the calling thread too, and blocks until no worker can still be
    /// inside it.
    ///
    /// `work` must be drain-style: callable concurrently from many
    /// threads, returning once no work remains. It must not unwind (the
    /// per-item `catch_unwind` in [`WorkerPool::map`] guarantees this; a
    /// defensive catch here keeps the handshake sound regardless).
    fn dispatch(&self, work: &(dyn Fn() + Sync), extra_workers: usize) {
        let extra = extra_workers.min(self.background);
        if extra == 0 {
            work();
            return;
        }
        // SAFETY: the erased reference outlives its use — this function
        // does not return until `busy == 0` and the job slot is cleared,
        // after which no worker holds (or can re-acquire) `run`.
        let run: &'static (dyn Fn() + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(work) };
        let my_generation;
        {
            let mut st = self.shared.state.lock().expect("pool state lock");
            st.generation += 1;
            my_generation = st.generation;
            st.job = Some(Job {
                generation: my_generation,
                slots_left: extra,
                run,
            });
        }
        self.shared.work_ready.notify_all();

        let mine = catch_unwind(AssertUnwindSafe(work));

        let mut st = self.shared.state.lock().expect("pool state lock");
        if st.job.is_some_and(|j| j.generation == my_generation) {
            st.job = None;
        }
        while st.busy > 0 {
            st = self.shared.workers_idle.wait(st).expect("pool state lock");
        }
        drop(st);
        if let Err(p) = mine {
            resume_unwind(p);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if let Ok(mut st) = self.shared.state.lock() {
            st.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut last_generation = 0u64;
    let mut guard = shared.state.lock().expect("pool state lock");
    loop {
        if guard.shutdown {
            return;
        }
        let claimed = match &mut guard.job {
            Some(job) if job.generation != last_generation && job.slots_left > 0 => {
                job.slots_left -= 1;
                last_generation = job.generation;
                Some(job.run)
            }
            _ => None,
        };
        match claimed {
            Some(run) => {
                guard.busy += 1;
                drop(guard);
                run();
                guard = shared.state.lock().expect("pool state lock");
                guard.busy -= 1;
                if guard.busy == 0 {
                    shared.workers_idle.notify_all();
                }
            }
            None => {
                guard = shared.work_ready.wait(guard).expect("pool state lock");
            }
        }
    }
}

/// Shares a result-slot base pointer with workers. Each claimed index is
/// written exactly once, so concurrent writers never alias.
struct SlotWriter<R>(*mut Option<R>);

// SAFETY: workers write disjoint slots (unique indices from `fetch_add`)
// and results cross threads, hence the `R: Send` bound; the dispatcher
// reads the slots only after the busy-handshake mutex orders all writes.
unsafe impl<R: Send> Sync for SlotWriter<R> {}

impl<R> SlotWriter<R> {
    /// # Safety
    ///
    /// `i` must be in bounds and claimed by exactly one worker.
    unsafe fn write(&self, i: usize, value: R) {
        *self.0.add(i) = Some(value);
    }
}

/// Extracts a human-readable message from a caught panic payload.
///
/// `panic!("literal")` carries `&str`; `panic!("{x}")` carries `String`;
/// anything else (custom payloads) gets a fixed placeholder.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_string()
    }
}

/// The machine's usable thread count (`available_parallelism`, min 1).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicU64;

    /// `pool.map` with every item required to complete.
    fn map_ok<T: Sync, R: Send>(
        pool: &WorkerPool,
        items: &[T],
        max_workers: usize,
        f: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<R> {
        let out = pool.map(items, max_workers, f);
        out.into_iter()
            .map(|r| r.expect("no item panics"))
            .collect()
    }

    #[test]
    fn map_preserves_item_order() {
        let pool = WorkerPool::new(3);
        let items: Vec<u64> = (0..257).collect();
        let out = map_ok(&pool, &items, 4, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3
        });
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let pool = WorkerPool::new(7);
        let items: Vec<u64> = (0..100).collect();
        let reference: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 0xA5).collect();
        for workers in [1, 2, 4, 8, 64] {
            let out = map_ok(&pool, &items, workers, |_, &x| x.wrapping_mul(x) ^ 0xA5);
            assert_eq!(out, reference, "workers = {workers}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let pool = WorkerPool::new(3);
        let hits: Vec<AtomicU64> = (0..500).map(|_| AtomicU64::new(0)).collect();
        map_ok(&pool, &(0..500usize).collect::<Vec<_>>(), 4, |_, &i| {
            hits[i].fetch_add(1, Ordering::Relaxed)
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn background_workers_actually_participate() {
        let pool = WorkerPool::new(2);
        // Many slow-ish items so parked workers have time to wake and join.
        let ids = map_ok(&pool, &[(); 64], 3, |_, ()| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            format!("{:?}", std::thread::current().id())
        });
        let distinct: BTreeSet<_> = ids.into_iter().collect();
        // The caller always participates; on any real scheduler at least
        // one background worker joins a 64-item batch of 2ms jobs.
        assert!(distinct.len() >= 2, "only {} thread(s) ran", distinct.len());
    }

    #[test]
    fn serial_pool_still_completes() {
        let pool = WorkerPool::new(0);
        let out = map_ok(&pool, &[10u64, 20, 30], 8, |_, &x| x + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = WorkerPool::new(2);
        for round in 0..20u64 {
            let out = map_ok(&pool, &[round, round + 1], 3, |_, &x| x * 2);
            assert_eq!(out, vec![round * 2, round * 2 + 2]);
        }
    }

    #[test]
    fn panics_fail_only_their_own_item() {
        let pool = WorkerPool::new(2);
        let items: Vec<usize> = (0..32).collect();
        let out = pool.map(&items, 3, |_, &i| {
            if i % 7 == 3 {
                panic!("unlucky {i}");
            }
            i * 2
        });
        for (i, slot) in out.iter().enumerate() {
            if i % 7 == 3 {
                assert_eq!(*slot, Err(format!("unlucky {i}")));
            } else {
                assert_eq!(*slot, Ok(i * 2));
            }
        }
        // The pool is immediately reusable — no poisoning, no re-raise.
        assert_eq!(pool.map(&[4u64], 3, |_, &x| x + 1), vec![Ok(5)]);
    }

    #[test]
    fn serial_path_also_contains_panics() {
        let pool = WorkerPool::new(0);
        let out = pool.map(&[1u32, 2], 1, |_, &x| {
            if x == 1 {
                panic!("first");
            }
            x
        });
        assert_eq!(out, vec![Err("first".to_string()), Ok(2)]);
    }

    #[test]
    fn panic_message_extracts_known_payloads() {
        let p = catch_unwind(|| panic!("plain literal")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "plain literal");
        let n = 7;
        let p = catch_unwind(move || panic!("formatted {n}")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "formatted 7");
        let p = catch_unwind(|| std::panic::panic_any(42u64)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "<non-string panic>");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let pool = WorkerPool::new(1);
        let _ = pool.map(&[1], 0, |_, &x: &i32| x);
    }

    #[test]
    fn empty_input_is_fine() {
        let pool = WorkerPool::new(1);
        let out = pool.map(&[] as &[u32], 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = WorkerPool::global() as *const WorkerPool;
        let b = WorkerPool::global() as *const WorkerPool;
        assert_eq!(a, b);
        assert!(default_threads() >= 1);
    }
}
