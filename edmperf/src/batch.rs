//! The batch workloads, `paper-ist` and `compile-scaling`.
//!
//! One run compiles a circuit cold (fresh `Transpiler`, no cache), builds
//! its K = 4 ensemble, executes the best-mapping baseline and the ensemble
//! in one `execute_batch` call, and merges the ensemble. One client thread
//! runs runs back to back (a closed loop). The loop runs whole cycles over
//! the workload's items, so every measurement covers the same circuit mix.

use crate::hostref::Meter;
use crate::report::{self, Metrics, Tally};
use crate::span;
use edm_core::{
    assemble_result, diversify, metrics, plan_run, Backend, EdmResult, EnsembleConfig,
    EnsembleMember, ProbDist, RunHealth, ShotAllocation,
};
use qcir::Circuit;
use qdevice::{mapper, presets, Calibration, DeviceModel, Topology};
use qmap::Transpiler;
use qsim::NoisySimulator;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Seed offset of the ensemble relative to the baseline, as in the
/// repository's paper experiments (`edm_bench::experiments`).
const ENSEMBLE_SEED_OFFSET: u64 = 0x5EED;

/// Devices the `paper-ist` items are spread over.
const PAPER_DEVICES: u64 = 8;

/// Root of every device calibration. Devices are fixed rather than drawn
/// from the workload seed: the simulation work of a run depends on the
/// device's error rates, and across device seeds it varied by 2.6x, which
/// would make runs with different workload seeds incomparable.
pub const DEVICE_SEED: u64 = 0xED_2019;

/// How a batch workload is sized.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub shots: u64,
    pub threads: usize,
    /// Run seeds per item with a unique answer in the quality set that
    /// `ist_gain` and `top_correct_share` are computed over.
    pub quality_seeds: u64,
    /// Scale rates and latencies to the nominal host (see `hostref`).
    /// Only a workload whose time is almost all simulation on `threads`
    /// threads tracks the host-speed slice; others are reported raw.
    pub host_scaled: bool,
}

struct Item {
    label: String,
    device: usize,
    circuit: Circuit,
    /// Every outcome of maximal noise-free probability.
    answers: Vec<u64>,
}

/// Devices, compile-time calibrations and items of one workload.
pub struct Env {
    devices: Vec<DeviceModel>,
    cals: Vec<Calibration>,
    items: Vec<Item>,
    /// Item indices of one cycle, in run order.
    cycle: Vec<usize>,
    seed: u64,
}

/// Every outcome of maximal noise-free probability.
pub fn answers(circuit: &Circuit) -> Vec<u64> {
    let dist = qsim::ideal::probabilities(circuit).expect("workload circuits simulate ideally");
    let best = dist.values().copied().fold(0.0, f64::max);
    dist.into_iter()
        .filter(|&(_, p)| p >= best - 1e-9)
        .map(|(k, _)| k)
        .collect()
}

impl Item {
    /// The noise-free answer, when it is unique.
    fn answer(&self) -> Option<u64> {
        match self.answers[..] {
            [answer] => Some(answer),
            _ => None,
        }
    }
}

fn item(label: String, device: usize, circuit: Circuit) -> Item {
    Item {
        answers: answers(&circuit),
        label,
        device,
        circuit,
    }
}

/// The six IST-suite circuits on each of `PAPER_DEVICES` paper-profile
/// melbourne14 devices. Each device gets a drifted compile-time
/// calibration, as in the paper's experiments.
pub fn paper_env(seed: u64) -> Env {
    let suite = qbench::registry::ist_suite();
    let mut devices = Vec::new();
    let mut cals = Vec::new();
    let mut items = Vec::new();
    for d in 0..PAPER_DEVICES {
        let device_seed = qsim::rngstream::fork(DEVICE_SEED, d);
        let device = edm_bench::setup::paper_device(device_seed);
        cals.push(edm_bench::experiments::compile_view(
            &device,
            edm_bench::experiments::DRIFT_SIGMA,
            device_seed,
        ));
        devices.push(device);
        for b in &suite {
            items.push(item(
                format!("{}@melbourne14#{d}", b.name),
                d as usize,
                b.circuit.clone(),
            ));
        }
    }
    // Interleave devices and circuits so every prefix of a cycle mixes both.
    let n = suite.len();
    let mut cycle = Vec::new();
    for round in 0..n {
        for d in 0..PAPER_DEVICES as usize {
            cycle.push(d * n + (round + d) % n);
        }
    }
    Env {
        devices,
        cals,
        items,
        cycle,
        seed,
    }
}

/// qaoa-ring-10 and ghz-12 on tokyo20 (exhaustive VF2), qft-8 on eagle127
/// (FDLS), and a sparse-secret BV on melbourne14. The BV secret leaves
/// four of six data qubits idle; such patterns make the embedding search
/// enumerate every placement of the idle qubits, which is why the fleet's
/// cold mix leaves them out and this workload measures them instead.
pub fn compile_env(seed: u64) -> Env {
    let fork = |k: u64| qsim::rngstream::fork(DEVICE_SEED, 100 + k);
    let devices = vec![
        DeviceModel::synthesize(presets::tokyo20(), fork(0)),
        // A calibration on which qft-8 routes onto 8 qubits. On 2 of 12
        // calibrations tried, placement spreads it over 14-15 qubits and
        // the 256-shot execution alone takes seconds.
        DeviceModel::synthesize(presets::eagle127(), fork(7)),
        DeviceModel::synthesize(presets::melbourne14(), fork(2)),
    ];
    let cals = devices.iter().map(DeviceModel::calibration).collect();
    let scaling = |name: &str| qbench::registry::scaling_by_name(name).expect("known workload");
    let items = vec![
        item("qaoa-ring-10@tokyo20".into(), 0, scaling("qaoa-ring-10")),
        item("ghz-12@tokyo20".into(), 0, scaling("ghz-12")),
        item("qft-8@eagle127".into(), 1, scaling("qft-8")),
        item(
            "bv-6-sparse@melbourne14".into(),
            2,
            qbench::bv::bv(0b100100, 6),
        ),
    ];
    Env {
        devices,
        cals,
        items,
        cycle: vec![0, 1, 2, 3],
        seed,
    }
}

impl Env {
    /// The run seed of item `i` in quality round `r`.
    fn run_seed(&self, i: usize, r: u64) -> u64 {
        qsim::rngstream::fork(qsim::rngstream::fork(self.seed, 1000 + i as u64), r)
    }

    /// Starts the shared worker pool and touches every device's simulator,
    /// so pool spawn is paid in set-up.
    pub fn warm(&self, threads: usize) {
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure_all();
        for device in &self.devices {
            let sim = NoisySimulator::from_device(device);
            let physical = Transpiler::new(device.topology(), &device.calibration())
                .transpile(&c)
                .expect("a Bell pair maps onto every preset")
                .physical;
            let jobs = [qsim::parallel::BatchJob::new(&physical, 2048, 1)];
            for r in sim.run_batch(&jobs, threads) {
                r.expect("warm-up batch runs");
            }
        }
    }
}

/// Exact work counts of one run, gathered only on request: they take two
/// extra calls (the embedding search and the simulator compile).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counts {
    embeddings: u64,
    members: u64,
    fused_ops: u64,
    prims: u64,
    event_sites: u64,
}

impl Counts {
    fn add(&mut self, o: Counts) {
        self.embeddings += o.embeddings;
        self.members += o.members;
        self.fused_ops += o.fused_ops;
        self.prims += o.prims;
        self.event_sites += o.event_sites;
    }
}

/// What one run produced, reduced to what the checks compare.
struct Outcome {
    /// [`digest`] of the run.
    digest: u64,
    edm: ProbDist,
    baseline: ProbDist,
    /// The EDM top outcome is a noise-free answer.
    top_correct: bool,
    members: Vec<EnsembleMember>,
    counts: Option<Counts>,
    shots: u64,
}

/// FNV-1a over the baseline histogram, every member histogram and both
/// merged distributions, bit for bit.
fn digest(baseline: &qsim::Counts, result: &EdmResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    let histograms = std::iter::once(baseline).chain(result.members.iter().map(|m| &m.counts));
    for counts in histograms {
        for (k, v) in counts.iter() {
            eat(k);
            eat(v);
        }
    }
    for d in [&result.edm, &result.wedm] {
        for (k, p) in d.iter() {
            eat(k);
            eat(p.to_bits());
        }
    }
    h
}

pub fn is_distribution(d: &ProbDist) -> bool {
    let mut sum = 0.0;
    for (_, p) in d.iter() {
        if !(p.is_finite() && p >= 0.0) {
            return false;
        }
        sum += p;
    }
    (sum - 1.0).abs() < 1e-9
}

/// The embedding pattern `diversify` searches for: the physical circuit's
/// active qubits, densely re-indexed, with its interaction edges.
fn pattern(physical: &Circuit, device_qubits: u32) -> Topology {
    let active: Vec<u32> = physical.active_qubits().iter().map(|q| q.index()).collect();
    let mut pos = vec![u32::MAX; device_qubits as usize];
    for (i, &q) in active.iter().enumerate() {
        pos[q as usize] = i as u32;
    }
    let edges: Vec<(u32, u32)> = physical
        .interaction_edges()
        .into_iter()
        .map(|(a, b)| (pos[a.index() as usize], pos[b.index() as usize]))
        .collect();
    Topology::new(active.len() as u32, &edges)
}

/// One run of item `i` with run seed `seed`. With `cached` members the
/// compile steps are skipped (quality rounds reuse a cold run's ensemble).
/// With `count` (and no `cached` members) the run also gathers its exact
/// work counts.
fn run_item(
    env: &Env,
    i: usize,
    seed: u64,
    spec: &Spec,
    threads: usize,
    cached: Option<&[EnsembleMember]>,
    count: bool,
) -> Result<Outcome, String> {
    let config = EnsembleConfig::default();
    let item = &env.items[i];
    let device = &env.devices[item.device];
    let cal = &env.cals[item.device];
    let mut counts = Counts::default();
    let count = count && cached.is_none();

    let _run = span::span("run");
    let members = match cached {
        Some(m) => m.to_vec(),
        None => {
            let transpiler = Transpiler::new(device.topology(), cal);
            let baseline = {
                let _s = span::span("qmap.transpile");
                transpiler.transpile(&item.circuit)
            }
            .map_err(|e| format!("{}: transpile: {e}", item.label))?;
            if count {
                let _s = span::span("qdevice.embed");
                let p = pattern(&baseline.physical, device.topology().num_qubits());
                let set = mapper::enumerate_embeddings(
                    &p,
                    transpiler.effective_topology(),
                    config.max_candidates,
                    transpiler.mapper_selection(),
                );
                counts.embeddings = set.embeddings.len() as u64;
            }
            let _s = span::span("edm_core.diversify");
            diversify(&transpiler, &baseline.physical, &config)
                .map_err(|e| format!("{}: diversify: {e}", item.label))?
        }
    };
    counts.members = members.len() as u64;

    let sim = NoisySimulator::from_device(device);
    let base_plan = plan_run(
        members[..1].to_vec(),
        spec.shots,
        seed,
        ShotAllocation::Uniform,
    )
    .map_err(|e| e.to_string())?;
    let plan = plan_run(
        members.clone(),
        spec.shots,
        seed.wrapping_add(ENSEMBLE_SEED_OFFSET),
        config.shot_allocation,
    )
    .map_err(|e| e.to_string())?;
    let mut jobs = base_plan.jobs();
    jobs.extend(plan.jobs());
    if count {
        let _s = span::span("qsim.compile");
        for job in &jobs {
            let compiled = sim.compile(job.circuit).map_err(|e| e.to_string())?;
            counts.fused_ops += compiled.num_fused_ops() as u64;
            counts.prims += compiled.num_prims() as u64;
            counts.event_sites += compiled.num_event_sites() as u64;
        }
    }
    let results = {
        let _s = span::span("qsim.execute");
        sim.execute_batch(&jobs, threads)
    };
    let shots: u64 = jobs.iter().map(|j| j.shots).sum();
    drop(jobs);

    let mut results = results.into_iter();
    let baseline = results
        .next()
        .expect("one result per job")
        .map_err(|e| format!("{}: baseline: {e}", item.label))?;
    if baseline.shots() != base_plan.shares[0] {
        return Err(format!("{}: baseline histogram lost shots", item.label));
    }
    let raw: Vec<_> = results.collect();
    for (r, &share) in raw.iter().zip(&plan.shares) {
        match r {
            Ok(c) if c.shots() == share => {}
            Ok(_) => return Err(format!("{}: member histogram lost shots", item.label)),
            Err(e) => return Err(format!("{}: member: {e}", item.label)),
        }
    }
    let planned = plan.shares.len();
    let result = {
        let _s = span::span("edm_core.merge");
        assemble_result(plan.members, raw, &config)
    }
    .map_err(|e| format!("{}: merge: {e}", item.label))?;
    if result.health != RunHealth::Full || result.members.len() != planned {
        return Err(format!("{}: ensemble lost members", item.label));
    }
    if !is_distribution(&result.edm) || !is_distribution(&result.wedm) {
        return Err(format!(
            "{}: EDM/WEDM output is not a distribution",
            item.label
        ));
    }

    let top_correct = result
        .edm
        .most_probable()
        .is_some_and(|top| item.answers.contains(&top));

    Ok(Outcome {
        digest: digest(&baseline, &result),
        baseline: ProbDist::from_counts(&baseline),
        edm: result.edm,
        top_correct,
        members,
        counts: count.then_some(counts),
        shots,
    })
}

/// Timings and results of one closed-loop phase. Run times leave out the
/// host-speed slices timed between runs.
struct Phase {
    runs: u64,
    /// Sum of the run times.
    busy: Duration,
    /// Per whole cycle: the sum of its run times in seconds and how much
    /// slower than nominal the host ran between its runs (1 when the
    /// workload is not scaled).
    cycles: Vec<(f64, f64)>,
    /// Run latencies on the nominal host (scaled by their cycle's speed).
    latencies_ms: Vec<f64>,
    shots: u64,
}

impl Phase {
    /// Runs per second of the median cycle, on the nominal host when
    /// `scaled`: a slowdown of the host during one cycle does not move it.
    fn runs_per_s(&self, cycle_len: usize, scaled: bool) -> f64 {
        let secs: Vec<f64> = self
            .cycles
            .iter()
            .map(|&(s, slow)| if scaled { s / slow } else { s })
            .collect();
        cycle_len as f64 / report::median(&secs)
    }
}

/// Host-speed slices timed after a run: about one per 100 ms of run time,
/// so the slices cost under 2% of the loop.
fn slices_after(run: Duration) -> u32 {
    (run.as_millis() / 100).clamp(1, 20) as u32
}

/// State shared by the phases of one workload: the first result of every
/// (item, round) pair and the first ensemble of every item.
#[derive(Default)]
struct Ledger {
    digests: BTreeMap<(usize, u64), u64>,
    quality: BTreeMap<(usize, u64), Outcome>,
    members: BTreeMap<usize, Vec<EnsembleMember>>,
    counts: BTreeMap<usize, Counts>,
    tally: Tally,
    errors: Vec<String>,
}

impl Ledger {
    /// Records a run and returns the shots it executed; a repeated (item,
    /// round) must reproduce its first result bit for bit.
    fn record(&mut self, i: usize, r: u64, out: Result<Outcome, String>) -> Option<u64> {
        let mut out = match out {
            Ok(out) => out,
            Err(e) => {
                self.tally.op(false);
                self.errors.push(e);
                return None;
            }
        };
        let first = *self.digests.entry((i, r)).or_insert(out.digest);
        let same_counts = match out.counts {
            Some(c) => *self.counts.entry(i).or_insert(c) == c,
            None => true,
        };
        let ok = first == out.digest && same_counts;
        self.tally.op(ok);
        if !ok {
            self.errors
                .push(format!("item {i} round {r}: result changed between runs"));
        }
        let members = std::mem::take(&mut out.members);
        self.members.entry(i).or_insert(members);
        let shots = out.shots;
        self.quality.entry((i, r)).or_insert(out);
        Some(shots)
    }
}

/// Runs whole cycles for about `budget`: a cycle starts only if it should
/// end less than half a cycle past the budget (at least one runs). With
/// `count`, every run gathers its exact work counts.
fn closed_loop(
    env: &Env,
    spec: &Spec,
    budget: Duration,
    count: bool,
    ledger: &mut Ledger,
) -> Phase {
    let start = Instant::now();
    let mut latencies_ms = Vec::new();
    let mut shots = 0;
    let mut busy = Duration::ZERO;
    let mut cycles = Vec::new();
    let mut last = Duration::ZERO;
    while cycles.is_empty() || start.elapsed() + last / 2 < budget {
        let cycle_start = Instant::now();
        let r = cycles.len() as u64 % spec.quality_seeds;
        let mut cycle_ms = Vec::new();
        let mut meter = Meter::default();
        for &i in &env.cycle {
            span::set_group((latencies_ms.len() + cycle_ms.len()) as u64 + 1);
            let t0 = Instant::now();
            let out = run_item(env, i, env.run_seed(i, r), spec, spec.threads, None, count);
            let run = t0.elapsed();
            busy += run;
            cycle_ms.push(run.as_secs_f64() * 1e3);
            shots += ledger.record(i, r, out).unwrap_or(0);
            if spec.host_scaled {
                meter.sample(spec.threads, slices_after(run));
            }
        }
        let factor = if spec.host_scaled { meter.factor() } else { 1.0 };
        latencies_ms.extend(cycle_ms.iter().map(|ms| ms / factor));
        cycles.push((cycle_ms.iter().sum::<f64>() / 1e3, factor));
        last = cycle_start.elapsed();
    }
    Phase {
        runs: latencies_ms.len() as u64,
        busy,
        cycles,
        latencies_ms,
        shots,
    }
}

/// Fills in the quality set from cached ensembles (when `fill`), then
/// checks thread-count invariance and agreement with the library's own
/// `EdmRunner`. With `count`, the single-thread rerun gathers its exact
/// work counts, which must equal those the loop recorded.
fn finish_checks(env: &Env, spec: &Spec, ledger: &mut Ledger, fill: bool, count: bool) {
    if fill {
        for &i in env.cycle.iter().filter(|&&i| env.items[i].answer().is_some()) {
            for r in 0..spec.quality_seeds {
                if ledger.quality.contains_key(&(i, r)) {
                    continue;
                }
                let cached = ledger.members.get(&i).cloned();
                let out = run_item(
                    env,
                    i,
                    env.run_seed(i, r),
                    spec,
                    spec.threads,
                    cached.as_deref(),
                    false,
                );
                ledger.record(i, r, out);
            }
        }
    }
    // The cheapest item once more, single-threaded and cold.
    let i = env.cycle[0];
    let out = run_item(env, i, env.run_seed(i, 0), spec, 1, None, count);
    ledger.record(i, 0, out);
    // The library's own orchestrator must agree with the decomposed run.
    let item = &env.items[i];
    let device = &env.devices[item.device];
    let transpiler = Transpiler::new(device.topology(), &env.cals[item.device]);
    let sim = NoisySimulator::from_device(device);
    let runner = edm_core::EdmRunner::new(&transpiler, &sim, EnsembleConfig::default())
        .with_threads(spec.threads);
    let seed = env.run_seed(i, 0);
    let direct = runner
        .run_baseline(&item.circuit, spec.shots, seed)
        .and_then(|b| {
            runner
                .run(
                    &item.circuit,
                    spec.shots,
                    seed.wrapping_add(ENSEMBLE_SEED_OFFSET),
                )
                .map(|e| (b, e))
        });
    let ok = match direct {
        Ok((b, e)) => ledger.digests.get(&(i, 0)) == Some(&digest(&b.counts, &e)),
        Err(_) => false,
    };
    ledger.tally.op(ok);
    if !ok {
        ledger.errors.push(format!(
            "{}: EdmRunner disagrees with the benchmark run",
            item.label
        ));
    }
}

/// Over the quality set (the items with a unique answer, each with
/// `quality_seeds` run seeds): `ist_gain` is, per item, IST of its EDM
/// outputs pooled over its quality runs over IST of its baselines pooled
/// the same way, then the geometric mean over items. `top_correct_share`
/// is the share of quality runs whose EDM top outcome is the answer.
fn quality_metrics(env: &Env, spec: &Spec, ledger: &Ledger, m: &mut Metrics) {
    let mut ratios = Vec::new();
    let (mut correct, mut runs_total) = (0, 0);
    for (i, item) in env.items.iter().enumerate() {
        let Some(answer) = item.answer() else { continue };
        let runs: Vec<&Outcome> = ledger
            .quality
            .range((i, 0)..(i, spec.quality_seeds))
            .map(|(_, o)| o)
            .collect();
        correct += runs.iter().filter(|o| o.top_correct).count();
        runs_total += runs.len();
        let pool = |f: fn(&Outcome) -> &ProbDist| {
            ProbDist::merge_uniform(&runs.iter().map(|o| f(o).clone()).collect::<Vec<_>>())
        };
        let e = metrics::ist(&pool(|o| &o.edm), answer);
        let b = metrics::ist(&pool(|o| &o.baseline), answer);
        eprintln!(
            "quality: {} over {} runs: IST EDM {e:.4}, baseline {b:.4}",
            item.label,
            runs.len()
        );
        if e.is_finite() && b.is_finite() && e > 0.0 && b > 0.0 {
            ratios.push(e / b);
        }
    }
    m.put("ist_gain", report::geomean(&ratios), "ratio");
    m.put(
        "top_correct_share",
        correct as f64 / runs_total.max(1) as f64,
        "ratio",
    );
    eprintln!(
        "quality set: {runs_total} runs of {} items with a unique answer",
        ratios.len()
    );
}

/// Repeats set-up `times` times and returns the last environment with the
/// median set-up time in seconds.
pub fn setup(make: fn(u64) -> Env, seed: u64, threads: usize, times: usize) -> (Env, f64) {
    let mut secs = Vec::new();
    let mut env = None;
    for _ in 0..times {
        drop(env.take());
        let t0 = Instant::now();
        let e = make(seed);
        e.warm(threads);
        secs.push(t0.elapsed().as_secs_f64());
        env = Some(e);
    }
    (env.expect("at least one set-up"), report::median(&secs))
}

/// An untraced run: the end-to-end metrics.
pub fn measure(
    env: &Env,
    spec: &Spec,
    setup_s: f64,
    seconds: f64,
) -> (Metrics, Tally, Vec<String>) {
    let mut ledger = Ledger::default();
    // Warm-up: one cold run of the first item, so lazy state is built.
    let i = env.cycle[0];
    let out = run_item(env, i, env.run_seed(i, 0), spec, spec.threads, None, false);
    ledger.record(i, 0, out);

    let base = crate::alloc::reset_peak();
    let phase = closed_loop(
        env,
        spec,
        Duration::from_secs_f64(seconds),
        false,
        &mut ledger,
    );
    let peak = crate::alloc::peak_bytes().saturating_sub(base);
    finish_checks(env, spec, &mut ledger, true, false);

    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("runs_per_s", phase.runs_per_s(env.cycle.len(), true), "1/s");
    m.put(
        "job_p50_ms",
        report::quantile(&phase.latencies_ms, 0.5),
        "ms",
    );
    m.put(
        "job_p90_ms",
        report::quantile(&phase.latencies_ms, 0.9),
        "ms",
    );
    quality_metrics(env, spec, &ledger, &mut m);
    m.put("peak_heap_mb", peak as f64 / (1024.0 * 1024.0), "MB");
    let cycles: Vec<String> = phase
        .cycles
        .iter()
        .map(|(s, slow)| format!("{s:.2} s x{slow:.3}"))
        .collect();
    eprintln!(
        "closed loop: {} runs in {:.2} s of run time, {} shots; cycles of {} runs \
         (run time x host slowness): [{}]; raw runs_per_s {:.4}",
        phase.runs,
        phase.busy.as_secs_f64(),
        phase.shots,
        env.cycle.len(),
        cycles.join(", "),
        phase.runs_per_s(env.cycle.len(), false)
    );
    (m, ledger.tally, ledger.errors)
}

/// A traced run: an untraced reference phase, then a traced phase whose
/// spans give the per-layer metrics.
pub fn trace(
    env: &Env,
    spec: &Spec,
    seconds: f64,
) -> (Metrics, Tally, Vec<String>, Vec<span::Span>) {
    let mut ledger = Ledger::default();
    let untraced = closed_loop(
        env,
        spec,
        Duration::from_secs_f64(seconds * 0.35),
        false,
        &mut ledger,
    );
    span::set_enabled(true);
    let traced = closed_loop(
        env,
        spec,
        Duration::from_secs_f64(seconds * 0.65),
        true,
        &mut ledger,
    );
    span::set_enabled(false);
    let spans = span::take();
    finish_checks(env, spec, &mut ledger, false, true);

    let t = span::totals(&spans);
    let runs = traced.runs.max(1) as f64;
    let per_run_ms = |name: &str| t.get(name).map_or(0.0, |x| x.self_ns as f64 / 1e6 / runs);
    let mut m = Metrics::default();
    m.put("qmap.transpile_ms", per_run_ms("qmap.transpile"), "ms");
    m.put("qdevice.embed_ms", per_run_ms("qdevice.embed"), "ms");
    m.put(
        "edm_core.diversify_ms",
        per_run_ms("edm_core.diversify"),
        "ms",
    );
    m.put("qsim.compile_ms", per_run_ms("qsim.compile"), "ms");
    m.put("qsim.execute_ms", per_run_ms("qsim.execute"), "ms");
    m.put("edm_core.merge_ms", per_run_ms("edm_core.merge"), "ms");
    let execute_s = t
        .get("qsim.execute")
        .map_or(0.0, |x| x.total_ns as f64 / 1e9);
    m.put(
        "qsim.shots_per_s",
        traced.shots as f64 / execute_s.max(1e-9),
        "1/s",
    );
    // Exact counts: one cycle's worth, summed over its items.
    let mut cycle = Counts::default();
    for &i in &env.cycle {
        cycle.add(ledger.counts.get(&i).copied().unwrap_or_default());
    }
    m.put("qdevice.embeddings", cycle.embeddings as f64, "count");
    m.put("edm_core.members", cycle.members as f64, "count");
    m.put("qsim.fused_ops", cycle.fused_ops as f64, "count");
    m.put("qsim.prims", cycle.prims as f64, "count");
    m.put("qsim.event_sites", cycle.event_sites as f64, "count");
    // The calls made only to count (embedding search, simulator compile)
    // are left out of coverage and overhead: an untraced run does not
    // make them.
    let total_ns = |name: &str| t.get(name).map_or(0, |x| x.total_ns);
    let extra_ns = total_ns("qdevice.embed") + total_ns("qsim.compile");
    let traced_ns = (traced.busy.as_nanos() as u64).saturating_sub(extra_ns).max(1);
    // Coverage: layer self time over the traced loop's wall time.
    let run_self = t.get("run").map_or(0, |x| x.self_ns);
    let layers_ns = total_ns("run").saturating_sub(run_self + extra_ns);
    m.put(
        "trace_coverage_pct",
        100.0 * layers_ns as f64 / traced_ns as f64,
        "%",
    );
    let per_run = |ns: f64, runs: u64| ns / runs.max(1) as f64;
    m.put(
        "trace_overhead_pct",
        100.0
            * (per_run(traced_ns as f64, traced.runs)
                / per_run(untraced.busy.as_nanos() as f64, untraced.runs)
                - 1.0),
        "%",
    );
    (m, ledger.tally, ledger.errors, spans)
}
