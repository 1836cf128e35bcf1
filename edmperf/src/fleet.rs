//! The `fleet-mixed` workload: an in-process `FleetServer` on loopback TCP
//! with two devices, fed by one generator holding two connections.
//!
//! Phase A is a closed loop (a fixed window of jobs in flight per
//! connection) and gives capacity. Phase B is an open loop at a fixed rate
//! with seeded Poisson arrivals and gives latency, each job timed from the
//! moment it was due. The traced run replays phase B in-process, calling
//! what a shard and an executor call, with a span around each call.

use crate::batch::{answers, is_distribution};
use crate::report::{self, Metrics, Tally};
use crate::span;
use edm_core::{plan_run, Backend, EdmResult, EnsembleConfig, ProbDist, RunHealth, ShotAllocation};
use edm_fleet::backend::DeviceBackend;
use edm_fleet::fleet::{Fleet, FleetConfig, RoutingPolicy};
use edm_fleet::server::{handle_request, FleetServer, ServerConfig};
use edm_serve::framing::{Frame, LineFramer};
use edm_serve::protocol::{Request, Response};
use edm_serve::queue::Priority;
use edm_serve::service::{JobState, ServeConfig};
use edm_serve::stats::ServiceStats;
use qdevice::{presets, DeviceModel};
use qsim::counts::format_bitstring;
use qsim::NoisySimulator;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Trials per fleet job.
const SHOTS: u64 = 256;
/// One job in this many carries a circuit not in the cache (20% cold).
const COLD_EVERY: usize = 5;
/// Client connections the generator holds.
const CONNECTIONS: usize = 2;
/// Jobs in flight per connection in the closed-loop phase.
const WINDOW: usize = 4;
/// Phase-B arrival rate in jobs per second, frozen at about a quarter of
/// the phase-A capacity measured when the benchmark was created (52-78
/// jobs/s on a 2-core host). Cold submissions compile on the shard and
/// block every connection; at half of capacity that blocking put p50 in
/// the queueing knee, where the host's speed drift moved it by 2x.
const OPEN_RATE: f64 = 15.0;
/// Completions per rate window of the closed-loop phase.
const RATE_WINDOW: usize = 64;
/// Pause between poll sweeps that found nothing finished.
const POLL_PAUSE: Duration = Duration::from_micros(500);
/// Longest a phase may take to drain its jobs after sending stops.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// One generated job: the request line the client sends and what the
/// answer must be.
#[derive(Clone)]
struct Job {
    line: String,
    seed: u64,
    /// Bitstrings of maximal noise-free probability.
    answers: Vec<String>,
    /// The answer when it is unique (it is for every BV and greycode job).
    unique: Option<u64>,
    cold: bool,
}

struct Warm {
    qasm: String,
    answers: Vec<u64>,
    clbits: u32,
}

/// The circuits, devices and job lists of one workload seed.
struct Inputs {
    warm: Vec<Warm>,
    phase_a: Vec<Job>,
    phase_b: Vec<(f64, Job)>,
}

fn submit_line(qasm: &str, seed: u64) -> String {
    let mut line = serde_json::to_string(&Request::Submit {
        qasm: qasm.to_string(),
        shots: SHOTS,
        seed,
        priority: Priority::Normal,
        trace_id: 0,
        parent_span: 0,
    })
    .expect("requests serialize");
    line.push('\n');
    line
}

impl Inputs {
    /// Generates every input from the workload seed: the warm circuits,
    /// the BV secrets of cold jobs, run seeds and phase-B arrival times.
    fn generate(seed: u64, phase_b_secs: f64) -> Self {
        let warm: Vec<Warm> = qbench::registry::ist_suite()
            .into_iter()
            .map(|b| Warm {
                qasm: qcir::qasm::to_qasm(&b.circuit),
                answers: answers(&b.circuit),
                clbits: b.circuit.num_clbits(),
            })
            .collect();
        // BV secrets on 5-7 qubits with at most two idle data qubits (the
        // compile cost of sparser secrets explodes; `compile-scaling`
        // measures that), except the warm bv-6/bv-7 keys: 65 circuits,
        // shuffled by the seed. Each phase cycles through all of them, and
        // 65 exceeds the free slots of a device's 64-entry compile cache,
        // so every cold job is a compile miss.
        let mut rng = ChaCha8Rng::seed_from_u64(qsim::rngstream::fork(seed, 20));
        let mut pool: Vec<(u32, u64)> = (5..=7u32)
            .flat_map(|n| (1..(1u64 << n)).map(move |k| (n, k)))
            .filter(|&(n, k)| k.count_ones() + 2 >= n)
            .filter(|&p| p != (6, 0b110011) && p != (7, 0b1101011))
            .collect();
        for i in (1..pool.len()).rev() {
            let j = rng.gen_range(0..=i);
            pool.swap(i, j);
        }
        let mut rng_b = ChaCha8Rng::seed_from_u64(qsim::rngstream::fork(seed, 22));
        let mut mix_b = Mixer::new(&warm, &pool, rng_b.gen());
        let mut phase_b = Vec::new();
        let mut t = 0.0;
        loop {
            // Exponential inter-arrival times: a Poisson process.
            let u: f64 = rng_b.gen();
            t += -(1.0 - u).ln() / OPEN_RATE;
            if t >= phase_b_secs {
                break;
            }
            phase_b.push((t, mix_b.next()));
        }
        let mut mix_a = Mixer::new(&warm, &pool, qsim::rngstream::fork(seed, 21));
        let phase_a = (0..4096).map(|_| mix_a.next()).collect();
        Inputs {
            warm,
            phase_a,
            phase_b,
        }
    }
}

/// Deals the job stream so that every block of `COLD_EVERY` jobs has one
/// cold job at a seeded position and the warm circuits come from seeded
/// shuffles of all six: the seed changes the order, not the proportions.
struct Mixer<'a> {
    rng: ChaCha8Rng,
    warm: &'a [Warm],
    deck: Vec<usize>,
    cold: std::iter::Cycle<std::slice::Iter<'a, (u32, u64)>>,
    cold_slot: usize,
    dealt: usize,
}

impl<'a> Mixer<'a> {
    fn new(warm: &'a [Warm], cold: &'a [(u32, u64)], seed: u64) -> Self {
        Mixer {
            rng: ChaCha8Rng::seed_from_u64(seed),
            warm,
            deck: Vec::new(),
            cold: cold.iter().cycle(),
            cold_slot: 0,
            dealt: 0,
        }
    }

    fn next(&mut self) -> Job {
        if self.dealt.is_multiple_of(COLD_EVERY) {
            self.cold_slot = self.rng.gen_range(0..COLD_EVERY);
        }
        let slot = self.dealt % COLD_EVERY;
        self.dealt += 1;
        let seed: u64 = self.rng.gen();
        if slot == self.cold_slot {
            let &(n, key) = self.cold.next().expect("the cold pool is not empty");
            let c = qbench::bv::bv(key, n);
            return Job {
                line: submit_line(&qcir::qasm::to_qasm(&c), seed),
                seed,
                answers: vec![format_bitstring(key, n)],
                unique: Some(key),
                cold: true,
            };
        }
        if self.deck.is_empty() {
            self.deck = (0..self.warm.len()).collect();
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                self.deck.swap(i, j);
            }
        }
        let w = &self.warm[self.deck.pop().expect("the deck was refilled")];
        Job {
            line: submit_line(&w.qasm, seed),
            seed,
            answers: w
                .answers
                .iter()
                .map(|&a| format_bitstring(a, w.clbits))
                .collect(),
            unique: (w.answers.len() == 1).then(|| w.answers[0]),
            cold: false,
        }
    }
}

/// The two devices of the fleet (fixed calibrations, as in the batch
/// workloads).
fn devices() -> Vec<(String, Arc<DeviceModel>)> {
    let fork = |k: u64| qsim::rngstream::fork(crate::batch::DEVICE_SEED, 200 + k);
    vec![
        (
            "melbourne14".to_string(),
            Arc::new(DeviceModel::synthesize(presets::melbourne14(), fork(0))),
        ),
        (
            "guadalupe16".to_string(),
            Arc::new(DeviceModel::synthesize(
                presets::guadalupe16(),
                // A calibration on which guadalupe16 wins about half of the
                // job mix on ESP, so routing splits the load (on 4 of 16
                // calibrations tried it won nothing).
                fork(11),
            )),
        ),
    ]
}

/// ESP routing, one execution thread per device, no journal, no
/// controller.
fn build_fleet(devices: &[(String, Arc<DeviceModel>)]) -> Fleet<DeviceBackend> {
    let config = FleetConfig {
        serve: ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        },
        routing: RoutingPolicy::Esp,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(config);
    for (name, device) in devices {
        fleet.add_device(name.clone(), device, DeviceBackend::new(Arc::clone(device)));
    }
    fleet
}

/// One connection to the fleet: a request line in, its response out.
trait Conn {
    fn send(&mut self, line: &str) -> Result<Response, String>;

    fn poll(&mut self, id: u64) -> Result<Response, String> {
        self.send(&format!("{{\"Poll\":{{\"id\":{id}}}}}\n"))
    }
}

/// A blocking JSON-lines client on one TCP connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }
}

impl Conn for Client {
    fn send(&mut self, line: &str) -> Result<Response, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        serde_json::from_str(&self.line).map_err(|e| format!("bad response: {e}"))
    }
}

/// A connection without a socket: the generator's thread does what a
/// shard does with each line (framing, request serde, `handle_request`,
/// response serde), with a span around each call.
struct InProc<'f> {
    fleet: &'f Fleet<DeviceBackend>,
    framer: LineFramer,
}

impl<'f> InProc<'f> {
    fn new(fleet: &'f Fleet<DeviceBackend>) -> Self {
        InProc {
            fleet,
            framer: LineFramer::default(),
        }
    }
}

impl Conn for InProc<'_> {
    fn send(&mut self, line: &str) -> Result<Response, String> {
        let request: Request = {
            let _s = span::span("edm_serve.frame_decode");
            self.framer.feed(line.as_bytes());
            match self.framer.next_frame() {
                Some(Frame::Line(l)) => serde_json::from_str(&l).map_err(|e| e.to_string())?,
                other => return Err(format!("bad frame: {other:?}")),
            }
        };
        let name = match &request {
            Request::Submit { qasm, .. } => {
                if span::enabled() {
                    // Parsed and routed once more, alone, to time those
                    // layers; `handle_request` does both inside.
                    let parsed = {
                        let _s = span::span("qcir.qasm_parse");
                        qcir::qasm::parse(qasm)
                    };
                    if let Ok(circuit) = parsed {
                        let _s = span::span("edm_fleet.route");
                        self.fleet.candidates(&circuit);
                    }
                }
                "edm_fleet.submit"
            }
            _ => "edm_fleet.handle",
        };
        let response = {
            let _s = span::span(name);
            handle_request(self.fleet, request)
        };
        let _s = span::span("edm_serve.encode");
        serde_json::to_string(&response).map_err(|e| e.to_string())?;
        Ok(response)
    }
}

/// A booted server: the fleet it serves, its thread and two connections.
struct Server {
    fleet: Arc<Fleet<DeviceBackend>>,
    devices: Vec<(String, Arc<DeviceModel>)>,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    clients: Vec<Client>,
}

impl Server {
    fn boot(inputs: &Inputs) -> Result<Self, String> {
        let devices = devices();
        let server = FleetServer::bind(
            build_fleet(&devices),
            "127.0.0.1:0",
            ServerConfig {
                shards: 1,
                ..ServerConfig::default()
            },
        )
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let fleet = server.fleet();
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        let mut s = Server {
            fleet,
            devices,
            shutdown,
            thread: Some(thread),
            clients: Vec::new(),
        };
        for _ in 0..CONNECTIONS {
            s.clients
                .push(Client::connect(addr).map_err(|e| format!("connect: {e}"))?);
        }
        s.warm(inputs)?;
        Ok(s)
    }

    /// Pre-warms every device's compile cache: routing scores each warm
    /// circuit on every device, which compiles it there.
    fn warm(&mut self, inputs: &Inputs) -> Result<(), String> {
        let client = &mut self.clients[0];
        let limit = Instant::now() + DRAIN_LIMIT;
        for (k, w) in inputs.warm.iter().enumerate() {
            match client.send(&submit_line(&w.qasm, k as u64))? {
                Response::Accepted { id, .. } => loop {
                    match client.poll(id)? {
                        Response::Finished { .. } => break,
                        Response::Queued { .. } if Instant::now() < limit => {
                            std::thread::sleep(POLL_PAUSE)
                        }
                        other => return Err(format!("warm-up job: {other:?}")),
                    }
                },
                other => return Err(format!("warm-up submit: {other:?}")),
            }
        }
        Ok(())
    }

    /// Empties every compile cache with a calibration bump, then warms.
    fn rewarm(&mut self, inputs: &Inputs) -> Result<(), String> {
        match self.clients[0].send("\"BumpCalibration\"\n")? {
            Response::Recalibrated { .. } => self.warm(inputs),
            other => Err(format!("calibration bump: {other:?}")),
        }
    }

    /// Shuts the server down and joins its thread; false if it panicked.
    fn stop(&mut self) -> bool {
        self.shutdown.store(true, Ordering::SeqCst);
        self.clients.clear();
        self.thread.take().is_none_or(|t| t.join().is_ok())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// A job in flight on a connection, with the times its blocking path is
/// built from.
#[derive(Clone, Copy)]
struct Flight {
    job: usize,
    id: u64,
    /// Due time (open loop) or send time (closed loop).
    origin: Instant,
    /// When the submit call started and when it returned.
    sent: Instant,
    accepted: Instant,
    /// Start of the last poll that found the job still queued.
    last_queued: Option<Instant>,
}

/// One finished job as the generator saw it.
struct Done {
    flight: Flight,
    /// When the poll that saw it finished returned.
    finished_at: Instant,
    top_outcome: String,
    ok: bool,
}

impl Done {
    /// Seconds from the job's origin to the poll that saw it finished.
    fn latency_s(&self) -> f64 {
        self.finished_at
            .duration_since(self.flight.origin)
            .as_secs_f64()
    }
}

/// What the connections of one phase observed.
#[derive(Default)]
struct Observed {
    done: Vec<Done>,
    accepted: Vec<(u64, Instant)>,
    late_s: Vec<f64>,
    /// Every interval the generator spent inside a call (traced only).
    busy: Vec<(Instant, Instant)>,
    rejected: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Observed {
    /// Jobs accepted and not yet seen finished at `t`.
    fn backlog_at(&self, t: Instant) -> usize {
        let accepted = self.accepted.iter().filter(|(_, at)| *at <= t).count();
        let done = self.done.iter().filter(|d| d.finished_at <= t).count();
        accepted.saturating_sub(done)
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.done.iter().map(|d| d.latency_s() * 1e3).collect()
    }

    fn fail(&mut self, error: String) {
        self.failed += 1;
        self.errors.push(error);
    }
}

/// The generator: one thread holding every connection. Each job goes to
/// one connection and is polled there.
struct Generator<'c, C: Conn> {
    conns: &'c mut [C],
    flights: Vec<Vec<Flight>>,
    obs: Observed,
}

impl<'c, C: Conn> Generator<'c, C> {
    fn new(conns: &'c mut [C]) -> Self {
        let flights = conns.iter().map(|_| Vec::new()).collect();
        Generator {
            conns,
            flights,
            obs: Observed::default(),
        }
    }

    fn submit(&mut self, conn: usize, job_idx: usize, job: &Job, origin: Instant) {
        span::set_group(job_idx as u64 + 1);
        let sent = Instant::now();
        let response = {
            let _s = span::span("job.submit");
            self.conns[conn].send(&job.line)
        };
        let accepted = Instant::now();
        if span::enabled() {
            self.obs.busy.push((sent, accepted));
        }
        match response {
            Ok(Response::Accepted { id, .. }) => {
                self.obs.accepted.push((id, accepted));
                self.flights[conn].push(Flight {
                    job: job_idx,
                    id,
                    origin,
                    sent,
                    accepted,
                    last_queued: None,
                });
            }
            Ok(Response::Rejected { reason }) => {
                self.obs.rejected += 1;
                self.obs.errors.push(format!("rejected: {reason}"));
            }
            Ok(other) => self.obs.fail(format!("submit: {other:?}")),
            Err(e) => self.obs.fail(e),
        }
    }

    /// Polls every in-flight job once; returns how many reached a
    /// terminal state.
    fn sweep(&mut self) -> usize {
        let mut finished = 0;
        for (conn, flights) in self.conns.iter_mut().zip(&mut self.flights) {
            let mut k = 0;
            while k < flights.len() {
                let f = flights[k];
                span::set_group(f.job as u64 + 1);
                let start = Instant::now();
                let response = {
                    let _s = span::span("edm_fleet.poll");
                    conn.poll(f.id)
                };
                let now = Instant::now();
                if span::enabled() {
                    self.obs.busy.push((start, now));
                }
                match response {
                    Ok(Response::Queued { .. }) => {
                        flights[k].last_queued = Some(start);
                        k += 1;
                        continue;
                    }
                    Ok(Response::Finished { summary, .. }) => {
                        let ok =
                            summary.shots == SHOTS && !summary.degraded && summary.members >= 1;
                        if !ok {
                            self.obs.errors.push(format!("job {} finished malformed", f.id));
                        }
                        self.obs.done.push(Done {
                            flight: f,
                            finished_at: now,
                            top_outcome: summary.top_outcome,
                            ok,
                        });
                    }
                    Ok(other) => self.obs.fail(format!("job {}: {other:?}", f.id)),
                    Err(e) => self.obs.fail(e),
                }
                flights.swap_remove(k);
                finished += 1;
            }
        }
        finished
    }

    fn in_flight(&self) -> usize {
        self.flights.iter().map(Vec::len).sum()
    }

    /// Polls until every in-flight job finished, or fails the stragglers.
    fn drain(mut self) -> Observed {
        let limit = Instant::now() + DRAIN_LIMIT;
        while self.in_flight() > 0 && Instant::now() < limit {
            if self.sweep() == 0 {
                std::thread::sleep(POLL_PAUSE);
            }
        }
        for f in self.flights.iter_mut().flat_map(|f| f.drain(..)) {
            self.obs.fail(format!("job {} never finished", f.id));
        }
        self.obs
    }
}

/// Phase A: each connection keeps `WINDOW` jobs in flight for `secs`.
fn closed_phase(server: &mut Server, inputs: &Inputs, secs: f64) -> (Observed, Instant, Instant) {
    let jobs = &inputs.phase_a;
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let mut gen = Generator::new(&mut server.clients);
    let mut next = 0;
    while Instant::now() < end {
        for conn in 0..CONNECTIONS {
            while gen.flights[conn].len() < WINDOW {
                let i = next % jobs.len();
                gen.submit(conn, i, &jobs[i], Instant::now());
                next += 1;
            }
        }
        if gen.sweep() == 0 {
            std::thread::sleep(POLL_PAUSE);
        }
    }
    (gen.drain(), start, end)
}

/// Completions per second over each run of `RATE_WINDOW` consecutive
/// completions in `[start, end)`, and the median of those rates: a
/// transient slowdown of the host does not move the capacity figure.
fn median_rate(obs: &Observed, start: Instant, end: Instant) -> f64 {
    let mut t: Vec<f64> = obs
        .done
        .iter()
        .filter(|d| d.finished_at >= start && d.finished_at < end)
        .map(|d| d.finished_at.duration_since(start).as_secs_f64())
        .collect();
    t.sort_by(f64::total_cmp);
    let rates: Vec<f64> = t
        .windows(RATE_WINDOW + 1)
        .step_by(RATE_WINDOW)
        .map(|w| RATE_WINDOW as f64 / (w[RATE_WINDOW] - w[0]).max(1e-9))
        .collect();
    if rates.is_empty() {
        return t.len() as f64 / end.duration_since(start).as_secs_f64();
    }
    report::median(&rates)
}

/// The open-loop schedule shared by the TCP phase and the in-process
/// replays: job `i` is due at `due[i]` and goes to connection
/// `i % CONNECTIONS`.
struct Schedule<'a> {
    start: Instant,
    jobs: Vec<&'a Job>,
    due: Vec<Instant>,
}

impl<'a> Schedule<'a> {
    fn new(inputs: &'a Inputs) -> Self {
        let start = Instant::now() + Duration::from_millis(20);
        Schedule {
            start,
            jobs: inputs.phase_b.iter().map(|(_, j)| j).collect(),
            due: inputs
                .phase_b
                .iter()
                .map(|&(t, _)| start + Duration::from_secs_f64(t))
                .collect(),
        }
    }

    fn end(&self) -> Instant {
        self.due.last().copied().unwrap_or(self.start)
    }
}

/// Phase B: sends each job when it is due, polling in between.
fn open_loop<C: Conn>(conns: &mut [C], sched: &Schedule<'_>) -> Observed {
    let mut gen = Generator::new(conns);
    let mut next = 0;
    while next < sched.jobs.len() {
        let now = Instant::now();
        if now >= sched.due[next] {
            gen.obs
                .late_s
                .push(now.duration_since(sched.due[next]).as_secs_f64());
            gen.submit(next % CONNECTIONS, next, sched.jobs[next], sched.due[next]);
            next += 1;
            continue;
        }
        if gen.in_flight() == 0 || gen.sweep() == 0 {
            let wait = sched.due[next].saturating_duration_since(Instant::now());
            std::thread::sleep(wait.min(POLL_PAUSE));
        }
    }
    gen.drain()
}

/// Phase B over TCP.
fn open_phase<'a>(server: &mut Server, inputs: &'a Inputs) -> (Observed, Schedule<'a>) {
    let sched = Schedule::new(inputs);
    let obs = open_loop(&mut server.clients, &sched);
    (obs, sched)
}

/// Latency percentiles and generator validity of an open-loop phase.
struct OpenStats {
    p50_ms: f64,
    p90_ms: f64,
    late_p90_ms: f64,
    backlog_mid: usize,
    backlog_end: usize,
    saturated: bool,
}

fn open_stats(obs: &Observed, sched: &Schedule<'_>) -> OpenStats {
    let lat = obs.latencies_ms();
    let late: Vec<f64> = obs.late_s.iter().map(|s| s * 1e3).collect();
    let mid = sched.start + sched.end().duration_since(sched.start) / 2;
    let backlog_mid = obs.backlog_at(mid);
    let backlog_end = obs.backlog_at(sched.end());
    OpenStats {
        p50_ms: report::quantile(&lat, 0.5),
        p90_ms: report::quantile(&lat, 0.9),
        late_p90_ms: report::quantile(&late, 0.9),
        backlog_mid,
        backlog_end,
        // A queue that keeps growing through the phase means the offered
        // rate exceeds capacity; its latencies describe the backlog.
        saturated: backlog_end >= 16 && backlog_end > 2 * backlog_mid,
    }
}

/// Answer quality over phase B.
struct Quality {
    ist_gain: f64,
    top_correct_share: f64,
}

fn check_result(result: &EdmResult, job: &Job) -> Result<(), String> {
    let members: Vec<_> = result.members.iter().map(|m| m.member.clone()).collect();
    let plan =
        plan_run(members, SHOTS, job.seed, ShotAllocation::Uniform).map_err(|e| e.to_string())?;
    let shots_ok = result
        .members
        .iter()
        .zip(&plan.shares)
        .all(|(m, &s)| m.counts.shots() == s);
    if !shots_ok || result.health != RunHealth::Full {
        return Err("member histograms do not sum to their planned shots".into());
    }
    if !is_distribution(&result.edm) || !is_distribution(&result.wedm) {
        return Err("EDM/WEDM output is not a distribution".into());
    }
    Ok(())
}

fn served(fleet: &Fleet<DeviceBackend>, id: u64) -> Option<EdmResult> {
    match fleet.poll(id) {
        Some(JobState::Done(done)) => Some(done.result),
        _ => None,
    }
}

/// Every job must reach exactly one terminal state; every finished job's
/// full result must pass the output checks.
fn audit(
    fleet: &Fleet<DeviceBackend>,
    obs: &Observed,
    jobs: &[&Job],
    tally: &mut Tally,
    errors: &mut Vec<String>,
) {
    let ids: BTreeSet<u64> = obs.accepted.iter().map(|&(id, _)| id).collect();
    let done: BTreeSet<u64> = obs.done.iter().map(|d| d.flight.id).collect();
    if ids.len() != obs.accepted.len() || done.len() != obs.done.len() {
        errors.push("a job id was issued or finished twice".into());
        tally.op(false);
    }
    let lost = ids.difference(&done).count() as u64;
    tally.attempted += obs.rejected + obs.failed;
    tally.failed += obs.rejected + obs.failed.max(lost);
    for d in &obs.done {
        let ok = d.ok
            && match served(fleet, d.flight.id) {
                Some(result) => match check_result(&result, jobs[d.flight.job]) {
                    Ok(()) => true,
                    Err(e) => {
                        errors.push(format!("job {}: {e}", d.flight.id));
                        false
                    }
                },
                None => false,
            };
        tally.op(ok);
    }
    errors.extend(obs.errors.iter().take(5).cloned());
}

/// Answer quality over phase B, plus fleet-vs-direct bit identity for the
/// first warm and the first cold job.
fn quality(
    server: &Server,
    obs: &Observed,
    jobs: &[&Job],
    tally: &mut Tally,
    errors: &mut Vec<String>,
) -> Quality {
    let config = EnsembleConfig::default();
    let mut ratios = Vec::new();
    let mut correct = 0;
    let mut checked_warm = false;
    let mut checked_cold = false;
    let mut done: Vec<&Done> = obs.done.iter().collect();
    done.sort_by_key(|d| d.flight.job);
    for d in &done {
        let (job, id) = (jobs[d.flight.job], d.flight.id);
        if job.answers.contains(&d.top_outcome) {
            correct += 1;
        }
        let Some((device, _)) = server.fleet.placement(id) else {
            continue;
        };
        let Some(result) = served(&server.fleet, id) else {
            continue;
        };
        let dev = &server.devices[device].1;
        let sim = NoisySimulator::from_device(dev);
        if let Some(answer) = job.unique {
            // The best-mapping baseline: every trial on the best member.
            let best = result.members[0].member.clone();
            let plan = plan_run(vec![best], SHOTS, job.seed, ShotAllocation::Uniform)
                .expect("one member, positive shots");
            let base = sim.execute_batch(&plan.jobs(), 1).remove(0);
            if let Ok(base) = base {
                let e = edm_core::metrics::ist(&result.edm, answer);
                let b = edm_core::metrics::ist(&ProbDist::from_counts(&base), answer);
                if e.is_finite() && b.is_finite() && e > 0.0 && b > 0.0 {
                    ratios.push(e / b);
                }
            }
        }
        let check = if job.cold {
            &mut checked_cold
        } else {
            &mut checked_warm
        };
        if !*check {
            *check = true;
            let circuit = match serde_json::from_str::<Request>(job.line.trim_end()) {
                Ok(Request::Submit { qasm, .. }) => qcir::qasm::parse(&qasm).ok(),
                _ => None,
            };
            let cal = dev.calibration();
            let transpiler = qmap::Transpiler::new(dev.topology(), &cal);
            let runner = edm_core::EdmRunner::new(&transpiler, &sim, config).with_threads(1);
            let same = circuit
                .and_then(|c| runner.run(&c, SHOTS, job.seed).ok())
                .is_some_and(|direct| direct == result);
            tally.op(same);
            if !same {
                errors.push(format!("job {id}: fleet result differs from a direct run"));
            }
        }
    }
    Quality {
        ist_gain: report::geomean(&ratios),
        top_correct_share: correct as f64 / done.len().max(1) as f64,
    }
}

/// Boots the server `times` times and keeps the last; returns it with the
/// median boot time (device synthesis, server start, connections and
/// cache warm-up).
fn setup(inputs: &Inputs, times: usize) -> Result<(Server, f64), String> {
    let mut secs = Vec::new();
    let mut server = None;
    for _ in 0..times {
        drop(server.take());
        let t0 = Instant::now();
        server = Some(Server::boot(inputs)?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    Ok((server.expect("at least one boot"), report::median(&secs)))
}

/// An untraced run: capacity from phase A, latency from phase B.
pub fn measure(seed: u64, seconds: f64, setups: usize) -> (Metrics, Tally, Vec<String>) {
    let a_secs = seconds * 0.3;
    let inputs = Inputs::generate(seed, seconds - a_secs);
    let mut tally = Tally::default();
    let mut errors = Vec::new();
    let (mut server, setup_s) = match setup(&inputs, setups) {
        Ok(s) => s,
        Err(e) => {
            tally.op(false);
            return (Metrics::default(), tally, vec![e]);
        }
    };
    let base = crate::alloc::reset_peak();
    let (obs_a, a_start, a_end) = closed_phase(&mut server, &inputs, a_secs);
    // Phase A's cold circuits must not be cache hits in phase B: a
    // calibration bump empties every cache, then the warm set is restored.
    if let Err(e) = server.rewarm(&inputs) {
        tally.op(false);
        errors.push(e);
    }
    let (obs_b, sched) = open_phase(&mut server, &inputs);
    let peak = crate::alloc::peak_bytes().saturating_sub(base);

    let jobs_a: Vec<&Job> = inputs.phase_a.iter().collect();
    let completed_a = obs_a.done.iter().filter(|d| d.finished_at < a_end).count();
    audit(&server.fleet, &obs_a, &jobs_a, &mut tally, &mut errors);
    audit(&server.fleet, &obs_b, &sched.jobs, &mut tally, &mut errors);
    let q = quality(&server, &obs_b, &sched.jobs, &mut tally, &mut errors);
    let open = open_stats(&obs_b, &sched);
    tally.op(server.stop());

    eprintln!(
        "phase A: {completed_a} jobs in {:.2} s with {CONNECTIONS} connections x {WINDOW} in flight",
        a_end.duration_since(a_start).as_secs_f64()
    );
    eprintln!(
        "phase B: {} jobs at {OPEN_RATE}/s, late p90 {:.3} ms, backlog mid {} end {}",
        obs_b.done.len(),
        open.late_p90_ms,
        open.backlog_mid,
        open.backlog_end,
    );
    // A saturated phase has no valid latency: the run fails.
    tally.op(!open.saturated);
    if open.saturated {
        errors.push(format!(
            "phase B saturated (backlog {} mid-phase, {} at the end): its latency is not valid",
            open.backlog_mid, open.backlog_end
        ));
    }
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("runs_per_s", median_rate(&obs_a, a_start, a_end), "1/s");
    m.put("job_p50_ms", open.p50_ms, "ms");
    m.put("job_p90_ms", open.p90_ms, "ms");
    m.put("ist_gain", q.ist_gain, "ratio");
    m.put("top_correct_share", q.top_correct_share, "ratio");
    m.put("peak_heap_mb", peak as f64 / (1024.0 * 1024.0), "MB");
    (m, tally, errors)
}

/// One `process_device` call that finished at least one job.
#[derive(Clone, Copy)]
struct Call {
    start: Instant,
    end: Instant,
}

/// Phase B replayed in-process: the generator drives [`InProc`]
/// connections while one thread per device loops `process_device`, as the
/// server's executors do.
struct Replay {
    fleet: Fleet<DeviceBackend>,
    devices: Vec<(String, Arc<DeviceModel>)>,
    obs: Observed,
    /// Per device, every `process_device` call that finished work.
    calls: Vec<Vec<Call>>,
    before: ServiceStats,
    /// From the first arrival to the last.
    phase_secs: f64,
}

/// Replays phase B. With `traced`, spans are on from the first arrival
/// until the caller turns them off.
fn replay(inputs: &Inputs, traced: bool) -> Replay {
    let devices = devices();
    let fleet = build_fleet(&devices);
    // Pre-warm the caches exactly as the TCP set-up does.
    for (k, w) in inputs.warm.iter().enumerate() {
        let req: Request = serde_json::from_str(submit_line(&w.qasm, k as u64).trim_end())
            .expect("submit lines parse");
        let _ = handle_request(&fleet, req);
        fleet.process_all();
    }
    let before = fleet.stats();
    let stop = AtomicBool::new(false);
    let calls: Vec<Mutex<Vec<Call>>> = (0..devices.len()).map(|_| Mutex::new(Vec::new())).collect();
    let sched = Schedule::new(inputs);
    span::set_enabled(traced);
    let obs = std::thread::scope(|s| {
        let executors: Vec<_> = (0..devices.len())
            .map(|d| {
                let (fleet, stop, calls) = (&fleet, &stop, &calls);
                s.spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        let start = Instant::now();
                        let n = fleet.process_device(d);
                        let end = Instant::now();
                        if n > 0 {
                            span::record("edm_fleet.process", d as u64, start, end);
                            calls[d]
                                .lock()
                                .expect("call log poisoned")
                                .push(Call { start, end });
                        } else {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                })
            })
            .collect();
        // Each connection has its own framer, as a shard keeps one per
        // connection.
        let mut conns: Vec<InProc> = (0..CONNECTIONS).map(|_| InProc::new(&fleet)).collect();
        let obs = open_loop(&mut conns, &sched);
        stop.store(true, Ordering::SeqCst);
        for e in executors {
            e.join().expect("executor panicked");
        }
        obs
    });
    let calls = calls
        .into_iter()
        .map(|c| c.into_inner().expect("call log poisoned"))
        .collect();
    Replay {
        fleet,
        devices,
        obs,
        calls,
        before,
        phase_secs: sched.end().duration_since(sched.start).as_secs_f64().max(1e-9),
    }
}

/// The per-layer metrics of a traced replay; turns spans off and saves
/// them.
fn layer_metrics(r: &Replay, seed: u64, tally: &mut Tally) -> Metrics {
    // Queue wait: from the submit returning to the start of the
    // process_device call that finished the job. A job's blocking path
    // from due time to the poll that saw it done is covered by the
    // generator's calls (its own and those it queued behind), its queue
    // wait and the process call that ran it.
    let busy: Vec<(u64, u64)> = r
        .obs
        .busy
        .iter()
        .map(|&(a, b)| (span::ns(a), span::ns(b)))
        .collect();
    let mut waits = Vec::new();
    let mut covered_s = 0.0;
    let mut latency_total = 0.0;
    for d in &r.obs.done {
        let f = &d.flight;
        let Some((device, _)) = r.fleet.placement(f.id) else {
            continue;
        };
        let after = f.last_queued.unwrap_or(f.accepted).max(f.accepted);
        let Some(call) = r.calls[device]
            .iter()
            .find(|c| c.end > after && c.start >= f.sent)
        else {
            continue;
        };
        span::record(
            "edm_serve.queue_wait",
            f.job as u64 + 1,
            f.accepted,
            call.start.max(f.accepted),
        );
        waits.push(call.start.saturating_duration_since(f.accepted).as_secs_f64() * 1e3);
        latency_total += d.latency_s();
        let mut path = busy.clone();
        path.push((span::ns(f.accepted), span::ns(call.end)));
        covered_s += span::union_len(&path, span::ns(f.origin), span::ns(d.finished_at)) as f64 / 1e9;
    }
    span::set_enabled(false);
    let spans = span::take();
    let totals = span::totals(&spans);
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    };
    let mean_us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e3 / t.count.max(1) as f64)
    };
    let after = r.fleet.stats();
    let d = |f: fn(&ServiceStats) -> u64| f(&after).saturating_sub(f(&r.before)) as f64;
    let hits = d(|s| s.cache.hits);
    let lookups = hits + d(|s| s.cache.misses);

    let mut m = Metrics::default();
    m.put("qcir.qasm_parse_us", mean_us("qcir.qasm_parse"), "us");
    m.put(
        "edm_serve.frame_decode_us",
        mean_us("edm_serve.frame_decode"),
        "us",
    );
    m.put("edm_serve.encode_us", mean_us("edm_serve.encode"), "us");
    m.put(
        "edm_serve.queue_wait_p50_ms",
        report::quantile(&waits, 0.5),
        "ms",
    );
    m.put(
        "edm_serve.queue_wait_p90_ms",
        report::quantile(&waits, 0.9),
        "ms",
    );
    m.put(
        "edm_serve.batch_jobs",
        d(|s| s.completed) / d(|s| s.batches).max(1.0),
        "count",
    );
    m.put(
        "edm_serve.cache_hit_ratio",
        hits / lookups.max(1.0),
        "ratio",
    );
    m.put("edm_serve.cache_lookups", lookups, "count");
    m.put("edm_serve.compilations", d(|s| s.compilations), "count");
    m.put("edm_serve.rejected", d(|s| s.rejected), "count");
    m.put("edm_serve.failed", d(|s| s.failed), "count");
    for name in ["edm_fleet.route", "edm_fleet.submit", "edm_fleet.poll"] {
        let v = durations(name);
        m.put(format!("{name}_p50_us"), report::quantile(&v, 0.5), "us");
        m.put(format!("{name}_p90_us"), report::quantile(&v, 0.9), "us");
    }
    let all_calls: Vec<f64> = r
        .calls
        .iter()
        .flatten()
        .map(|c| c.end.duration_since(c.start).as_secs_f64() * 1e3)
        .collect();
    m.put("edm_fleet.process_ms", report::mean(&all_calls), "ms");
    for (dev, c) in r.calls.iter().enumerate() {
        let busy = c.iter().fold(0.0, |acc, c| {
            acc + c.end.duration_since(c.start).as_secs_f64()
        });
        m.put(
            format!("edm_fleet.busy_share_d{dev}"),
            busy / r.phase_secs,
            "ratio",
        );
    }
    // Per-member simulator compile cost of the jobs just served.
    let mut compile_ms = Vec::new();
    for d in r.obs.done.iter().take(64) {
        let id = d.flight.id;
        let (Some((device, _)), Some(result)) = (r.fleet.placement(id), served(&r.fleet, id))
        else {
            continue;
        };
        let sim = NoisySimulator::from_device(&r.devices[device].1);
        for member in &result.members {
            let t0 = Instant::now();
            let ok = sim.compile(&member.member.physical).is_ok();
            compile_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            tally.op(ok);
        }
    }
    m.put("qsim.compile_ms", report::mean(&compile_ms), "ms");
    m.put(
        "trace_coverage_pct",
        100.0 * covered_s / latency_total.max(1e-9),
        "%",
    );
    crate::write_trace("fleet-mixed", seed, &spans);
    m
}

/// A traced run over one set of phase-B arrivals, played three times: over
/// TCP (generator validity), in-process untraced and in-process traced.
/// The traced replay's overhead is measured against the untraced one, and
/// the untraced replay's gap to TCP is the transport's share.
pub fn trace(seed: u64, seconds: f64) -> (Metrics, Tally, Vec<String>) {
    let inputs = Inputs::generate(seed, seconds * 0.3);
    let mut tally = Tally::default();
    let mut errors = Vec::new();
    let (mut server, _) = match setup(&inputs, 1) {
        Ok(s) => s,
        Err(e) => {
            tally.op(false);
            return (Metrics::default(), tally, vec![e]);
        }
    };
    let (obs, sched) = open_phase(&mut server, &inputs);
    audit(&server.fleet, &obs, &sched.jobs, &mut tally, &mut errors);
    let open = open_stats(&obs, &sched);
    tally.op(server.stop());

    let plain = replay(&inputs, false);
    audit(&plain.fleet, &plain.obs, &sched.jobs, &mut tally, &mut errors);
    let plain_p50 = report::median(&plain.obs.latencies_ms());
    let traced = replay(&inputs, true);
    let mut m = layer_metrics(&traced, seed, &mut tally);
    audit(&traced.fleet, &traced.obs, &sched.jobs, &mut tally, &mut errors);
    let traced_p50 = report::median(&traced.obs.latencies_ms());

    m.put("gen.late_p90_ms", open.late_p90_ms, "ms");
    m.put("gen.backlog_end", open.backlog_end as f64, "count");
    m.put(
        "trace_overhead_pct",
        100.0 * (traced_p50 / plain_p50.max(1e-9) - 1.0),
        "%",
    );
    m.put(
        "transport_share_pct",
        100.0 * (1.0 - plain_p50 / open.p50_ms.max(1e-9)),
        "%",
    );
    (m, tally, errors)
}
