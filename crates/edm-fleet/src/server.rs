//! The non-blocking multi-client connection layer.
//!
//! A sharded thread-per-core readiness loop over `std::net` non-blocking
//! sockets — no async runtime, no epoll binding, just `WouldBlock` as the
//! readiness signal. The listener is set non-blocking and shared by every
//! shard; each shard accepts into its own connection set and then
//! round-robins its connections:
//!
//! - **reads** go through a per-connection [`LineFramer`], so a request
//!   split across TCP segments reassembles and a malformed frame is
//!   answered with a reject-with-reason [`Response::Error`] instead of a
//!   hangup,
//! - **writes** buffer per connection: a partial write keeps the tail
//!   queued, and a connection whose buffered responses exceed the
//!   high-water mark stops being *read* until the client drains — per-
//!   connection backpressure that protects the fleet from slow readers,
//! - **execution** happens on dedicated per-device executor threads that
//!   loop `process_device`, so one device's batch never blocks another
//!   device or any socket I/O.
//!
//! The `edm-serve` binary is the other transport over the same request
//! path: one peer on stdin/stdout in front of a one-device fleet. Both
//! decode frames with [`frame_to_request`], answer with [`handle_request`],
//! and encode with [`encode_response`].

use crate::fleet::{Fleet, Ticket};
use edm_core::Backend;
use edm_serve::framing::{Frame, LineFramer};
use edm_serve::protocol::{JobSummary, MetricFamily, Request, Response, SpanInfo};
use edm_serve::queue::JobRequest;
use edm_serve::service::JobState;
use edm_telemetry::trace::TraceContext;
use qcir::qasm;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Connection-layer knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connection shards (readiness-polling threads).
    pub shards: usize,
    /// Per-frame byte bound fed to each connection's [`LineFramer`].
    pub max_frame: usize,
    /// Write-buffer high-water mark per connection: above it the shard
    /// stops reading that connection until the client drains.
    pub write_high_water: usize,
    /// Idle sleep between readiness sweeps when nothing was ready.
    pub idle_sleep: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: std::thread::available_parallelism()
                .map(|n| n.get().clamp(1, 4))
                .unwrap_or(2),
            max_frame: edm_serve::framing::DEFAULT_MAX_FRAME,
            write_high_water: 1 << 20,
            idle_sleep: Duration::from_millis(1),
        }
    }
}

/// One live client connection owned by a shard.
struct Connection {
    stream: TcpStream,
    framer: LineFramer,
    /// Responses not yet accepted by the socket.
    out: Vec<u8>,
    closed: bool,
}

impl Connection {
    fn new(stream: TcpStream, max_frame: usize) -> Self {
        Connection {
            stream,
            framer: LineFramer::new(max_frame),
            out: Vec::new(),
            closed: false,
        }
    }

    fn queue_response(&mut self, response: &Response) {
        self.out
            .extend_from_slice(encode_response(response).as_bytes());
    }

    /// Writes as much buffered output as the socket accepts right now.
    fn flush_some(&mut self) {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => {
                    self.closed = true;
                    return;
                }
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.closed = true;
                    return;
                }
            }
        }
    }
}

/// The multi-client fleet server: a shared [`Fleet`] behind sharded
/// non-blocking socket loops and per-device executor threads.
pub struct FleetServer<B: Backend + Send + 'static> {
    fleet: Arc<Fleet<B>>,
    listener: TcpListener,
    addr: SocketAddr,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
}

impl<B: Backend + Send + 'static> FleetServer<B> {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) in front of
    /// `fleet`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(fleet: Fleet<B>, addr: &str, config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(FleetServer {
            fleet: Arc::new(fleet),
            listener,
            addr,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared fleet (e.g. for a sidecar thread to inspect).
    pub fn fleet(&self) -> Arc<Fleet<B>> {
        Arc::clone(&self.fleet)
    }

    /// A handle that flips the shutdown flag (any `"Shutdown"` request
    /// does the same).
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Runs shards + executors until a `Shutdown` request (or the handle)
    /// flips the flag, then joins every thread.
    pub fn run(self) {
        let FleetServer {
            fleet,
            listener,
            addr: _,
            config,
            shutdown,
        } = self;
        let mut threads: Vec<JoinHandle<()>> = Vec::new();

        // One executor per device: processing is per-device serialized
        // anyway (the device mutex), so more threads per device buy
        // nothing, while fewer would let one device's deep queue delay
        // another's.
        for device in 0..fleet.num_devices() {
            let fleet = Arc::clone(&fleet);
            let shutdown = Arc::clone(&shutdown);
            let idle = config.idle_sleep;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("fleet-exec-{device}"))
                    .spawn(move || {
                        while !shutdown.load(Ordering::SeqCst) {
                            if fleet.process_device(device) == 0 {
                                std::thread::sleep(idle);
                            }
                        }
                    })
                    .expect("spawn executor thread"),
            );
        }

        for shard in 0..config.shards.max(1) {
            let fleet = Arc::clone(&fleet);
            let shutdown = Arc::clone(&shutdown);
            let listener = listener.try_clone().expect("clone listener");
            let config = config.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("fleet-shard-{shard}"))
                    .spawn(move || shard_loop(&fleet, &listener, &config, &shutdown))
                    .expect("spawn shard thread"),
            );
        }

        for t in threads {
            let _ = t.join();
        }
    }
}

/// One shard: accept new connections, sweep owned connections for
/// readable requests and writable buffered responses.
fn shard_loop<B: Backend>(
    fleet: &Fleet<B>,
    listener: &TcpListener,
    config: &ServerConfig,
    shutdown: &AtomicBool,
) {
    let mut connections: Vec<Connection> = Vec::new();
    let mut read_buf = [0u8; 16 * 1024];
    while !shutdown.load(Ordering::SeqCst) {
        let mut progressed = false;

        // Accept every connection currently pending. The listener is
        // shared: whichever shard gets there first owns the connection.
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_ok() {
                        stream.set_nodelay(true).ok();
                        connections.push(Connection::new(stream, config.max_frame));
                        progressed = true;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }

        for conn in connections.iter_mut() {
            // Drain buffered responses first: writability is this sweep's
            // only chance to make room below the high-water mark.
            if !conn.out.is_empty() {
                conn.flush_some();
                progressed = true;
            }
            if conn.closed {
                continue;
            }
            // Backpressure: a slow reader's requests stay in its socket
            // buffer (and eventually push back on the client) instead of
            // growing our write buffer without bound.
            if conn.out.len() >= config.write_high_water {
                continue;
            }
            match conn.stream.read(&mut read_buf) {
                Ok(0) => conn.closed = true,
                Ok(n) => {
                    progressed = true;
                    conn.framer.feed(&read_buf[..n]);
                    while let Some(frame) = conn.framer.next_frame() {
                        match frame_to_request(frame) {
                            Ok(None) => {}
                            Ok(Some(request)) => {
                                if matches!(request, Request::Shutdown) {
                                    conn.queue_response(&Response::Bye);
                                    shutdown.store(true, Ordering::SeqCst);
                                } else {
                                    let response = handle_request(fleet, request);
                                    conn.queue_response(&response);
                                }
                            }
                            Err(reason) => {
                                conn.queue_response(&Response::Error { reason });
                            }
                        }
                    }
                    conn.flush_some();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => conn.closed = true,
            }
        }
        connections.retain(|c| !(c.closed && c.out.is_empty()));

        if !progressed {
            std::thread::sleep(config.idle_sleep);
        }
    }
    // Final courtesy flush so `Bye` reaches the client that asked.
    for conn in connections.iter_mut() {
        conn.flush_some();
    }
}

/// Decodes one framer frame into a request; `Ok(None)` for blank lines,
/// `Err(reason)` for frames the client must be told were rejected.
pub fn frame_to_request(frame: Frame) -> Result<Option<Request>, String> {
    match frame {
        Frame::Line(line) => {
            if line.trim().is_empty() {
                return Ok(None);
            }
            serde_json::from_str::<Request>(&line)
                .map(Some)
                .map_err(|e| format!("bad request line: {e}"))
        }
        Frame::Oversized { length } => Err(format!("frame too long ({length} bytes, no newline)")),
        Frame::InvalidUtf8 => Err("request line is not valid UTF-8".into()),
    }
}

/// Encodes one response as a newline-terminated JSON line. Never panics:
/// a response that fails to serialize (e.g. a summary carrying a
/// non-finite float, which serde_json rejects) becomes an error frame, so
/// one bad response cannot take down a shard or the stdin transport.
pub fn encode_response(response: &Response) -> String {
    let mut line = serde_json::to_string(response).unwrap_or_else(|e| {
        edm_telemetry::counter!(
            "edm_fleet_response_serialize_errors_total",
            "Responses that failed to serialize and were replaced by an error frame"
        )
        .inc();
        serde_json::to_string(&Response::Error {
            reason: format!("internal error: response failed to serialize: {e}"),
        })
        // The fallback is a plain string-only variant; if even that
        // fails, emit a hand-built frame rather than panic.
        .unwrap_or_else(|_| {
            r#"{"Error":{"reason":"internal error: response failed to serialize"}}"#.into()
        })
    });
    line.push('\n');
    line
}

/// Serves one request against the fleet, for either transport. `Poll`
/// does NOT drive processing: the TCP executor threads own that, and the
/// stdin transport drains the fleet itself before handing a `Poll` over.
pub fn handle_request<B: Backend>(fleet: &Fleet<B>, request: Request) -> Response {
    match request {
        Request::Submit {
            qasm,
            shots,
            seed,
            priority,
            trace_id,
            parent_span,
        } => {
            // Link this shard's work under the client's trace: the shard
            // span covers parse + route + admission, and the routed
            // device's service spans (and the job's pool slices) hang off
            // it, so one trace id walks client → shard → device → slice.
            let _guard = edm_telemetry::trace::with_context(TraceContext {
                trace_id,
                parent_span,
            });
            let shard_span = edm_telemetry::trace::span("fleet_submit");
            let ctx = TraceContext {
                trace_id,
                // Telemetry off ⇒ the shard span never recorded; keep the
                // client's span as the remote parent instead of 0.
                parent_span: match shard_span.id() {
                    0 => parent_span,
                    id => id,
                },
            };
            let circuit = match qasm::parse(&qasm) {
                Ok(circuit) => circuit,
                Err(e) => {
                    return Response::Rejected {
                        reason: format!("bad qasm: {e}"),
                    }
                }
            };
            match fleet.submit_with_context(
                JobRequest {
                    circuit,
                    shots,
                    seed,
                    priority,
                },
                ctx,
            ) {
                Ok(Ticket { id, trace_id, .. }) => Response::Accepted { id, trace_id },
                Err(e) => Response::Rejected {
                    reason: e.to_string(),
                },
            }
        }
        Request::Poll { id } => match fleet.poll(id) {
            None => Response::Unknown { id },
            Some(JobState::Queued) => Response::Queued { id },
            Some(JobState::Failed(reason)) => Response::Failed { id, reason },
            Some(JobState::Done(done)) => Response::Finished {
                id,
                summary: JobSummary::from_result(
                    id,
                    fleet.trace_id(id).unwrap_or(0),
                    &done.result,
                    done.latency_ms,
                ),
            },
        },
        Request::Trace { id } => match fleet.trace_id(id) {
            Some(trace_id) => Response::Trace {
                id,
                trace_id,
                spans: edm_telemetry::trace::recorder()
                    .trace(trace_id)
                    .iter()
                    .map(SpanInfo::from)
                    .collect(),
            },
            None => Response::Unknown { id },
        },
        Request::Flush => Response::Processed {
            jobs: fleet.process_all() as u64,
        },
        Request::Stats => Response::Stats {
            stats: Box::new(fleet.stats()),
        },
        Request::FleetStats => Response::FleetStats {
            devices: fleet.device_status(),
        },
        Request::BumpCalibration => Response::Recalibrated {
            generation: fleet.bump_calibration_generation(),
        },
        Request::Metrics => Response::Metrics {
            families: edm_telemetry::metrics::registry()
                .snapshot()
                .iter()
                .map(MetricFamily::from_snapshot)
                .collect(),
        },
        Request::Shutdown => Response::Bye,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unserializable_response_becomes_error_frame_not_panic() {
        // serde_json rejects non-finite floats, so a NaN top_probability
        // (e.g. from a degenerate merge) used to panic the whole shard.
        let poisoned = Response::Finished {
            id: 7,
            summary: JobSummary {
                id: 7,
                trace_id: 1,
                members: 4,
                shots: 1024,
                top_outcome: "101".into(),
                top_probability: f64::NAN,
                degraded: false,
                failed_members: 0,
                latency_ms: 3,
            },
        };
        let line = encode_response(&poisoned);
        assert!(line.ends_with('\n'));
        let parsed: Response = serde_json::from_str(line.trim_end()).unwrap();
        match parsed {
            Response::Error { reason } => {
                assert!(reason.contains("failed to serialize"), "{reason}")
            }
            other => panic!("expected an error frame, got {other:?}"),
        }

        // A healthy response still encodes normally afterwards.
        assert_eq!(encode_response(&Response::Bye), "\"Bye\"\n");
    }
}
