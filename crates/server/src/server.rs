//! The serving loop: accept connections, decode frames, admit
//! submissions through the bounded tenant-fair queue, execute them on the
//! shared [`Engine`], and stream events back.
//!
//! Threading model — three kinds of threads:
//!
//! - the **accept loop** ([`Server::run`]): non-blocking accept polled
//!   against the shutdown flag;
//! - one **connection thread** per client: polls frames with a read
//!   timeout (so it can observe shutdown), answers registrations and
//!   reports inline, and forwards a submission's event stream from its
//!   executing worker to the socket. Every frame it writes has a deadline
//!   ([`FRAME_DEADLINE`]): a client that stops reading, or reads only a
//!   trickle, ends as a disconnect, so it cannot hold shutdown;
//! - `workers` **execution workers**: pop jobs round-robin across tenants
//!   from the [`AdmissionQueue`] and run them through the Program
//!   pipeline against the shared plan cache, each job behind a panic
//!   boundary.
//!
//! A request is decode → queue → `run()` → encode → write. What makes it
//! so is the **resident program**: a connection thread owns at most one
//! [`CompiledProgram`] ([`Resident`]), a `submit` of the statement list it
//! was built from moves it into the [`Job`], and the worker hands it back
//! when the job ends — ownership is linear (a connection has one job in
//! flight), so there is no shared map, lock or eviction policy, and the
//! state dies with the connection. Each stage is timed into the
//! `req.*_ns` histograms of the `report` request.
//!
//! Shutdown (a `shutdown` request, [`Server::shutdown_handle`], SIGTERM,
//! or ctrl-c) stops accepting, closes the queue, drains every admitted
//! job, joins all threads, optionally writes the Chrome trace, and — for
//! a UDS endpoint — unlinks the socket path.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use spdistal::prelude::*;
use spdistal::OutputValue;
use spdistal_client::frame::{FrameBuf, FrameError, FrameReader, DEFAULT_MAX_FRAME};
use spdistal_client::proto::{format_by_name, tensor_from_wire, Event, Request, StmtSpec};
use spdistal_client::Socket;
use spdistal_ir::{parse_tin, VarCtx};
use spdistal_sparse::{CoordDelta, LevelFormat, SpTensor};

use crate::signal;

/// Why the server could not start or keep serving.
#[derive(Debug)]
pub enum ServeError {
    /// Binding the endpoint failed — address/socket in use, permission
    /// denied, unresolvable address. `endpoint` names what was attempted.
    Bind { endpoint: String, source: io::Error },
    /// The accept loop hit a non-transient error.
    Accept { source: io::Error },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind { endpoint, source } => {
                write!(f, "failed to bind {endpoint}: {source}")
            }
            ServeError::Accept { source } => write!(f, "accept failed: {source}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Bind { source, .. } | ServeError::Accept { source } => Some(source),
        }
    }
}

/// Server tunables; the defaults serve the CLI and tests.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Simulated machine pieces (`Machine::grid1d`).
    pub pieces: usize,
    /// How leaf kernels execute on the workers.
    pub exec_mode: ExecMode,
    /// Admission-queue bound across all tenants.
    pub capacity: usize,
    /// Execution workers draining the admission queue.
    pub workers: usize,
    /// Per-frame payload cap.
    pub max_frame: usize,
    /// Where to write the Chrome trace at shutdown (`None`: don't).
    pub trace_path: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            pieces: 4,
            exec_mode: ExecMode::Serial,
            capacity: 64,
            workers: 1,
            max_frame: DEFAULT_MAX_FRAME,
            trace_path: None,
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Uds(UnixListener, PathBuf),
}

impl Listener {
    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nb),
            #[cfg(unix)]
            Listener::Uds(l, _) => l.set_nonblocking(nb),
        }
    }

    fn accept(&self) -> io::Result<Box<dyn Socket>> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                // A frame is a whole message: never hold one back for
                // Nagle's coalescing timer. Failing to set it costs
                // latency, not correctness.
                let _ = s.set_nodelay(true);
                Box::new(s) as Box<dyn Socket>
            }),
            #[cfg(unix)]
            Listener::Uds(l, _) => l.accept().map(|(s, _)| Box::new(s) as Box<dyn Socket>),
        }
    }
}

/// How long a connection thread waits for a frame before it re-checks
/// shutdown.
const READ_POLL: Duration = Duration::from_millis(100);

/// How long writing one frame to a client may take in all. A client that
/// stops reading, or reads only a trickle, ends as a disconnect past this
/// instead of holding its thread, and with it shutdown, for as long as it
/// keeps the socket open. 5 s moves the largest frame a default client
/// accepts (32 MiB) at 6.7 MB/s.
const FRAME_DEADLINE: Duration = Duration::from_secs(5);

/// A connection's write side while it writes one frame: each `write` may
/// block only for the time left until `deadline`, and fails `TimedOut`
/// once none is left. A write that times out after moving some bytes
/// returns them and `write_all` retries, so the deadline, not any one
/// call's timeout, bounds the frame.
struct FrameWriter<'a> {
    conn: &'a mut dyn Socket,
    deadline: Instant,
}

impl Write for FrameWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "frame write deadline passed",
            ));
        }
        self.conn.set_write_timeout(Some(left))?;
        self.conn.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.conn.flush()
    }
}

/// Write the frame `frame` holds to `conn` within [`FRAME_DEADLINE`].
fn send_frame(conn: &mut dyn Socket, frame: &mut FrameBuf) -> io::Result<()> {
    let deadline = Instant::now() + FRAME_DEADLINE;
    frame.send(&mut FrameWriter { conn, deadline })
}

/// Why one connection ended abnormally (the server keeps serving either
/// way; these are logged and counted, never panicked on).
#[derive(Debug)]
enum ConnError {
    /// The peer violated framing (truncated or oversized frame).
    Frame(FrameError),
    /// The peer vanished while we owed it bytes — e.g. mid-flush during a
    /// submission's event stream.
    Disconnected {
        during: &'static str,
        source: io::Error,
    },
}

impl std::fmt::Display for ConnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnError::Frame(e) => write!(f, "protocol violation: {e}"),
            ConnError::Disconnected { during, source } => {
                write!(f, "client disconnected during {during}: {source}")
            }
        }
    }
}

/// A connection's registered tensors, in registration order.
type Registered = Vec<(String, Format, SpTensor)>;

/// What a program is built from, besides the registered table: a `submit`
/// that matches may run the connection's resident program. The table is
/// not part of the key because its one writer, the connection thread,
/// drops the program whenever it writes (`register`, and `hello`, which
/// renames the tenant the program is labelled with).
#[derive(Clone, PartialEq)]
struct ProgramKey {
    /// Statements with their schedule *names* (validated on admission).
    stmts: Vec<StmtSpec>,
    pipelined: bool,
}

/// A built program kept between the submits of one connection. Owned by
/// exactly one thread at a time: the connection thread between jobs, the
/// worker during one (boxed: it changes hands four times per request).
struct Resident {
    key: ProgramKey,
    program: CompiledProgram,
    /// The registered tensors a reused program takes from the table again
    /// before it runs — see [`rewritten_live_ins`].
    restore: Vec<String>,
}

impl Drop for Resident {
    /// Wherever a program dies — a different statement list, a
    /// re-registration, a failed or panicked job, the end of an incremental
    /// job or of the connection — `built - dropped` stays the number alive.
    fn drop(&mut self) {
        self.program.trace().add("server.program.dropped", 1);
    }
}

/// One admitted submission, carried from a connection thread to an
/// execution worker. The reply sender streams progress back; if the
/// client vanished, sends fail silently and the job still completes (the
/// shared cache keeps the compiled plan either way).
struct Job {
    tenant: String,
    key: ProgramKey,
    /// Shared with the connection thread, which cannot write it while its
    /// one job is in flight; read only when a program is built or a live-in
    /// restored.
    tensors: Arc<Registered>,
    iters: usize,
    /// Streamed delta batches, in arrival order, for an incremental job.
    deltas: Vec<(String, Vec<CoordDelta>)>,
    /// Incremental jobs run one cold pass, then `run_incremental` per
    /// delta batch (streaming `incremental_report` events) instead of
    /// `iters` full passes — always on a freshly built program, over the
    /// *base* tensors, and they leave no resident program behind.
    incremental: bool,
    /// The connection's resident program when its key matches this job.
    resident: Option<Box<Resident>>,
    /// When the connection thread handed the job to the queue.
    admitted: Instant,
    replies: mpsc::Sender<Reply>,
}

/// What a worker sends a connection thread about its job.
enum Reply {
    Event(Event),
    /// Always last, after the terminal event: the program to keep, if the
    /// job left one.
    Finished(Option<Box<Resident>>),
}

/// A handle that asks a running [`Server`] to drain and exit — the
/// programmatic equivalent of SIGTERM.
#[derive(Clone)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    pub fn request_shutdown(&self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// The multi-tenant tensor service. See the [module docs](self).
pub struct Server {
    listener: Listener,
    engine: Engine,
    queue: Arc<AdmissionQueue<Job>>,
    stop: Arc<AtomicBool>,
    config: ServerConfig,
}

impl Server {
    fn new(listener: Listener, config: ServerConfig) -> Server {
        let machine = Machine::grid1d(config.pieces, MachineProfile::lassen_cpu());
        // The trace is always on: it is the server's merged run report
        // (`plan_cache.*`, per-tenant counters). The Chrome trace file is
        // only written when `trace_path` asks for it.
        let engine = Engine::with_trace(machine, Trace::enabled());
        Server {
            listener,
            engine,
            queue: Arc::new(AdmissionQueue::new(config.capacity)),
            stop: Arc::new(AtomicBool::new(false)),
            config,
        }
    }

    /// Bind a TCP endpoint (e.g. `"127.0.0.1:7461"`, port 0 for an
    /// ephemeral port).
    pub fn bind_tcp(addr: &str, config: ServerConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(addr).map_err(|source| ServeError::Bind {
            endpoint: format!("tcp address {addr}"),
            source,
        })?;
        Ok(Server::new(Listener::Tcp(listener), config))
    }

    /// Bind a Unix domain socket path. A stale socket file surfaces as a
    /// typed `Bind` error (address in use) — remove it explicitly rather
    /// than silently stealing the path from a live server.
    #[cfg(unix)]
    pub fn bind_uds(path: impl AsRef<Path>, config: ServerConfig) -> Result<Server, ServeError> {
        let path = path.as_ref();
        let listener = UnixListener::bind(path).map_err(|source| ServeError::Bind {
            endpoint: format!("unix socket {}", path.display()),
            source,
        })?;
        Ok(Server::new(
            Listener::Uds(listener, path.to_path_buf()),
            config,
        ))
    }

    /// The bound TCP address (None for a UDS endpoint) — how tests learn
    /// an ephemeral port.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            Listener::Uds(..) => None,
        }
    }

    /// The shared engine (plan cache + trace) behind this server.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.stop))
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || signal::requested()
    }

    /// Serve until shutdown is requested, then drain and exit. Blocks the
    /// calling thread for the server's lifetime.
    pub fn run(self) -> Result<(), ServeError> {
        self.listener
            .set_nonblocking(true)
            .map_err(|source| ServeError::Accept { source })?;

        let workers: Vec<_> = (0..self.config.workers.max(1))
            .map(|_| {
                let engine = self.engine.clone();
                let queue = Arc::clone(&self.queue);
                let exec_mode = self.config.exec_mode;
                std::thread::spawn(move || {
                    exec_loop(&engine, &queue, |engine, job, send| {
                        run_job(engine, job, exec_mode, send)
                    })
                })
            })
            .collect();

        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut conn_id: u64 = 0;
        let accept_result = loop {
            if self.stopping() {
                break Ok(());
            }
            match self.listener.accept() {
                Ok(conn) => {
                    conn_id += 1;
                    let engine = self.engine.clone();
                    let queue = Arc::clone(&self.queue);
                    let stop = Arc::clone(&self.stop);
                    let max_frame = self.config.max_frame;
                    conns.push(std::thread::spawn(move || {
                        if let Err(e) =
                            handle_conn(conn, &engine, &queue, &stop, max_frame, conn_id)
                        {
                            engine.trace().add("server.conn_errors", 1);
                            if matches!(e, ConnError::Disconnected { .. }) {
                                engine.trace().add("server.client_disconnects", 1);
                            }
                            eprintln!("spd-server: connection {conn_id}: {e}");
                        }
                    }));
                    conns.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(source) => {
                    self.stop.store(true, Ordering::SeqCst);
                    break Err(ServeError::Accept { source });
                }
            }
        };

        // Drain: no new admissions, every already-admitted job completes,
        // then the workers exit and the connection threads observe the
        // stop flag at their next poll.
        self.stop.store(true, Ordering::SeqCst);
        self.queue.close();
        for w in workers {
            let _ = w.join();
        }
        for c in conns {
            let _ = c.join();
        }

        if let Some(path) = &self.config.trace_path {
            if let Err(e) = self.engine.trace().write_chrome_trace(path) {
                eprintln!("spd-server: failed to write trace {path}: {e}");
            }
        }
        println!(
            "run_report_json={}",
            self.engine.trace().run_report_json("spd-server")
        );

        #[cfg(unix)]
        if let Listener::Uds(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
        accept_result
    }
}

fn error_event(code: &str, err: &dyn std::fmt::Display) -> Event {
    Event::Error {
        code: code.to_string(),
        message: err.to_string(),
    }
}

/// Encode `ev` into the connection's reused frame and send it.
fn send_event(conn: &mut dyn Socket, frame: &mut FrameBuf, ev: &Event) -> io::Result<()> {
    ev.write_json(frame.payload());
    send_frame(conn, frame)
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

fn schedule_by_name(name: &str) -> Option<ScheduleSpec> {
    Some(match name {
        "auto" => ScheduleSpec::Auto,
        "outer-dim" => ScheduleSpec::outer_dim(),
        "non-zero" => ScheduleSpec::nonzero(),
        _ => return None,
    })
}

/// Whether `coord` has the arity of `dims` and lies inside them.
fn inside(coord: &[i64], dims: &[usize]) -> bool {
    coord.len() == dims.len()
        && coord
            .iter()
            .zip(dims)
            .all(|(c, d)| (0..*d as i64).contains(c))
}

/// Validate and materialize one registration into the connection's tensor
/// table (re-registering a name replaces it). Returns the answer event.
fn register_tensor(
    name: String,
    format_name: &str,
    dims: Vec<usize>,
    coords: &[Vec<i64>],
    vals: &[f64],
    tensors: &mut Registered,
    max_frame: usize,
) -> Event {
    let Some(format) = format_by_name(format_name) else {
        return error_event(
            "bad_format",
            &format!("unknown format preset '{format_name}'"),
        );
    };
    if let Err(e) = format.validate(dims.len()) {
        return error_event("bad_format", &format!("'{format_name}' rejects dims: {e}"));
    }
    // Dense levels are allocated by extent, not by what was sent: bound
    // them by the budget that already bounds what one request may make the
    // server hold (a failed allocation aborts; no boundary catches it).
    let dense_bytes = dims
        .iter()
        .zip(&format.levels)
        .filter(|(_, level)| matches!(level, LevelFormat::Dense))
        .try_fold(8usize, |bytes, (dim, _)| bytes.checked_mul(*dim));
    if dense_bytes.is_none_or(|bytes| bytes > max_frame) {
        return error_event(
            "bad_tensor",
            &format!(
                "dims {dims:?} need more than the {max_frame}-byte frame cap for the dense \
                 levels of '{format_name}' (8 bytes per entry)"
            ),
        );
    }
    for coord in coords {
        if !inside(coord, &dims) {
            return error_event(
                "bad_tensor",
                &format!("coordinate {coord:?} outside dims {dims:?}"),
            );
        }
    }
    let data = tensor_from_wire(dims, coords, vals, &format);
    // Fingerprint the pattern once per registration: every request's copy
    // inherits it, so building the plan-cache key stays O(1) per request.
    data.pattern_hash();
    match tensors.iter_mut().find(|(n, ..)| *n == name) {
        Some(slot) => *slot = (name, format, data),
        None => tensors.push((name, format, data)),
    }
    Event::Ok
}

/// Validate a streamed delta batch against the connection's registered
/// tensors and queue it for the next incremental submission. Returns the
/// answer event.
fn queue_update_batch(
    name: String,
    deltas: Vec<CoordDelta>,
    tensors: &[(String, Format, SpTensor)],
    pending: &mut Vec<(String, Vec<CoordDelta>)>,
) -> Event {
    let Some((_, _, data)) = tensors.iter().find(|(n, ..)| *n == name) else {
        return error_event("unknown_tensor", &format!("no tensor '{name}' registered"));
    };
    let dims = data.dims();
    for d in &deltas {
        if !inside(&d.coord, dims) {
            return error_event(
                "bad_tensor",
                &format!("delta coordinate {:?} outside dims {dims:?}", d.coord),
            );
        }
    }
    pending.push((name, deltas));
    Event::Ok
}

fn handle_conn(
    mut conn: Box<dyn Socket>,
    engine: &Engine,
    queue: &Arc<AdmissionQueue<Job>>,
    stop: &Arc<AtomicBool>,
    max_frame: usize,
    conn_id: u64,
) -> Result<(), ConnError> {
    let _ = conn.set_read_timeout(Some(READ_POLL));
    let mut reader = FrameReader::new();
    // Every event this connection answers is encoded into this one frame.
    let mut frame = FrameBuf::default();
    let mut tenant = format!("conn-{conn_id}");
    let mut tensors: Arc<Registered> = Arc::default();
    let mut pending_deltas: Vec<(String, Vec<CoordDelta>)> = Vec::new();
    let mut resident: Option<Box<Resident>> = None;
    let trace = engine.trace();
    // Answer-path sends must reach the peer; a failure is a disconnect.
    macro_rules! answer {
        ($ev:expr) => {
            send_event(&mut *conn, &mut frame, &$ev).map_err(|source| ConnError::Disconnected {
                during: "response",
                source,
            })?
        };
    }
    loop {
        if stop.load(Ordering::SeqCst) || signal::requested() {
            return Ok(());
        }
        let payload = match reader.poll(&mut conn, max_frame) {
            Ok(Some(payload)) => payload,
            Ok(None) => continue, // read timeout: re-check shutdown
            Err(FrameError::Closed) => return Ok(()),
            Err(e @ FrameError::Truncated { .. }) => {
                let _ = send_event(&mut *conn, &mut frame, &error_event("truncated_frame", &e));
                return Err(ConnError::Frame(e));
            }
            Err(e @ FrameError::Oversized { .. }) => {
                let _ = send_event(&mut *conn, &mut frame, &error_event("frame_too_large", &e));
                return Err(ConnError::Frame(e));
            }
            Err(e) => return Err(ConnError::Frame(e)),
        };
        let decode_started = Instant::now();
        let request = match Request::parse(payload) {
            Ok(r) => r,
            Err(e) => {
                // Framing is still in sync — report and keep serving this
                // connection.
                answer!(error_event("bad_json", &e));
                continue;
            }
        };
        match request {
            Request::Hello { tenant: name } => {
                tenant = name;
                resident = None;
                answer!(Event::Welcome {
                    tenant: tenant.clone(),
                    server: concat!("spd-server ", env!("CARGO_PKG_VERSION")).to_string(),
                });
            }
            Request::Register {
                name,
                format,
                dims,
                coords,
                vals,
            } => {
                resident = None;
                answer!(register_tensor(
                    name,
                    &format,
                    dims,
                    &coords,
                    &vals,
                    Arc::make_mut(&mut tensors),
                    max_frame,
                ));
            }
            Request::UpdateBatch { name, deltas } => {
                answer!(queue_update_batch(
                    name,
                    deltas,
                    &tensors,
                    &mut pending_deltas
                ));
            }
            req @ (Request::Submit { .. } | Request::RunIncremental { .. }) => {
                let (stmts, iters, pipelined, incremental) = match req {
                    Request::Submit {
                        stmts,
                        iters,
                        pipelined,
                    } => (stmts, iters, pipelined, false),
                    Request::RunIncremental { stmts } => (stmts, 1, true, true),
                    _ => unreachable!("outer match narrows the variant"),
                };
                trace.observe_ns("req.decode_ns", ns(decode_started.elapsed()));
                if let Some(bad) = stmts
                    .iter()
                    .find(|s| schedule_by_name(&s.schedule).is_none())
                {
                    answer!(error_event(
                        "bad_schedule",
                        &format!(
                            "unknown schedule '{}' (auto | outer-dim | non-zero)",
                            bad.schedule
                        ),
                    ));
                    continue;
                }
                let key = ProgramKey { stmts, pipelined };
                let (replies, stream) = mpsc::channel();
                let job = Job {
                    tenant: tenant.clone(),
                    resident: resident.take_if(|r| !incremental && r.key == key),
                    key,
                    tensors: Arc::clone(&tensors),
                    iters,
                    deltas: if incremental {
                        std::mem::take(&mut pending_deltas)
                    } else {
                        Vec::new()
                    },
                    incremental,
                    admitted: Instant::now(),
                    replies,
                };
                match queue.try_submit(&tenant, job) {
                    Err((refused, job)) => {
                        // A refusal changes nothing on the connection: the
                        // program and the queued delta batches come back
                        // for the retry.
                        resident = resident.or(job.resident);
                        if incremental {
                            pending_deltas = job.deltas;
                        }
                        answer!(match refused {
                            AdmissionError::QueueFull { capacity } => error_event(
                                "queue_full",
                                &format!("admission queue full ({capacity} jobs); retry later"),
                            ),
                            AdmissionError::Closed => {
                                error_event("server_shutdown", &"server is draining")
                            }
                        });
                    }
                    Ok(()) => {
                        // Whatever the job did not take does not match it.
                        resident = None;
                        // Forward the worker's event stream. A send
                        // failure means the client vanished mid-flush:
                        // typed error for the log, the job itself still
                        // completes on the worker, and the server keeps
                        // serving everyone else.
                        let (mut encode_ns, mut write_ns) = (0, 0);
                        while let Ok(reply) = stream.recv() {
                            let ev = match reply {
                                Reply::Event(ev) => ev,
                                Reply::Finished(back) => {
                                    resident = back;
                                    break;
                                }
                            };
                            let t0 = Instant::now();
                            ev.write_json(frame.payload());
                            let t1 = Instant::now();
                            send_frame(&mut *conn, &mut frame).map_err(|source| {
                                ConnError::Disconnected {
                                    during: "submission event stream",
                                    source,
                                }
                            })?;
                            encode_ns += ns(t1 - t0);
                            write_ns += ns(t1.elapsed());
                        }
                        trace.observe_ns("req.encode_ns", encode_ns);
                        trace.observe_ns("req.write_ns", write_ns);
                    }
                }
            }
            Request::Report => {
                answer!(Event::Report {
                    json: trace.run_report_json("spd-server"),
                });
            }
            Request::Shutdown => {
                let _ = send_event(&mut *conn, &mut frame, &Event::Ok);
                stop.store(true, Ordering::SeqCst);
                return Ok(());
            }
        }
    }
}

/// Worker loop: drain the admission queue until it is closed and empty,
/// running each job through `run` behind a panic boundary. A job that
/// fails or panics answers its own connection with a terminal `error` and
/// loses its program; the worker, the queue and every other tenant carry
/// on. (`run` is a parameter so a test can make one tenant's job panic.)
fn exec_loop(
    engine: &Engine,
    queue: &AdmissionQueue<Job>,
    run: impl Fn(&Engine, &mut Job, &dyn Fn(Event)) -> Result<Option<Box<Resident>>, spdistal::Error>,
) {
    let trace = engine.trace();
    while let Some((_tenant, mut job)) = queue.next() {
        trace.observe_ns("req.queue_wait_ns", ns(job.admitted.elapsed()));
        let replies = job.replies.clone();
        let send = |ev: Event| {
            let _ = replies.send(Reply::Event(ev));
        };
        // Unwind safety: everything the closure can leave half-updated is
        // the job and its program, and both are dropped on a panic.
        let outcome = catch_unwind(AssertUnwindSafe(|| run(engine, &mut job, &send)));
        // Before `Finished`: the connection thread must find the registered
        // table unshared when it next writes it.
        drop(job);
        let resident = match outcome {
            Ok(Ok(resident)) => resident,
            Ok(Err(e)) => {
                send(error_event("exec", &e));
                None
            }
            Err(payload) => {
                trace.add("job.panicked", 1);
                let text = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                send(error_event("exec", &format!("job panicked: {text}")));
                None
            }
        };
        let _ = replies.send(Reply::Finished(resident));
    }
}

/// The registered tensors a *reused* program must take from the table
/// again so that a submit starts from the registered values, as a freshly
/// built program does: every tensor some statement reads before (or while)
/// any statement has written it, **and** some statement writes. Nothing for
/// `a = B c`; `c` for `a = B c; c = B a`. Everything else a program holds
/// is either never written (still the registered data) or written before it
/// is read (what it held does not matter).
fn rewritten_live_ins(stmts: &[StmtSpec]) -> Result<Vec<String>, spdistal::Error> {
    let mut vars = VarCtx::new();
    let (mut live_in, mut written) = (Vec::new(), Vec::new());
    for s in stmts {
        let stmt = parse_tin(&s.tin, &mut vars)?;
        for read in stmt.rhs.accesses() {
            if !written.contains(&read.tensor) && !live_in.contains(&read.tensor) {
                live_in.push(read.tensor.clone());
            }
        }
        written.push(stmt.lhs.tensor);
    }
    live_in.retain(|t| written.contains(t));
    Ok(live_in)
}

/// Run one submission through the Program pipeline — on the job's resident
/// program when it carries one, on a program built from the registered
/// table otherwise — streaming auto decisions, per-iteration flush
/// summaries, kernel-dispatch counters, results, and the terminal `done`.
/// Returns the program to keep (none after an incremental job).
fn run_job(
    engine: &Engine,
    job: &mut Job,
    exec_mode: ExecMode,
    send: &dyn Fn(Event),
) -> Result<Option<Box<Resident>>, spdistal::Error> {
    let trace = engine.trace();
    let started = Instant::now();
    let mut build_ns = 0;
    let mut resident = match job.resident.take() {
        Some(mut resident) => {
            trace.add("server.program.reused", 1);
            for name in &resident.restore {
                let (_, _, data) = job
                    .tensors
                    .iter()
                    .find(|(n, ..)| n == name)
                    .ok_or_else(|| spdistal::Error::UnknownTensor(name.clone()))?;
                let ctx = resident.program.context_mut();
                ctx.replace_tensor_data(name, data.clone())?;
            }
            resident
        }
        None => {
            let mut builder = engine.tenant(&job.tenant).exec_mode(exec_mode);
            for (name, format, data) in job.tensors.iter() {
                builder = builder.tensor(name, format.clone(), data.clone());
            }
            for s in &job.key.stmts {
                let spec = schedule_by_name(&s.schedule).ok_or_else(|| {
                    spdistal::Error::Unsupported(format!("unknown schedule '{}'", s.schedule))
                })?;
                builder = builder.stmt(&s.tin).schedule(spec);
            }
            if !job.key.pipelined {
                builder = builder.launch_at_a_time();
            }
            let resident = Box::new(Resident {
                program: builder.build()?,
                restore: rewritten_live_ins(&job.key.stmts)?,
                key: job.key.clone(),
            });
            build_ns = ns(started.elapsed());
            trace.observe_ns("req.build_ns", build_ns);
            trace.add("server.program.built", 1);
            resident
        }
    };
    let program = &mut resident.program;
    // A resident program's counters run on across jobs; every event reports
    // this job's share.
    let base = program.report().clone();

    // The kernel-dispatch counter is engine-wide; stream this job's delta.
    let dispatch = |m: &spdistal::obs::MetricsRegistry| m.counter("kernel.specialized").get();
    let dispatched = trace.metrics().map(dispatch);

    let mut decisions_sent = base.decisions.len();
    let mut flush = |program: &CompiledProgram, iteration: usize| {
        let report = program.report();
        for d in report.decisions.iter().skip(decisions_sent) {
            send(Event::AutoDecision {
                stmt: d.stmt,
                iteration: d.iteration,
                choice: d.choice.to_string(),
                reason: d.reason.clone(),
            });
        }
        decisions_sent = report.decisions.len();
        send(Event::FlushReport {
            iteration,
            batches: report.batches - base.batches,
            tasks: report.tasks - base.tasks,
            spans: report.spans - base.spans,
            steals: report.steals - base.steals,
            wall_seconds: report.wall_seconds - base.wall_seconds,
        });
        // Every plan runs a blessed kernel: `fallback` keeps the wire
        // shape and is always 0.
        if let (Some(m), Some(s0)) = (trace.metrics(), dispatched) {
            send(Event::KernelDispatch {
                specialized: dispatch(m).saturating_sub(s0),
                fallback: 0,
            });
        }
    };
    if job.incremental {
        // One cold full pass seeds the retained outputs, then each queued
        // delta batch is applied and re-run incrementally, answering with
        // one `incremental_report` per statement per batch. Drift
        // re-selection decisions taken along the way stream back as
        // ordinary `auto_decision` events via the final flush.
        program.run()?;
        for (iteration, (name, batch)) in job.deltas.iter().enumerate() {
            program.update_batch(name, batch)?;
            program.run_incremental()?;
            for stmt in 0..program.stmt_count() {
                if let Some(stats) = program.last_incremental(stmt) {
                    send(Event::IncrementalReport {
                        iteration,
                        stmt,
                        rows_dirty: stats.rows_dirty,
                        spans_reexecuted: stats.spans_reexecuted,
                        spans_skipped: stats.spans_skipped,
                        fallback: stats.fallback,
                    });
                }
            }
        }
        flush(program, job.deltas.len());
    } else {
        for iteration in 0..job.iters.max(1) {
            program.run()?;
            flush(program, iteration);
        }
    }

    for k in 0..program.stmt_count() {
        let output = program.value(k).and_then(OutputValue::as_tensor);
        let vals = output.map_or_else(Vec::new, |t| t.vals().to_vec());
        send(Event::Result { stmt: k, vals });
    }
    let report = program.report();
    send(Event::Done {
        iterations: report.iterations - base.iterations,
        compiles: report.compiles - base.compiles,
        cache_hits: report.cache_hits - base.cache_hits,
        wall_seconds: report.wall_seconds - base.wall_seconds,
    });
    trace.observe_ns("req.execute_ns", ns(started.elapsed()) - build_ns);
    Ok((!job.incremental).then_some(resident))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdistal_sparse::{dense_vector, generate};

    fn engine() -> Engine {
        let machine = Machine::grid1d(4, MachineProfile::lassen_cpu());
        Engine::with_trace(machine, Trace::enabled())
    }

    fn spmv_job(tenant: &str, tensors: &Arc<Registered>) -> (Job, mpsc::Receiver<Reply>) {
        let (replies, stream) = mpsc::channel();
        let job = Job {
            tenant: tenant.to_string(),
            key: ProgramKey {
                stmts: vec![StmtSpec {
                    tin: "a(i) = B(i,j) * c(j)".to_string(),
                    schedule: "outer-dim".to_string(),
                }],
                pipelined: true,
            },
            tensors: Arc::clone(tensors),
            iters: 1,
            deltas: Vec::new(),
            incremental: false,
            resident: None,
            admitted: Instant::now(),
            replies,
        };
        (job, stream)
    }

    /// Everything a finished job sent: its result bits, its error message,
    /// and whether it left a program.
    fn outcome(stream: &mpsc::Receiver<Reply>) -> (Vec<Vec<u64>>, Option<String>, bool) {
        let (mut results, mut error) = (Vec::new(), None);
        loop {
            match stream.recv().expect("a job always ends with `Finished`") {
                Reply::Event(Event::Result { vals, .. }) => {
                    results.push(vals.iter().map(|v| v.to_bits()).collect());
                }
                Reply::Event(Event::Error { code, message }) => {
                    assert_eq!(code, "exec");
                    error = Some(message);
                }
                Reply::Event(_) => {}
                Reply::Finished(resident) => return (results, error, resident.is_some()),
            }
        }
    }

    #[test]
    fn a_panicking_job_is_its_own_error_and_the_worker_lives() {
        let b_data = generate::banded(400, 7, 42);
        let n = b_data.dims()[0];
        let tensors: Arc<Registered> = Arc::new(vec![
            (
                "a".to_string(),
                Format::blocked_dense_vec(),
                dense_vector(vec![0.0; n]),
            ),
            ("B".to_string(), Format::blocked_csr(), b_data),
            (
                "c".to_string(),
                Format::replicated_dense_vec(),
                dense_vector(generate::dense_vec(n, 7)),
            ),
        ]);
        let serial = |engine: &Engine, job: &mut Job, send: &dyn Fn(Event)| {
            run_job(engine, job, ExecMode::Serial, send)
        };

        // The undisturbed run: one job, no neighbour, its own engine.
        let (mut solo, stream) = spmv_job("solo", &tensors);
        let replies = solo.replies.clone();
        let resident = serial(&engine(), &mut solo, &|ev| {
            let _ = replies.send(Reply::Event(ev));
        });
        let _ = replies.send(Reply::Finished(resident.expect("solo job")));
        let (want, error, kept) = outcome(&stream);
        assert!(error.is_none() && kept && want.len() == 1);

        let engine = engine();
        let queue = AdmissionQueue::new(8);
        // Queued before the worker starts, so the panic sits between two
        // healthy tenants.
        let streams = ["before", "doomed", "after"].map(|tenant| {
            let (job, stream) = spmv_job(tenant, &tensors);
            queue.submit(tenant, job).expect("admitted");
            stream
        });
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                exec_loop(&engine, &queue, |engine, job, send| {
                    if job.tenant == "doomed" {
                        panic!("injected into {}", job.tenant);
                    }
                    serial(engine, job, send)
                })
            });
            let [before, doomed, after] = streams.each_ref().map(outcome);
            assert_eq!(before, (want.clone(), None, true));
            assert_eq!(after, (want.clone(), None, true));
            let (results, error, kept) = doomed;
            assert!(results.is_empty() && !kept);
            let message = error.expect("the panic is the job's terminal error");
            assert!(message.contains("injected into doomed"), "{message}");

            // The one worker is still there for a fourth job.
            let (job, stream) = spmv_job("later", &tensors);
            queue.submit("later", job).expect("admitted");
            assert_eq!(outcome(&stream), (want.clone(), None, true));
            assert!(!worker.is_finished());
            queue.close();
            worker.join().expect("the worker never panicked");
        });
        let counters = engine.trace().metrics().expect("enabled").counter_values();
        let count = |name: &str| counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
        assert_eq!(count("job.panicked"), Some(1));
        assert_eq!(count("server.program.built"), Some(3));
    }

    /// A refused request changes nothing on its connection: with the one
    /// queue slot held, `run_incremental` is answered `queue_full`, and the
    /// retry still carries every delta batch queued before it.
    #[cfg(unix)]
    #[test]
    fn a_refused_incremental_run_keeps_its_delta_batches() {
        use spdistal_client::proto::tensor_to_wire;
        use spdistal_client::{read_frame, write_frame};
        use std::os::unix::net::UnixStream;

        let engine = engine();
        let queue = Arc::new(AdmissionQueue::new(1));
        let stop = Arc::new(AtomicBool::new(false));
        let (mut client, server) = UnixStream::pair().expect("socket pair");
        let conn = {
            let (engine, queue, stop) = (engine.clone(), Arc::clone(&queue), Arc::clone(&stop));
            std::thread::spawn(move || {
                handle_conn(
                    Box::new(server),
                    &engine,
                    &queue,
                    &stop,
                    DEFAULT_MAX_FRAME,
                    1,
                )
            })
        };
        let send = |client: &mut UnixStream, req: Request| {
            write_frame(client, req.to_json().as_bytes()).expect("send");
        };
        let recv = |client: &mut UnixStream| {
            Event::parse(&read_frame(client, DEFAULT_MAX_FRAME).expect("frame")).expect("event")
        };

        let b = generate::banded(400, 7, 42);
        let n = b.dims()[0];
        let c = dense_vector(generate::dense_vec(n, 7));
        let a = dense_vector(vec![0.0; n]);
        for (name, format, data) in [
            ("a", "blocked_dense_vec", &a),
            ("B", "blocked_csr", &b),
            ("c", "replicated_dense_vec", &c),
        ] {
            let (coords, vals) = tensor_to_wire(data);
            let (name, format) = (name.to_string(), format.to_string());
            let dims = data.dims().to_vec();
            send(
                &mut client,
                Request::Register {
                    name,
                    format,
                    dims,
                    coords,
                    vals,
                },
            );
            assert!(matches!(recv(&mut client), Event::Ok));
        }
        for (coord, v) in b.to_coo().into_iter().take(2) {
            let deltas = vec![CoordDelta::overwrite(coord, v + 1.0)];
            send(
                &mut client,
                Request::UpdateBatch {
                    name: "B".to_string(),
                    deltas,
                },
            );
            assert!(matches!(recv(&mut client), Event::Ok));
        }

        // Hold the one slot, and be refused.
        let (holder, _stream) = spmv_job("holder", &Arc::default());
        queue.submit("holder", holder).expect("admitted");
        let stmts = vec![StmtSpec {
            tin: "a(i) = B(i,j) * c(j)".to_string(),
            schedule: "outer-dim".to_string(),
        }];
        send(
            &mut client,
            Request::RunIncremental {
                stmts: stmts.clone(),
            },
        );
        match recv(&mut client) {
            Event::Error { code, .. } => assert_eq!(code, "queue_full"),
            other => panic!("expected queue_full, got {}", other.to_json()),
        }

        // Free the slot, start a worker and retry: both batches run.
        drop(queue.try_next());
        let worker = {
            let (engine, queue) = (engine.clone(), Arc::clone(&queue));
            std::thread::spawn(move || {
                exec_loop(&engine, &queue, |engine, job, send| {
                    run_job(engine, job, ExecMode::Serial, send)
                })
            })
        };
        send(&mut client, Request::RunIncremental { stmts });
        let mut batches = Vec::new();
        let passes = loop {
            match recv(&mut client) {
                Event::IncrementalReport { iteration, .. } => batches.push(iteration),
                Event::Done { iterations, .. } => break iterations,
                Event::Error { message, .. } => panic!("{message}"),
                _ => {}
            }
        };
        queue.close();
        worker.join().expect("worker");
        stop.store(true, Ordering::SeqCst);
        conn.join().expect("connection thread").expect("clean end");
        assert_eq!(batches, [0, 1], "one incremental_report per queued batch");
        assert_eq!(passes, 3, "one cold pass and one per batch");
    }
}
