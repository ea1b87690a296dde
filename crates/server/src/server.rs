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
//!   executing worker to the socket;
//! - `workers` **execution workers**: pop jobs round-robin across tenants
//!   from the [`AdmissionQueue`] and run them through the Program
//!   pipeline against the shared plan cache.
//!
//! Shutdown (a `shutdown` request, [`Server::shutdown_handle`], SIGTERM,
//! or ctrl-c) stops accepting, closes the queue, drains every admitted
//! job, joins all threads, optionally writes the Chrome trace, and — for
//! a UDS endpoint — unlinks the socket path.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use spdistal::prelude::*;
use spdistal::OutputValue;
use spdistal_client::frame::{write_frame, FrameError, FrameReader, DEFAULT_MAX_FRAME};
use spdistal_client::proto::{format_by_name, tensor_from_wire, Event, Request};
use spdistal_sparse::{CoordDelta, SpTensor};

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

    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            #[cfg(unix)]
            Listener::Uds(l, _) => l.accept().map(|(s, _)| Conn::Uds(s)),
        }
    }
}

enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Uds(UnixStream),
}

impl Conn {
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(dur),
            #[cfg(unix)]
            Conn::Uds(s) => s.set_read_timeout(dur),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Uds(s) => s.flush(),
        }
    }
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

/// One admitted submission, carried from a connection thread to an
/// execution worker. The event sender streams progress back; if the
/// client vanished, sends fail silently and the job still completes (the
/// shared cache keeps the compiled plan either way).
struct Job {
    tenant: String,
    tensors: Vec<(String, Format, SpTensor)>,
    stmts: Vec<(String, ScheduleSpec)>,
    iters: usize,
    pipelined: bool,
    /// Streamed delta batches, in arrival order, for an incremental job.
    deltas: Vec<(String, Vec<CoordDelta>)>,
    /// Incremental jobs run one cold pass, then `run_incremental` per
    /// delta batch (streaming `incremental_report` events) instead of
    /// `iters` full passes.
    incremental: bool,
    events: mpsc::Sender<Event>,
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
                std::thread::spawn(move || exec_loop(engine, queue, exec_mode))
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

fn send_event(conn: &mut Conn, ev: &Event) -> io::Result<()> {
    write_frame(conn, ev.to_json().as_bytes())
}

fn schedule_by_name(name: &str) -> Option<ScheduleSpec> {
    Some(match name {
        "auto" => ScheduleSpec::Auto,
        "outer-dim" => ScheduleSpec::outer_dim(),
        "non-zero" => ScheduleSpec::nonzero(),
        _ => return None,
    })
}

/// Validate and materialize one registration into the connection's tensor
/// table (re-registering a name replaces it). Returns the answer event.
fn register_tensor(
    name: String,
    format_name: &str,
    dims: Vec<usize>,
    coords: &[Vec<i64>],
    vals: &[f64],
    tensors: &mut Vec<(String, Format, SpTensor)>,
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
    for coord in coords {
        if coord.len() != dims.len()
            || coord
                .iter()
                .zip(&dims)
                .any(|(c, d)| *c < 0 || *c >= *d as i64)
        {
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
        if d.coord.len() != dims.len()
            || d.coord
                .iter()
                .zip(dims)
                .any(|(c, dim)| *c < 0 || *c >= *dim as i64)
        {
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
    mut conn: Conn,
    engine: &Engine,
    queue: &Arc<AdmissionQueue<Job>>,
    stop: &Arc<AtomicBool>,
    max_frame: usize,
    conn_id: u64,
) -> Result<(), ConnError> {
    let _ = conn.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = FrameReader::new();
    let mut tenant = format!("conn-{conn_id}");
    let mut tensors: Vec<(String, Format, SpTensor)> = Vec::new();
    let mut pending_deltas: Vec<(String, Vec<CoordDelta>)> = Vec::new();
    // Answer-path sends must reach the peer; a failure is a disconnect.
    macro_rules! answer {
        ($ev:expr) => {
            send_event(&mut conn, &$ev).map_err(|source| ConnError::Disconnected {
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
                let _ = send_event(&mut conn, &error_event("truncated_frame", &e));
                return Err(ConnError::Frame(e));
            }
            Err(e @ FrameError::Oversized { .. }) => {
                let _ = send_event(&mut conn, &error_event("frame_too_large", &e));
                return Err(ConnError::Frame(e));
            }
            Err(e) => return Err(ConnError::Frame(e)),
        };
        let request = match Request::parse(&payload) {
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
                answer!(register_tensor(
                    name,
                    &format,
                    dims,
                    &coords,
                    &vals,
                    &mut tensors
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
                let mut specs = Vec::with_capacity(stmts.len());
                let mut bad_schedule = None;
                for s in &stmts {
                    match schedule_by_name(&s.schedule) {
                        Some(spec) => specs.push((s.tin.clone(), spec)),
                        None => {
                            bad_schedule = Some(s.schedule.clone());
                            break;
                        }
                    }
                }
                if let Some(name) = bad_schedule {
                    answer!(error_event(
                        "bad_schedule",
                        &format!("unknown schedule '{name}' (auto | outer-dim | non-zero)"),
                    ));
                    continue;
                }
                let (events, stream) = mpsc::channel();
                let job = Job {
                    tenant: tenant.clone(),
                    tensors: tensors.clone(),
                    stmts: specs,
                    iters,
                    pipelined,
                    deltas: if incremental {
                        std::mem::take(&mut pending_deltas)
                    } else {
                        Vec::new()
                    },
                    incremental,
                    events,
                };
                match queue.submit(&tenant, job) {
                    Err(AdmissionError::QueueFull { capacity }) => {
                        answer!(error_event(
                            "queue_full",
                            &format!("admission queue full ({capacity} jobs); retry later"),
                        ));
                    }
                    Err(AdmissionError::Closed) => {
                        answer!(error_event("server_shutdown", &"server is draining"));
                    }
                    Ok(()) => {
                        // Forward the worker's event stream. A send
                        // failure means the client vanished mid-flush:
                        // typed error for the log, the job itself still
                        // completes on the worker, and the server keeps
                        // serving everyone else.
                        while let Ok(ev) = stream.recv() {
                            let terminal = ev.is_terminal();
                            send_event(&mut conn, &ev).map_err(|source| {
                                ConnError::Disconnected {
                                    during: "submission event stream",
                                    source,
                                }
                            })?;
                            if terminal {
                                break;
                            }
                        }
                    }
                }
            }
            Request::Report => {
                answer!(Event::Report {
                    json: engine.trace().run_report_json("spd-server"),
                });
            }
            Request::Shutdown => {
                let _ = send_event(&mut conn, &Event::Ok);
                stop.store(true, Ordering::SeqCst);
                return Ok(());
            }
        }
    }
}

/// Worker loop: drain the admission queue until it is closed and empty.
fn exec_loop(engine: Engine, queue: Arc<AdmissionQueue<Job>>, exec_mode: ExecMode) {
    while let Some((_tenant, job)) = queue.next() {
        let send = |ev: Event| {
            let _ = job.events.send(ev);
        };
        if let Err(e) = run_job(&engine, &job, exec_mode, &send) {
            send(error_event("exec", &e));
        }
    }
}

/// Build and run one submission through the Program pipeline, streaming
/// auto decisions, per-iteration flush summaries, kernel-dispatch
/// counters, results, and the terminal `done`.
fn run_job(
    engine: &Engine,
    job: &Job,
    exec_mode: ExecMode,
    send: &dyn Fn(Event),
) -> Result<(), spdistal::Error> {
    let mut builder = engine.tenant(&job.tenant).exec_mode(exec_mode);
    for (name, format, data) in &job.tensors {
        builder = builder.tensor(name, format.clone(), data.clone());
    }
    for (tin, spec) in &job.stmts {
        builder = builder.stmt(tin).schedule(spec.clone());
    }
    if !job.pipelined {
        builder = builder.launch_at_a_time();
    }
    let mut program = builder.build()?;

    // Kernel-dispatch counters are engine-wide; stream this job's deltas.
    let dispatch = |m: &spdistal::obs::MetricsRegistry| {
        (
            m.counter("kernel.specialized").get(),
            m.counter("kernel.fallback").get(),
        )
    };
    let base = engine.trace().metrics().map(dispatch);

    let mut decisions_sent = 0;
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
            batches: report.batches,
            tasks: report.tasks,
            spans: report.spans,
            steals: report.steals,
            wall_seconds: report.wall_seconds,
        });
        if let (Some(m), Some((s0, f0))) = (engine.trace().metrics(), base) {
            let (s, f) = dispatch(m);
            send(Event::KernelDispatch {
                specialized: s.saturating_sub(s0),
                fallback: f.saturating_sub(f0),
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
        flush(&program, job.deltas.len());
    } else {
        for iteration in 0..job.iters.max(1) {
            program.run()?;
            flush(&program, iteration);
        }
    }

    for k in 0..program.stmt_count() {
        let vals = match program.value(k) {
            Some(OutputValue::Dense(v)) => v.clone(),
            Some(OutputValue::Tensor(t)) => t.vals().to_vec(),
            None => Vec::new(),
        };
        send(Event::Result { stmt: k, vals });
    }
    let report = program.report();
    send(Event::Done {
        iterations: report.iterations,
        compiles: report.compiles,
        cache_hits: report.cache_hits,
        wall_seconds: report.wall_seconds,
    });
    Ok(())
}
