//! The blocking client: connect, register tensors, stream a submission's
//! events, fetch reports, request shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::Path;

use spdistal_sparse::{CoordDelta, SpTensor};

use crate::frame::{read_frame_into, FrameBuf, FrameError, DEFAULT_MAX_FRAME};
use crate::proto::{tensor_to_wire, Event, ProtoError, Request, StmtSpec};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    Io(std::io::Error),
    Frame(FrameError),
    Proto(ProtoError),
    /// The server answered with a typed [`Event::Error`].
    Server {
        code: String,
        message: String,
    },
    /// The server answered with an event the call did not expect.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Frame(e) => write!(f, "{e}"),
            ClientError::Proto(e) => write!(f, "{e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error [{code}]: {message}")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected server event: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> ClientError {
        ClientError::Frame(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> ClientError {
        ClientError::Proto(e)
    }
}

/// What a successful submission returned.
#[derive(Clone, Debug, Default)]
pub struct SubmitOutcome {
    /// `(statement index, output values)` in arrival order.
    pub results: Vec<(usize, Vec<f64>)>,
    pub iterations: usize,
    /// Plans this submission compiled (its plan-cache misses).
    pub compiles: usize,
    /// Plan-cache hits — nonzero on a warm shared cache.
    pub cache_hits: usize,
    pub wall_seconds: f64,
}

trait Stream: Read + Write + Send {}
impl<T: Read + Write + Send> Stream for T {}

/// A blocking connection to an `spd-server`.
pub struct Client {
    conn: Box<dyn Stream>,
    max_frame: usize,
    /// The frame each request is encoded into and sent from.
    out: FrameBuf,
    /// The frame each event is read into and decoded from.
    inbuf: Vec<u8>,
}

impl Client {
    pub fn connect_tcp(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        // A frame is a whole message: never hold one back for Nagle's
        // coalescing timer (the server does the same on accept). Failing
        // to set it costs latency, not correctness.
        let _ = stream.set_nodelay(true);
        Ok(Client::over(Box::new(stream)))
    }

    #[cfg(unix)]
    pub fn connect_uds(path: impl AsRef<Path>) -> Result<Client, ClientError> {
        Ok(Client::over(Box::new(UnixStream::connect(path)?)))
    }

    fn over(conn: Box<dyn Stream>) -> Client {
        Client {
            conn,
            max_frame: DEFAULT_MAX_FRAME,
            out: FrameBuf::default(),
            inbuf: Vec::new(),
        }
    }

    /// Cap accepted event payloads (default [`DEFAULT_MAX_FRAME`]).
    pub fn max_frame(mut self, max: usize) -> Client {
        self.max_frame = max;
        self
    }

    fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        req.write_json(self.out.payload());
        self.out.send(&mut self.conn)?;
        Ok(())
    }

    /// Send a request without waiting for the answer — for tooling and
    /// tests that deliberately walk away mid-exchange.
    pub fn send_request(&mut self, req: &Request) -> Result<(), ClientError> {
        self.send(req)
    }

    /// Read the next event, decoded straight from the reused frame.
    fn recv(&mut self) -> Result<Event, ClientError> {
        let payload = read_frame_into(&mut self.conn, self.max_frame, &mut self.inbuf)?;
        Ok(Event::parse(payload)?)
    }

    fn expect_ok(&mut self) -> Result<(), ClientError> {
        match self.recv()? {
            Event::Ok => Ok(()),
            Event::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(other.to_json())),
        }
    }

    /// Name this connection's tenant.
    pub fn hello(&mut self, tenant: &str) -> Result<(), ClientError> {
        self.send(&Request::Hello {
            tenant: tenant.to_string(),
        })?;
        match self.recv()? {
            Event::Welcome { .. } => Ok(()),
            Event::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(other.to_json())),
        }
    }

    /// Register `data` under `name` with the named format preset.
    pub fn register_tensor(
        &mut self,
        name: &str,
        format: &str,
        data: &SpTensor,
    ) -> Result<(), ClientError> {
        let (coords, vals) = tensor_to_wire(data);
        self.send(&Request::Register {
            name: name.to_string(),
            format: format.to_string(),
            dims: data.dims().to_vec(),
            coords,
            vals,
        })?;
        self.expect_ok()
    }

    /// Submit a program over the tensors registered on this connection and
    /// stream its events into `on_event` until the terminal `done`
    /// (returned as a [`SubmitOutcome`]) or `error` (returned as
    /// [`ClientError::Server`]).
    pub fn submit(
        &mut self,
        stmts: &[(&str, &str)],
        iters: usize,
        pipelined: bool,
        mut on_event: impl FnMut(&Event),
    ) -> Result<SubmitOutcome, ClientError> {
        self.send(&Request::Submit {
            stmts: stmts
                .iter()
                .map(|(tin, schedule)| StmtSpec {
                    tin: tin.to_string(),
                    schedule: schedule.to_string(),
                })
                .collect(),
            iters,
            pipelined,
        })?;
        let mut outcome = SubmitOutcome::default();
        loop {
            let ev = self.recv()?;
            on_event(&ev);
            match ev {
                Event::Result { stmt, vals } => outcome.results.push((stmt, vals)),
                Event::Done {
                    iterations,
                    compiles,
                    cache_hits,
                    wall_seconds,
                } => {
                    outcome.iterations = iterations;
                    outcome.compiles = compiles;
                    outcome.cache_hits = cache_hits;
                    outcome.wall_seconds = wall_seconds;
                    return Ok(outcome);
                }
                Event::Error { code, message } => {
                    return Err(ClientError::Server { code, message })
                }
                _ => {}
            }
        }
    }

    /// Queue a delta batch against a tensor registered on this
    /// connection. Queued batches feed the next [`submit_incremental`]
    /// call; the registered base tensor is not mutated.
    ///
    /// [`submit_incremental`]: Client::submit_incremental
    pub fn update_batch(&mut self, name: &str, deltas: &[CoordDelta]) -> Result<(), ClientError> {
        self.send(&Request::UpdateBatch {
            name: name.to_string(),
            deltas: deltas.to_vec(),
        })?;
        self.expect_ok()
    }

    /// Submit a program for incremental execution: the server runs one
    /// cold full pass, then re-runs incrementally after each delta batch
    /// queued via [`Client::update_batch`], streaming an
    /// [`Event::IncrementalReport`] per statement per batch into
    /// `on_event` alongside the usual result/terminal events.
    pub fn submit_incremental(
        &mut self,
        stmts: &[(&str, &str)],
        mut on_event: impl FnMut(&Event),
    ) -> Result<SubmitOutcome, ClientError> {
        self.send(&Request::RunIncremental {
            stmts: stmts
                .iter()
                .map(|(tin, schedule)| StmtSpec {
                    tin: tin.to_string(),
                    schedule: schedule.to_string(),
                })
                .collect(),
        })?;
        let mut outcome = SubmitOutcome::default();
        loop {
            let ev = self.recv()?;
            on_event(&ev);
            match ev {
                Event::Result { stmt, vals } => outcome.results.push((stmt, vals)),
                Event::Done {
                    iterations,
                    compiles,
                    cache_hits,
                    wall_seconds,
                } => {
                    outcome.iterations = iterations;
                    outcome.compiles = compiles;
                    outcome.cache_hits = cache_hits;
                    outcome.wall_seconds = wall_seconds;
                    return Ok(outcome);
                }
                Event::Error { code, message } => {
                    return Err(ClientError::Server { code, message })
                }
                _ => {}
            }
        }
    }

    /// Fetch the server's merged run report (one JSON line).
    pub fn report(&mut self) -> Result<String, ClientError> {
        self.send(&Request::Report)?;
        match self.recv()? {
            Event::Report { json } => Ok(json),
            Event::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(other.to_json())),
        }
    }

    /// Ask the server to drain in-flight flushes and exit.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Shutdown)?;
        self.expect_ok()
    }
}
