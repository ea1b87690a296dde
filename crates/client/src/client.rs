//! The blocking client: connect, register tensors, stream a submission's
//! events, fetch reports, request shutdown.

use std::io::{self, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use spdistal_sparse::{CoordDelta, SpTensor};

use crate::frame::{FrameBuf, FrameError, FrameReader, DEFAULT_MAX_FRAME};
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

/// A connected TCP or Unix-domain stream: what both ends of the wire hold,
/// boxed, whichever endpoint they speak over.
pub trait Socket: Read + Write + Send {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
}

impl Socket for TcpStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_write_timeout(self, timeout)
    }
}

#[cfg(unix)]
impl Socket for UnixStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        UnixStream::set_read_timeout(self, timeout)
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        UnixStream::set_write_timeout(self, timeout)
    }
}

/// A blocking connection to an `spd-server`.
pub struct Client {
    conn: Box<dyn Socket>,
    max_frame: usize,
    /// The frame each request is encoded into and sent from.
    out: FrameBuf,
    /// The reader each event is read by and decoded from.
    reader: FrameReader,
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

    fn over(conn: Box<dyn Socket>) -> Client {
        Client {
            conn,
            max_frame: DEFAULT_MAX_FRAME,
            out: FrameBuf::default(),
            reader: FrameReader::new(),
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

    /// Read the next event, decoded straight from the reader's buffer.
    fn recv(&mut self) -> Result<Event, ClientError> {
        loop {
            if let Some(payload) = self.reader.poll(&mut self.conn, self.max_frame)? {
                return Ok(Event::parse(payload)?);
            }
        }
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
        on_event: impl FnMut(&Event),
    ) -> Result<SubmitOutcome, ClientError> {
        self.send(&Request::Submit {
            stmts: stmt_specs(stmts),
            iters,
            pipelined,
        })?;
        self.outcome(on_event)
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
        on_event: impl FnMut(&Event),
    ) -> Result<SubmitOutcome, ClientError> {
        self.send(&Request::RunIncremental {
            stmts: stmt_specs(stmts),
        })?;
        self.outcome(on_event)
    }

    /// Stream a submission's events into `on_event` until its terminal
    /// `done` or `error`.
    fn outcome(&mut self, mut on_event: impl FnMut(&Event)) -> Result<SubmitOutcome, ClientError> {
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

fn stmt_specs(stmts: &[(&str, &str)]) -> Vec<StmtSpec> {
    stmts
        .iter()
        .map(|(tin, schedule)| StmtSpec {
            tin: tin.to_string(),
            schedule: schedule.to_string(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::write_frame;
    use std::collections::VecDeque;

    /// A server's side of a connection: each read hands out the next
    /// scripted chunk whole; what the client writes is dropped.
    struct Replay(VecDeque<Vec<u8>>);

    impl Read for Replay {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(chunk) = self.0.pop_front() else {
                return Ok(0);
            };
            buf[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }

    impl Write for Replay {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Socket for Replay {
        fn set_read_timeout(&self, _: Option<Duration>) -> io::Result<()> {
            Ok(())
        }
        fn set_write_timeout(&self, _: Option<Duration>) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_result_and_done_in_one_read_give_the_outcome_of_two_reads() {
        let frame = |ev: Event| {
            let mut wire = Vec::new();
            write_frame(&mut wire, ev.to_json().as_bytes()).unwrap();
            wire
        };
        let result = frame(Event::Result {
            stmt: 0,
            vals: vec![1.5, -0.0, f64::NAN, 3.0],
        });
        let done = frame(Event::Done {
            iterations: 2,
            compiles: 1,
            cache_hits: 3,
            wall_seconds: 0.25,
        });
        let submit = |chunks: Vec<Vec<u8>>| {
            let mut events = Vec::new();
            let outcome = Client::over(Box::new(Replay(chunks.into())))
                .submit(&[("a(i) = B(i,j) * c(j)", "auto")], 2, true, |ev| {
                    events.push(ev.to_json())
                })
                .unwrap();
            let values = |(stmt, vals): &(usize, Vec<f64>)| {
                (*stmt, vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            };
            let summary = (
                outcome.results.iter().map(values).collect::<Vec<_>>(),
                outcome.iterations,
                outcome.compiles,
                outcome.cache_hits,
                outcome.wall_seconds.to_bits(),
            );
            (summary, events)
        };
        let two_reads = submit(vec![result.clone(), done.clone()]);
        assert_eq!(submit(vec![[result, done].concat()]), two_reads);
        assert_eq!(two_reads.0 .1, 2);
        assert_eq!(two_reads.1.len(), 2);
    }
}
