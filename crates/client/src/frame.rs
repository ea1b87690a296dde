//! Length-prefixed framing: every protocol message is a 4-byte big-endian
//! payload length followed by that many bytes of UTF-8 JSON.
//!
//! One send path: a [`FrameBuf`] is a connection's reused frame, the 4
//! header bytes reserved at its front and the payload encoded straight
//! behind them, sent with one `write_all` ([`write_frame`] sends a payload
//! that already exists through one).
//!
//! Two readers are provided: blocking [`read_frame_into`] for clients,
//! which reads each frame into the caller's reused buffer ([`read_frame`]
//! into a fresh one), and the incremental [`FrameReader`] for servers that
//! poll a shutdown flag — it accumulates partial reads across timeouts
//! without ever losing frame sync, and surfaces truncation/oversize as
//! typed [`FrameError`]s instead of protocol desync.

use std::io::{self, Read, Write};

/// Default per-frame payload cap: 32 MiB (a registration of a few million
/// non-zeros fits; a corrupt length prefix does not).
pub const DEFAULT_MAX_FRAME: usize = 32 << 20;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// EOF exactly on a frame boundary — the peer closed cleanly.
    Closed,
    /// EOF inside a header or payload: `got` of `expected` bytes arrived.
    Truncated {
        expected: usize,
        got: usize,
    },
    /// The header announced a payload over the configured cap.
    Oversized {
        len: usize,
        max: usize,
    },
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed at a frame boundary"),
            FrameError::Truncated { expected, got } => {
                write!(
                    f,
                    "truncated frame: got {got} of {expected} bytes before EOF"
                )
            }
            FrameError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// A reused frame buffer: [`FrameBuf::payload`] starts a frame, the
/// caller appends the payload, and [`FrameBuf::send`] fills in the header
/// and writes header and payload in **one** write: on a socket two small
/// writes per frame are what Nagle's algorithm and the peer's delayed ACK
/// turn into a 40 ms stall (the streams also set `TCP_NODELAY`). The
/// buffer keeps its capacity between frames, up to 1 MiB.
#[derive(Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
}

/// The most a [`FrameBuf`] keeps allocated between frames: a connection
/// that once sent a larger frame does not hold its size for the rest of
/// its life.
const KEEP_CAPACITY: usize = 1 << 20;

impl FrameBuf {
    /// Start a frame: the buffer, holding only the 4 reserved header bytes,
    /// for the payload to be appended to (append only).
    pub fn payload(&mut self) -> &mut Vec<u8> {
        self.buf.clear();
        self.buf.extend_from_slice(&[0; 4]);
        &mut self.buf
    }

    /// Fill in the header of the frame started by [`FrameBuf::payload`] and
    /// write it, flushed: the bytes [`write_frame`] writes for the payload.
    pub fn send(&mut self, w: &mut impl Write) -> io::Result<()> {
        let len = self
            .buf
            .len()
            .checked_sub(4)
            .expect("a frame starts at payload()");
        let len = u32::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame over 4 GiB"))?;
        self.buf[..4].copy_from_slice(&len.to_be_bytes());
        let sent = w.write_all(&self.buf).and_then(|()| w.flush());
        if self.buf.capacity() > KEEP_CAPACITY {
            self.buf = Vec::new();
        }
        sent
    }
}

/// Write one frame: 4-byte big-endian length, then the payload, flushed,
/// in one write (see [`FrameBuf`], which this copies `payload` into).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = FrameBuf::default();
    frame.payload().extend_from_slice(payload);
    frame.send(w)
}

fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(got)
}

/// Blocking read of one whole frame into `buf`, reused across frames: the
/// payload is the slice returned (`buf` only grows, so a frame no larger
/// than an earlier one is read without touching the rest). Payloads over
/// `max` bytes error without being read (the connection is no longer in
/// sync after an `Oversized` error — close it).
pub fn read_frame_into<'b>(
    r: &mut impl Read,
    max: usize,
    buf: &'b mut Vec<u8>,
) -> Result<&'b [u8], FrameError> {
    let mut header = [0u8; 4];
    match read_exact_or_eof(r, &mut header)? {
        0 => return Err(FrameError::Closed),
        4 => {}
        got => return Err(FrameError::Truncated { expected: 4, got }),
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > max {
        return Err(FrameError::Oversized { len, max });
    }
    if buf.len() < len {
        buf.resize(len, 0);
    }
    match read_exact_or_eof(r, &mut buf[..len])? {
        got if got == len => Ok(&buf[..len]),
        got => Err(FrameError::Truncated { expected: len, got }),
    }
}

/// [`read_frame_into`] a fresh buffer.
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Vec<u8>, FrameError> {
    let mut payload = Vec::new();
    read_frame_into(r, max, &mut payload)?;
    Ok(payload)
}

/// An incremental frame accumulator for readers with a read timeout.
///
/// [`FrameReader::poll`] returns `Ok(Some(payload))` once a whole frame
/// is buffered, `Ok(None)` when the underlying read timed out
/// (`WouldBlock`/`TimedOut`) mid-frame — the caller checks its shutdown
/// flag and polls again — and `Err` on EOF, an oversized header, or any
/// other I/O error.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Bytes expected for the frame currently being accumulated (header
    /// size until the header is complete).
    fn expected(&self) -> usize {
        if self.buf.len() < 4 {
            4
        } else {
            let mut header = [0u8; 4];
            header.copy_from_slice(&self.buf[..4]);
            4 + u32::from_be_bytes(header) as usize
        }
    }

    fn take_frame(&mut self, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let mut header = [0u8; 4];
        header.copy_from_slice(&self.buf[..4]);
        let len = u32::from_be_bytes(header) as usize;
        if len > max {
            return Err(FrameError::Oversized { len, max });
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let payload = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(payload))
    }

    /// Pull bytes from `r` until a whole frame is buffered or the read
    /// would block. See the type docs for the return contract.
    pub fn poll(&mut self, r: &mut impl Read, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(frame) = self.take_frame(max)? {
                return Ok(Some(frame));
            }
            match r.read(&mut chunk) {
                Ok(0) => {
                    return Err(if self.buf.is_empty() {
                        FrameError::Closed
                    } else {
                        FrameError::Truncated {
                            expected: self.expected(),
                            got: self.buf.len(),
                        }
                    })
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"world").unwrap();
        let mut r = Cursor::new(wire);
        assert_eq!(read_frame(&mut r, 64).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 64).unwrap(), b"");
        assert_eq!(read_frame(&mut r, 64).unwrap(), b"world");
        assert!(matches!(read_frame(&mut r, 64), Err(FrameError::Closed)));
    }

    #[test]
    fn a_frame_is_one_write() {
        struct CountWrites(Vec<usize>);
        impl Write for CountWrites {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = CountWrites(Vec::new());
        write_frame(&mut w, b"hello").unwrap();
        assert_eq!(w.0, [9], "header and payload must leave together");
    }

    /// The wire's own definition of a frame: header, then payload.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut wire = (payload.len() as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(payload);
        wire
    }

    #[test]
    fn a_reused_frame_sends_the_write_frame_bytes_through_short_and_interrupted_writes() {
        /// Takes at most `max` bytes per call, after `interrupts` calls that
        /// return `Interrupted`; counts the calls that took bytes.
        struct Stingy {
            wire: Vec<u8>,
            max: usize,
            interrupts: usize,
            writes: usize,
        }
        impl Write for Stingy {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.interrupts > 0 {
                    self.interrupts -= 1;
                    return Err(io::Error::from(io::ErrorKind::Interrupted));
                }
                let n = buf.len().min(self.max);
                self.wire.extend_from_slice(&buf[..n]);
                self.writes += 1;
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let stingy = |max, interrupts| Stingy {
            wire: Vec::new(),
            max,
            interrupts,
            writes: 0,
        };
        // A 4 096-value result frame (43.7 KB), a small one and an empty
        // one, each sent twice from the one reused buffer.
        let result = crate::proto::Event::Result {
            stmt: 0,
            vals: (0..4096).map(|i| i as f64 * 0.25 - 3.0).collect(),
        };
        let payloads = [
            result.to_json().into_bytes(),
            b"{\"type\":\"ok\"}".to_vec(),
            Vec::new(),
        ];
        let mut frame = FrameBuf::default();
        for payload in payloads.iter().chain(&payloads) {
            let mut old = Vec::new();
            write_frame(&mut old, payload).unwrap();
            assert_eq!(old, framed(payload));
            for (max, interrupts) in [(7, 0), (usize::MAX, 1), (7, 3), (usize::MAX, 0)] {
                let mut w = stingy(max, interrupts);
                frame.payload().extend_from_slice(payload);
                frame.send(&mut w).unwrap();
                assert_eq!(
                    w.wire, old,
                    "at most {max} bytes a call, {interrupts} interrupts"
                );
                if max == usize::MAX {
                    assert_eq!(w.writes, 1, "a writer that takes it all gets one write");
                }
            }
        }
        // The event encoder writes the payload straight into the frame.
        let mut w = stingy(usize::MAX, 0);
        result.write_json(frame.payload());
        frame.send(&mut w).unwrap();
        assert_eq!((w.wire, w.writes), (framed(&payloads[0]), 1));
        // A frame over KEEP_CAPACITY is sent whole, then let go of.
        let big = vec![b'x'; KEEP_CAPACITY + 1];
        let mut w = stingy(usize::MAX, 0);
        frame.payload().extend_from_slice(&big);
        frame.send(&mut w).unwrap();
        assert_eq!((w.wire, frame.buf.capacity()), (framed(&big), 0));
    }

    #[test]
    fn a_reused_read_buffer_returns_each_frame_whatever_it_held() {
        let mut wire = Vec::new();
        for payload in [
            &b"a longer first frame"[..],
            b"short",
            b"",
            b"a longer last frame",
        ] {
            write_frame(&mut wire, payload).unwrap();
        }
        let mut r = Cursor::new(wire);
        let mut buf = Vec::new();
        for want in [
            &b"a longer first frame"[..],
            b"short",
            b"",
            b"a longer last frame",
        ] {
            assert_eq!(read_frame_into(&mut r, 64, &mut buf).unwrap(), want);
        }
        assert!(matches!(
            read_frame_into(&mut r, 64, &mut buf),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn truncation_is_typed_at_header_and_payload() {
        // 3 of 4 header bytes.
        let mut r = Cursor::new(vec![0u8, 0, 0]);
        assert!(matches!(
            read_frame(&mut r, 64),
            Err(FrameError::Truncated {
                expected: 4,
                got: 3
            })
        ));
        // Header promises 10 bytes, 4 arrive.
        let mut wire = 10u32.to_be_bytes().to_vec();
        wire.extend_from_slice(b"abcd");
        let mut r = Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut r, 64),
            Err(FrameError::Truncated {
                expected: 10,
                got: 4
            })
        ));
    }

    #[test]
    fn oversized_header_is_rejected_before_reading_the_payload() {
        let wire = 1_000_000u32.to_be_bytes().to_vec();
        let mut r = Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut r, 1024),
            Err(FrameError::Oversized {
                len: 1_000_000,
                max: 1024
            })
        ));
    }

    /// A reader that yields one byte per call, interleaving `WouldBlock`
    /// timeouts — the worst case for frame-sync bookkeeping.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        block_next: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.block_next {
                self.block_next = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout"));
            }
            self.block_next = true;
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn frame_reader_survives_timeouts_and_single_byte_reads() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abc").unwrap();
        write_frame(&mut wire, b"defg").unwrap();
        let mut r = Trickle {
            data: wire,
            pos: 0,
            block_next: false,
        };
        let mut fr = FrameReader::new();
        let mut frames = Vec::new();
        loop {
            match fr.poll(&mut r, 64) {
                Ok(Some(f)) => frames.push(f),
                Ok(None) => continue, // timeout: caller would check shutdown
                Err(FrameError::Closed) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(frames, vec![b"abc".to_vec(), b"defg".to_vec()]);
    }

    #[test]
    fn frame_reader_reports_truncated_eof_mid_frame() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abcdef").unwrap();
        wire.truncate(7); // header + 3 of 6 payload bytes
        let mut r = Cursor::new(wire);
        let mut fr = FrameReader::new();
        assert!(matches!(
            fr.poll(&mut r, 64),
            Err(FrameError::Truncated {
                expected: 10,
                got: 7
            })
        ));
    }
}
