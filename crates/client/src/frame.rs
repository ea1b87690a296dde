//! Length-prefixed framing: every protocol message is a 4-byte big-endian
//! payload length followed by that many bytes of UTF-8 JSON.
//!
//! Two readers are provided: blocking [`read_frame`] for clients, and the
//! incremental [`FrameReader`] for servers that poll a shutdown flag —
//! it accumulates partial reads across timeouts without ever losing frame
//! sync, and surfaces truncation/oversize as typed [`FrameError`]s
//! instead of protocol desync.

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

/// Write one frame: 4-byte big-endian length, then the payload, flushed.
/// Header and payload leave in **one** write: on a socket two small writes
/// per frame are what Nagle's algorithm and the peer's delayed ACK turn
/// into a 40 ms stall (the streams also set `TCP_NODELAY`).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame over 4 GiB"))?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
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

/// Blocking read of one whole frame. Payloads over `max` bytes error
/// without being read (the connection is no longer in sync after an
/// `Oversized` error — close it).
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Vec<u8>, FrameError> {
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
    let mut payload = vec![0u8; len];
    match read_exact_or_eof(r, &mut payload)? {
        got if got == len => Ok(payload),
        got => Err(FrameError::Truncated { expected: len, got }),
    }
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
