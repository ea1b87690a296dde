//! Length-prefixed framing: every protocol message is a 4-byte big-endian
//! payload length followed by that many bytes of UTF-8 JSON.
//!
//! One send path: a [`FrameBuf`] is a connection's reused frame, the 4
//! header bytes reserved at its front and the payload encoded straight
//! behind them, sent with one `write_all` ([`write_frame`] sends a payload
//! that already exists through one).
//!
//! One reader: a [`FrameReader`] is a connection's reused read buffer,
//! polled by the client (blocking) and the server (against a read timeout,
//! so it can check its shutdown flag): it accumulates partial reads across
//! timeouts without ever losing frame sync, returns each payload borrowed
//! from its buffer, and surfaces truncation/oversize as typed
//! [`FrameError`]s instead of protocol desync ([`read_frame`] reads one
//! frame with a fresh one).

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

/// One frame read by a fresh [`FrameReader`], copied out. A fresh reader
/// holds no buffer, so it reads exactly the frame's bytes and leaves the
/// rest of `r` unread: successive calls read successive frames. A read
/// timeout (`WouldBlock`/`TimedOut`) is returned as [`FrameError::Io`].
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Vec<u8>, FrameError> {
    match FrameReader::default().poll(r, max)? {
        Some(payload) => Ok(payload.to_vec()),
        None => Err(FrameError::Io(io::ErrorKind::WouldBlock.into())),
    }
}

/// The one frame reader, blocking or polled against a read timeout.
///
/// [`FrameReader::poll`] returns `Ok(Some(payload))` once a whole frame
/// is buffered, the payload borrowed from the reader until the next poll;
/// `Ok(None)` when the underlying read timed out (`WouldBlock`/`TimedOut`)
/// mid-frame, with what arrived kept, so the caller can check its
/// shutdown flag and poll again without losing frame sync; and `Err` on
/// EOF, an oversized header (before its payload is read) or any other
/// I/O error. `Interrupted` reads are retried.
///
/// Each read fills the buffer's spare length (16 KiB at least once
/// [`FrameReader::new`] made it), so a small frame costs one read, and
/// bytes past a frame wait in the buffer for the next poll. A frame larger
/// than the buffer grows it by doubling what has arrived, never past the
/// frame's end, so memory follows the bytes received rather than the
/// length a header claims. The buffer is reused across frames; one grown
/// past 1 MiB for a frame is let go of before the next read, as a
/// [`FrameBuf`] is after its send.
#[derive(Default)]
pub struct FrameReader {
    /// `buf[start..end]` arrived and is not returned yet; `buf[end..]` is
    /// room for the next read.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

/// The buffer [`FrameReader::new`] starts with.
const READ_CHUNK: usize = 16 * 1024;

impl FrameReader {
    pub fn new() -> FrameReader {
        FrameReader {
            buf: vec![0; READ_CHUNK],
            ..FrameReader::default()
        }
    }

    /// Pull bytes from `r` until a whole frame is buffered or the read
    /// would block. See the type docs for the return contract.
    pub fn poll(&mut self, r: &mut impl Read, max: usize) -> Result<Option<&[u8]>, FrameError> {
        loop {
            let (start, got) = (self.start, self.end - self.start);
            let want = if got < 4 {
                4
            } else {
                let header = self.buf[start..start + 4].try_into().unwrap();
                let len = u32::from_be_bytes(header) as usize;
                if len > max {
                    return Err(FrameError::Oversized { len, max });
                }
                if got >= 4 + len {
                    self.start += 4 + len;
                    return Ok(Some(&self.buf[start + 4..start + 4 + len]));
                }
                4 + len
            };
            // Make room for the rest of this frame: what arrived of it
            // moves to the front, and a buffer grown past KEEP_CAPACITY
            // for an earlier frame is let go of.
            if start > 0 {
                self.buf.copy_within(start..self.end, 0);
                (self.start, self.end) = (0, got);
            }
            if self.buf.capacity() > KEEP_CAPACITY && want <= KEEP_CAPACITY {
                self.buf.truncate(got.max(READ_CHUNK));
                self.buf.shrink_to_fit();
            }
            // The buffer grows with the bytes that arrived, doubling, not
            // with what the header claims: a peer that sends a header
            // alone holds one chunk of memory, not the frame's length.
            let room = want.min(READ_CHUNK.max(2 * got));
            if self.buf.len() < room {
                self.buf.resize(room, 0);
            }
            match r.read(&mut self.buf[got..]) {
                Ok(0) if got == 0 => return Err(FrameError::Closed),
                Ok(0) => {
                    // Count the part that came short: the header or the payload.
                    let (expected, got) = if got < 4 {
                        (4, got)
                    } else {
                        (want - 4, got - 4)
                    };
                    return Err(FrameError::Truncated { expected, got });
                }
                Ok(n) => self.end += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
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

    /// A reader that hands out a scripted sequence of reads: each step
    /// delivers its bytes (as many as fit; the rest are the next step) or
    /// fails with its error kind. Past the script: EOF. Counts its calls.
    struct Script {
        steps: VecDeque<Result<Vec<u8>, io::ErrorKind>>,
        reads: usize,
    }

    impl Script {
        fn new(steps: impl IntoIterator<Item = Result<Vec<u8>, io::ErrorKind>>) -> Script {
            Script {
                steps: steps.into_iter().collect(),
                reads: 0,
            }
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            match self.steps.pop_front() {
                None => Ok(0),
                Some(Err(kind)) => Err(kind.into()),
                Some(Ok(mut bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.steps.push_front(Ok(bytes.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    /// What a reader makes of a stream: each frame, then the error that
    /// ended it, as text (timeouts are polled again).
    type Frames = Vec<Result<Vec<u8>, String>>;

    fn polled(reader: &mut FrameReader, r: &mut impl Read, max: usize) -> Frames {
        let mut frames = Vec::new();
        loop {
            match reader.poll(r, max) {
                Ok(Some(payload)) => frames.push(Ok(payload.to_vec())),
                Ok(None) => {}
                Err(e) => {
                    frames.push(Err(e.to_string()));
                    return frames;
                }
            }
        }
    }

    /// The same, by [`read_frame`] over the bytes in one piece.
    fn read_frames(mut wire: &[u8], max: usize) -> Frames {
        let mut frames = Vec::new();
        loop {
            match read_frame(&mut wire, max) {
                Ok(payload) => frames.push(Ok(payload)),
                Err(e) => {
                    frames.push(Err(e.to_string()));
                    return frames;
                }
            }
        }
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
        let frames = polled(&mut FrameReader::new(), &mut Cursor::new(&wire), 64);
        assert_eq!(frames, read_frames(&wire, 64));
        assert_eq!(frames.len(), 5);
        assert_eq!(frames[4], Err(FrameError::Closed.to_string()));
    }

    #[test]
    fn two_frames_in_one_read_come_back_in_order_and_are_read_once() {
        let wire = [framed(b"abc"), framed(b"defg")].concat();
        let mut r = Script::new([Ok(wire.clone())]);
        let mut reader = FrameReader::new();
        assert_eq!(reader.poll(&mut r, 64).unwrap(), Some(&b"abc"[..]));
        assert_eq!(reader.poll(&mut r, 64).unwrap(), Some(&b"defg"[..]));
        assert_eq!(r.reads, 1, "the second frame came with the first read");
        let mut r = Script::new([Ok(wire.clone())]);
        assert_eq!(
            polled(&mut FrameReader::new(), &mut r, 64),
            read_frames(&wire, 64)
        );
        assert_eq!(r.reads, 2, "one read for both frames, one for the EOF");
    }

    #[test]
    fn a_header_split_across_reads_and_an_interrupted_payload_keep_frame_sync() {
        let wire = [framed(b"hello"), framed(b"world!")].concat();
        let split = |cuts: &[usize], interrupt: bool| {
            let mut steps = Vec::new();
            let mut at = 0;
            for &cut in cuts.iter().chain([&wire.len()]) {
                steps.push(Ok(wire[at..cut].to_vec()));
                if interrupt {
                    steps.push(Err(io::ErrorKind::Interrupted));
                }
                at = cut;
            }
            Script::new(steps)
        };
        // 2 + 2 header bytes; then 3 header bytes, an interrupt and the
        // rest; then interrupts between the payload bytes of both frames.
        for (cuts, interrupt) in [
            (&[2, 4][..], false),
            (&[9, 12][..], true),
            (&[6, 7, 8, 15, 17][..], true),
        ] {
            let frames = polled(&mut FrameReader::new(), &mut split(cuts, interrupt), 64);
            assert_eq!(frames, read_frames(&wire, 64), "cut at {cuts:?}");
        }
    }

    #[test]
    fn a_frame_of_max_bytes_is_read_and_one_over_is_not() {
        let max = 64;
        let at_max = framed(&[b'x'; 64]);
        let frames = polled(&mut FrameReader::new(), &mut Cursor::new(&at_max), max);
        assert_eq!(frames, read_frames(&at_max, max));
        assert_eq!(frames[0], Ok(vec![b'x'; 64]));
        // One over: refused on its header, the payload never read.
        let over = framed(&[b'x'; 65]);
        let mut r = Script::new([Ok(over[..4].to_vec()), Ok(over[4..].to_vec())]);
        let frames = polled(&mut FrameReader::new(), &mut r, max);
        assert_eq!(frames, read_frames(&over, max));
        assert_eq!(
            frames,
            [Err(FrameError::Oversized { len: 65, max }.to_string())]
        );
        assert_eq!((r.reads, r.steps.len()), (1, 1));
    }

    #[test]
    fn a_header_alone_does_not_size_the_buffer() {
        // A header claiming the default cap, then nothing: one chunk held.
        let max = DEFAULT_MAX_FRAME;
        let header = (max as u32).to_be_bytes().to_vec();
        for mut reader in [FrameReader::new(), FrameReader::default()] {
            let mut r = Script::new([Ok(header.clone()), Err(io::ErrorKind::WouldBlock)]);
            assert_eq!(reader.poll(&mut r, max).unwrap(), None);
            assert!(reader.buf.len() <= READ_CHUNK, "{}", reader.buf.len());
        }
        // As the payload arrives the buffer grows with it, at most twice
        // what arrived, and the frame still comes back whole.
        let payload = vec![b'x'; 100_000];
        let wire = framed(&payload);
        let mut reader = FrameReader::new();
        let mut at = 0;
        for cut in [4, 10_004, 40_004, wire.len()] {
            let mut r = Script::new([Ok(wire[at..cut].to_vec()), Err(io::ErrorKind::WouldBlock)]);
            match reader.poll(&mut r, max).unwrap() {
                Some(frame) => assert_eq!((cut, frame), (wire.len(), &payload[..])),
                None => assert!(reader.buf.len() <= READ_CHUNK.max(2 * cut)),
            }
            at = cut;
        }
    }

    #[test]
    fn a_large_frame_is_let_go_of_after_it_is_consumed() {
        // Just under the cap (a 932 352-byte registration is): kept.
        let mut reader = FrameReader::new();
        let small = framed(b"next");
        let wire = [framed(&vec![b'x'; KEEP_CAPACITY - 4]), small.clone()].concat();
        let mut r = Cursor::new(&wire);
        assert_eq!(
            reader.poll(&mut r, usize::MAX).unwrap().unwrap().len(),
            KEEP_CAPACITY - 4
        );
        assert_eq!(reader.poll(&mut r, usize::MAX).unwrap(), Some(&b"next"[..]));
        assert!(reader.buf.capacity() >= KEEP_CAPACITY);
        // Over it: read whole, then let go of before the next read.
        let mut reader = FrameReader::new();
        let big = vec![b'x'; KEEP_CAPACITY + 1];
        let mut r = Script::new([Ok([framed(&big), small].concat())]);
        assert_eq!(reader.poll(&mut r, usize::MAX).unwrap(), Some(&big[..]));
        assert!(reader.buf.capacity() > KEEP_CAPACITY);
        assert_eq!(reader.poll(&mut r, usize::MAX).unwrap(), Some(&b"next"[..]));
        assert_eq!(reader.buf.capacity(), READ_CHUNK);
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
                Ok(Some(f)) => frames.push(f.to_vec()),
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
        let mut fr = FrameReader::new();
        assert!(matches!(
            fr.poll(&mut Cursor::new(&wire), 64),
            Err(FrameError::Truncated {
                expected: 6,
                got: 3
            })
        ));
        assert_eq!(
            polled(&mut FrameReader::new(), &mut Cursor::new(&wire), 64),
            read_frames(&wire, 64)
        );
    }
}
