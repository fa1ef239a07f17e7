//! The framed wire protocol between clients and the analysis daemon.
//!
//! Every message is one *frame*: a big-endian `u32` payload length followed
//! by the payload, which starts with a big-endian `u16` protocol version
//! and a `u8` opcode. Frames larger than [`MAX_FRAME`] bytes are rejected
//! before allocation; torn or truncated frames decode to a typed
//! [`WireError`], never a panic.
//!
//! The payload bodies carry only length-prefixed byte strings and
//! fixed-width integers: the analysis-level types ride as their stable text
//! encodings (`JobSpec::to_token`, `JobReport::to_record`), so the protocol
//! layer has no knowledge of analysis internals and the two encodings
//! version independently.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Protocol version spoken by this build. A frame with any other version
/// decodes to [`WireError::BadVersion`].
pub const WIRE_VERSION: u16 = 1;

/// Hard cap on one frame's payload, before any allocation happens.
pub const MAX_FRAME: u32 = 64 << 20;

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Analyze one whole trace. `spec` is a `JobSpec` token; `trace` is the
    /// trace text (bytes on the wire — the server validates UTF-8).
    Submit {
        /// Tenant the job is accounted to.
        tenant: String,
        /// `JobSpec::to_token` encoding of the job options.
        spec: String,
        /// Trace text bytes.
        trace: Vec<u8>,
    },
    /// Ask for the server's metrics snapshot.
    Status,
    /// Ask the server to shut down cleanly (persisting its result cache).
    Shutdown,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The job's result.
    Report {
        /// Whether the result came from the content-addressed cache
        /// (no recomputation happened).
        cache_hit: bool,
        /// `JobReport::to_record` encoding of the result.
        record: String,
    },
    /// Metrics snapshot as `key=value` lines (global `srv.*` counters plus
    /// `tenant.<name>.<counter>` per-tenant lines).
    Status {
        /// The rendered snapshot.
        text: String,
    },
    /// The request was refused before reaching a worker (unknown tenant,
    /// oversized trace, protocol misuse). The connection stays usable.
    Rejected {
        /// Human-readable reason.
        reason: String,
    },
    /// The shard's admission queue is full; the job was shed *before* any
    /// work or cache mutation, so resubmitting is always safe. The
    /// connection stays usable.
    Overloaded {
        /// Server's hint for how long to back off before retrying.
        retry_after_ms: u64,
    },
    /// Acknowledges [`Request::Shutdown`]; the server stops accepting.
    Bye,
}

/// Why a payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended mid-field.
    Truncated,
    /// A length prefix inside the payload exceeds the payload itself.
    BadLength(u32),
    /// The frame declared an unsupported protocol version.
    BadVersion(u16),
    /// The opcode byte is not a known message.
    UnknownOpcode(u8),
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// Bytes were left over after the last field of the message.
    Trailing(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated mid-field"),
            WireError::BadLength(n) => write!(f, "field length {n} exceeds payload"),
            WireError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (expected {WIRE_VERSION})"
                )
            }
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

// Opcodes. Requests are < 0x80, responses >= 0x80. 0x02-0x04 and 0x82
// belonged to a removed chunked-upload exchange and must not be
// reassigned: old clients still send them, and they must keep decoding to
// `UnknownOpcode`.
const OP_SUBMIT: u8 = 0x01;
const OP_STATUS: u8 = 0x05;
const OP_SHUTDOWN: u8 = 0x06;
const OP_REPORT: u8 = 0x81;
const OP_STATUS_REPLY: u8 = 0x83;
const OP_REJECTED: u8 = 0x84;
const OP_BYE: u8 = 0x85;
const OP_OVERLOADED: u8 = 0x86;

/// One frame's wire bytes: the big-endian `u32` length prefix followed by
/// the payload, in a single buffer.
///
/// # Errors
///
/// `InvalidInput` when the payload exceeds [`MAX_FRAME`].
pub fn frame(payload: &[u8]) -> io::Result<Vec<u8>> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&n| n <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds MAX_FRAME"))?;
    let mut framed = Vec::with_capacity(4 + payload.len());
    framed.extend_from_slice(&len.to_be_bytes());
    framed.extend_from_slice(payload);
    Ok(framed)
}

/// Writes one frame (length prefix + payload) with a single `write_all`.
///
/// Splitting the prefix and the payload into two writes would stall every
/// round trip on TCP: Nagle holds the payload until the peer ACKs the
/// 4-byte prefix, and the peer — blocked reading the payload — delays
/// that ACK (~40 ms on Linux). One write per frame, plus `TCP_NODELAY` on
/// every stream the client dials and the server accepts, avoids it.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&frame(payload)?)?;
    w.flush()
}

/// Reads one frame's payload. Returns `Ok(None)` on clean EOF (connection
/// closed between frames); a torn length prefix or payload is
/// `ErrorKind::UnexpectedEof`, an oversized declared length is
/// `ErrorKind::InvalidData` — both surfaced before any payload allocation
/// larger than [`MAX_FRAME`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    // Distinguish clean EOF (no bytes at all) from a torn prefix.
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "torn frame length prefix",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("declared frame length {len} exceeds MAX_FRAME {MAX_FRAME}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// A stream frames travel over, TCP or Unix, on either end.
pub(crate) trait Conn: Read + Write + Send {
    /// Prepares a freshly dialed or accepted stream: applies `timeout` to
    /// both reads and writes (`None` blocks forever) and, on TCP, sets
    /// `TCP_NODELAY` so a frame is sent as soon as it is written.
    fn configure(&self, timeout: Option<Duration>) -> io::Result<()>;
}

impl Conn for TcpStream {
    fn configure(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_nodelay(true)?;
        self.set_read_timeout(timeout)?;
        self.set_write_timeout(timeout)
    }
}

impl Conn for UnixStream {
    fn configure(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(timeout)?;
        self.set_write_timeout(timeout)
    }
}

/// Incremental payload writer: version + opcode header, then fields.
struct BodyWriter {
    buf: Vec<u8>,
}

impl BodyWriter {
    fn new(opcode: u8) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&WIRE_VERSION.to_be_bytes());
        buf.push(opcode);
        BodyWriter { buf }
    }

    fn bytes(&mut self, data: &[u8]) -> &mut Self {
        self.buf
            .extend_from_slice(&(data.len() as u32).to_be_bytes());
        self.buf.extend_from_slice(data);
        self
    }

    fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    fn u64(&mut self, n: u64) -> &mut Self {
        self.buf.extend_from_slice(&n.to_be_bytes());
        self
    }

    fn u8(&mut self, n: u8) -> &mut Self {
        self.buf.push(n);
        self
    }

    fn done(self) -> Vec<u8> {
        self.buf
    }
}

/// Incremental payload reader over a decoded frame.
struct BodyReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    /// Checks the version header and returns the reader plus the opcode.
    fn open(payload: &'a [u8]) -> Result<(Self, u8), WireError> {
        if payload.len() < 3 {
            return Err(WireError::Truncated);
        }
        let version = u16::from_be_bytes([payload[0], payload[1]]);
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
        Ok((
            BodyReader {
                buf: payload,
                pos: 3,
            },
            payload[2],
        ))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes(b.try_into().expect("8 bytes")))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.u32()?;
        if len as usize > self.buf.len().saturating_sub(self.pos) {
            return Err(WireError::BadLength(len));
        }
        Ok(self.take(len as usize)?.to_vec())
    }

    fn str(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?).map_err(|_| WireError::BadUtf8)
    }

    fn close(self) -> Result<(), WireError> {
        let left = self.buf.len() - self.pos;
        if left != 0 {
            return Err(WireError::Trailing(left));
        }
        Ok(())
    }
}

impl Request {
    /// Encodes the message as a frame payload (version + opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Submit {
                tenant,
                spec,
                trace,
            } => {
                let mut w = BodyWriter::new(OP_SUBMIT);
                w.str(tenant).str(spec).bytes(trace);
                w.done()
            }
            Request::Status => BodyWriter::new(OP_STATUS).done(),
            Request::Shutdown => BodyWriter::new(OP_SHUTDOWN).done(),
        }
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// A typed [`WireError`] for any malformed payload; never panics.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let (mut r, opcode) = BodyReader::open(payload)?;
        let req = match opcode {
            OP_SUBMIT => Request::Submit {
                tenant: r.str()?,
                spec: r.str()?,
                trace: r.bytes()?,
            },
            OP_STATUS => Request::Status,
            OP_SHUTDOWN => Request::Shutdown,
            other => return Err(WireError::UnknownOpcode(other)),
        };
        r.close()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes the message as a frame payload (version + opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Report { cache_hit, record } => {
                let mut w = BodyWriter::new(OP_REPORT);
                w.u8(u8::from(*cache_hit)).str(record);
                w.done()
            }
            Response::Status { text } => {
                let mut w = BodyWriter::new(OP_STATUS_REPLY);
                w.str(text);
                w.done()
            }
            Response::Rejected { reason } => {
                let mut w = BodyWriter::new(OP_REJECTED);
                w.str(reason);
                w.done()
            }
            Response::Overloaded { retry_after_ms } => {
                let mut w = BodyWriter::new(OP_OVERLOADED);
                w.u64(*retry_after_ms);
                w.done()
            }
            Response::Bye => BodyWriter::new(OP_BYE).done(),
        }
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// A typed [`WireError`] for any malformed payload; never panics.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let (mut r, opcode) = BodyReader::open(payload)?;
        let resp = match opcode {
            OP_REPORT => Response::Report {
                cache_hit: r.u8()? != 0,
                record: r.str()?,
            },
            OP_STATUS_REPLY => Response::Status { text: r.str()? },
            OP_REJECTED => Response::Rejected { reason: r.str()? },
            OP_OVERLOADED => Response::Overloaded {
                retry_after_ms: r.u64()?,
            },
            OP_BYE => Response::Bye,
            other => return Err(WireError::UnknownOpcode(other)),
        };
        r.close()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_payloads_round_trip() {
        let reqs = [
            Request::Submit {
                tenant: "alice".into(),
                spec: "v1:full:merge:strict:ops=-:bits=-:dl=-".into(),
                trace: b"droidracer-trace v1\n".to_vec(),
            },
            Request::Status,
            Request::Shutdown,
        ];
        for req in reqs {
            let payload = req.encode();
            assert_eq!(Request::decode(&payload), Ok(req.clone()), "{req:?}");
        }
    }

    #[test]
    fn response_payloads_round_trip() {
        let resps = [
            Response::Report {
                cache_hit: true,
                record: "exit=clean counts=0,0,0,0,0 stats=0,0,0,0,0 races=- diags=-".into(),
            },
            Response::Status {
                text: "srv.cache_hits=3\n".into(),
            },
            Response::Rejected {
                reason: "unknown tenant".into(),
            },
            Response::Overloaded {
                retry_after_ms: 250,
            },
            Response::Bye,
        ];
        for resp in resps {
            let payload = resp.encode();
            assert_eq!(Response::decode(&payload), Ok(resp.clone()), "{resp:?}");
        }
    }

    #[test]
    fn truncated_payloads_are_typed_errors() {
        let full = Request::Submit {
            tenant: "t".into(),
            spec: "spec".into(),
            trace: vec![1, 2, 3],
        }
        .encode();
        for cut in 0..full.len() {
            let err = Request::decode(&full[..cut]).expect_err("truncation must fail");
            assert!(
                matches!(err, WireError::Truncated | WireError::BadLength(_)),
                "cut={cut}: {err:?}"
            );
        }
        // Trailing garbage is caught too.
        let mut padded = full.clone();
        padded.extend_from_slice(b"xx");
        assert_eq!(Request::decode(&padded), Err(WireError::Trailing(2)));
    }

    #[test]
    fn bad_version_and_opcode_are_typed_errors() {
        let mut payload = Request::Status.encode();
        payload[0] = 0xff;
        assert_eq!(
            Request::decode(&payload),
            Err(WireError::BadVersion(0xff01))
        );
        let mut payload = Request::Status.encode();
        payload[2] = 0x7f;
        assert_eq!(
            Request::decode(&payload),
            Err(WireError::UnknownOpcode(0x7f))
        );
        // A request opcode is not a valid response.
        assert_eq!(
            Response::decode(&Request::Status.encode()),
            Err(WireError::UnknownOpcode(OP_STATUS))
        );
        // The retired upload opcodes are unknown in both directions.
        for op in [0x02, 0x03, 0x04] {
            let mut payload = Request::Status.encode();
            payload[2] = op;
            assert_eq!(Request::decode(&payload), Err(WireError::UnknownOpcode(op)));
        }
        let mut payload = Response::Bye.encode();
        payload[2] = 0x82;
        assert_eq!(
            Response::decode(&payload),
            Err(WireError::UnknownOpcode(0x82))
        );
    }

    #[test]
    fn bad_utf8_is_a_typed_error() {
        let mut w = BodyWriter::new(OP_REJECTED);
        w.bytes(&[0xff, 0xfe]);
        assert_eq!(Response::decode(&w.done()), Err(WireError::BadUtf8));
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let payload = Request::Status.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        write_frame(&mut wire, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some(&payload[..])
        );
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some(&payload[..])
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");

        // A declared length past MAX_FRAME fails before allocation.
        let huge = (MAX_FRAME + 1).to_be_bytes();
        let mut cursor = std::io::Cursor::new(huge.to_vec());
        let err = read_frame(&mut cursor).expect_err("oversize");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A sink that accepts every write in full and counts the calls.
    #[derive(Default)]
    struct CountingSink {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
            self.writes += 1;
            let mut n = 0;
            for buf in bufs {
                self.bytes.extend_from_slice(buf);
                n += buf.len();
            }
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_is_one_write_of_prefix_and_payload() {
        for len in [3usize, 1 << 20] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let mut sink = CountingSink::default();
            write_frame(&mut sink, &payload).unwrap();
            assert_eq!(
                sink.writes, 1,
                "{len}-byte frame took {} writes",
                sink.writes
            );
            let mut expected = (len as u32).to_be_bytes().to_vec();
            expected.extend_from_slice(&payload);
            assert_eq!(sink.bytes, expected, "{len}-byte frame bytes");
            assert_eq!(frame(&payload).unwrap(), expected);
        }
    }

    #[test]
    fn torn_frames_are_unexpected_eof() {
        let payload = Request::Status.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        for cut in 1..wire.len() {
            let mut cursor = std::io::Cursor::new(wire[..cut].to_vec());
            let err = read_frame(&mut cursor).expect_err("torn frame");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut={cut}");
        }
    }
}
