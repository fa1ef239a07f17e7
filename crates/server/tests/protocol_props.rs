//! Property tests for the wire protocol: encode/decode round-trips, and
//! arbitrary corruption/truncation never panics — it decodes to a typed
//! [`WireError`]. The borrowing request decoder is held to an owned
//! reference decoder, and frame writing to the one-buffer frame.

use std::io::{self, Cursor, IoSlice, Write};

use droidracer_server::protocol::{
    frame, read_frame, write_frame, Request, RequestRef, Response, WireError, WIRE_VERSION,
};

use proptest::prelude::*;

/// The owned request decoder the borrowing [`RequestRef::decode`]
/// replaced, kept as the reference it must agree with: every field is
/// copied out of the payload, and errors arise in the same order.
mod reference {
    use super::{Request, WireError, WIRE_VERSION};

    struct BodyReader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> BodyReader<'a> {
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

        fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
            let b = self.take(4)?;
            let len = u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
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

    /// Decodes a request payload into owned fields. The opcodes are the
    /// wire's: submit 0x01, status 0x05, shutdown 0x06.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let (mut r, opcode) = BodyReader::open(payload)?;
        let req = match opcode {
            0x01 => Request::Submit {
                tenant: r.str()?,
                spec: r.str()?,
                trace: r.bytes()?,
            },
            0x05 => Request::Status,
            0x06 => Request::Shutdown,
            other => return Err(WireError::UnknownOpcode(other)),
        };
        r.close()?;
        Ok(req)
    }
}

/// The borrowing decoder and the reference agree on `payload`: the same
/// request, or the same typed error.
fn decoders_agree(payload: &[u8]) -> Result<(), String> {
    let borrowed = RequestRef::decode(payload).map(Request::from);
    let owned = reference::decode(payload);
    if borrowed != owned {
        return Err(format!("{payload:?}: {borrowed:?} != {owned:?}"));
    }
    if Request::decode(payload) != owned {
        return Err(format!("{payload:?}: Request::decode disagrees"));
    }
    Ok(())
}

/// A writer that takes at most `k` bytes per call, vectored or not, as a
/// socket with a small send buffer would.
struct Trickle {
    k: usize,
    bytes: Vec<u8>,
}

impl Write for Trickle {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = buf.len().min(self.k);
        self.bytes.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let mut n = 0;
        for buf in bufs {
            let take = buf.len().min(self.k - n);
            self.bytes.extend_from_slice(&buf[..take]);
            n += take;
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn submit_round_trips(
        tenant in proptest::collection::vec(any::<u8>(), 0..24),
        spec in proptest::collection::vec(any::<u8>(), 0..48),
        trace in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let request = Request::Submit {
            tenant: String::from_utf8_lossy(&tenant).into_owned(),
            spec: String::from_utf8_lossy(&spec).into_owned(),
            trace,
        };
        prop_assert_eq!(Request::decode(&request.encode()).unwrap(), request);
    }

    #[test]
    fn responses_round_trip(
        cache_hit in any::<bool>(),
        record in proptest::collection::vec(any::<u8>(), 0..200),
        retry_after_ms in any::<u64>(),
    ) {
        let report = Response::Report {
            cache_hit,
            record: String::from_utf8_lossy(&record).into_owned(),
        };
        prop_assert_eq!(Response::decode(&report.encode()).unwrap(), report);
        let shed = Response::Overloaded { retry_after_ms };
        prop_assert_eq!(Response::decode(&shed.encode()).unwrap(), shed);
        prop_assert_eq!(Response::decode(&Response::Bye.encode()).unwrap(), Response::Bye);
    }

    #[test]
    fn truncation_never_panics(
        trace in proptest::collection::vec(any::<u8>(), 0..64),
        cut_frac in 0u32..1000,
    ) {
        let encoded = Request::Submit {
            tenant: "t".to_owned(),
            spec: "s".to_owned(),
            trace,
        }
        .encode();
        let cut = (encoded.len() as u64 * u64::from(cut_frac) / 1000) as usize;
        if cut < encoded.len() {
            // Every proper prefix must fail with a typed error, not panic.
            prop_assert!(Request::decode(&encoded[..cut]).is_err());
        }
    }

    #[test]
    fn corruption_never_panics(
        payload in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        // Arbitrary bytes: decoding may fail or (rarely) succeed, but must
        // never panic, for requests and responses alike.
        let _ = Request::decode(&payload);
        let _ = Response::decode(&payload);
    }

    #[test]
    fn torn_frames_are_unexpected_eof(
        trace in proptest::collection::vec(any::<u8>(), 0..64),
        cut_frac in 0u32..1000,
    ) {
        let request = Request::Submit {
            tenant: "t".to_owned(),
            spec: "s".to_owned(),
            trace,
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &request.encode()).unwrap();
        let cut = (wire.len() as u64 * u64::from(cut_frac) / 1000) as usize;
        if cut >= wire.len() {
            let got = read_frame(&mut Cursor::new(&wire[..])).unwrap().unwrap();
            prop_assert_eq!(Request::decode(&got).unwrap(), request);
        } else if cut == 0 {
            // Nothing read at all is a clean EOF between frames.
            prop_assert!(read_frame(&mut Cursor::new(&wire[..0])).unwrap().is_none());
        } else {
            // Anything torn mid-frame is UnexpectedEof.
            match read_frame(&mut Cursor::new(&wire[..cut])) {
                Ok(frame) => prop_assert!(false, "torn frame decoded: {frame:?}"),
                Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round trips: every encoded submit decodes alike in both decoders,
    /// and encoding from borrowed fields is encoding the owned request.
    #[test]
    fn borrowed_decoder_agrees_on_round_trips(
        tenant in proptest::collection::vec(any::<u8>(), 0..24),
        spec in proptest::collection::vec(any::<u8>(), 0..48),
        trace in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let request = Request::Submit {
            tenant: String::from_utf8_lossy(&tenant).into_owned(),
            spec: String::from_utf8_lossy(&spec).into_owned(),
            trace,
        };
        let payload = request.encode();
        prop_assert_eq!(&RequestRef::from(&request).encode(), &payload);
        prop_assert_eq!(RequestRef::decode(&payload).map(Request::from), Ok(request));
        prop_assert_eq!(decoders_agree(&payload), Ok(()));
        for other in [Request::Status, Request::Shutdown] {
            prop_assert_eq!(decoders_agree(&other.encode()), Ok(()));
        }
    }

    /// Every truncation of an encoded submit fails alike in both decoders.
    #[test]
    fn borrowed_decoder_agrees_on_truncations(
        tenant in proptest::collection::vec(any::<u8>(), 0..8),
        trace in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let payload = Request::Submit {
            tenant: String::from_utf8_lossy(&tenant).into_owned(),
            spec: "s".to_owned(),
            trace,
        }
        .encode();
        for cut in 0..=payload.len() {
            prop_assert_eq!(decoders_agree(&payload[..cut]), Ok(()));
        }
    }

    /// Arbitrary bytes, and single-byte corruption of a valid submit
    /// (lengths, UTF-8, version, opcode), decode alike in both decoders.
    #[test]
    fn borrowed_decoder_agrees_on_corruption(
        junk in proptest::collection::vec(any::<u8>(), 0..96),
        trace in proptest::collection::vec(any::<u8>(), 0..48),
        at in any::<usize>(),
        flip in 1u8..255,
    ) {
        prop_assert_eq!(decoders_agree(&junk), Ok(()));
        let mut payload = Request::Submit {
            tenant: "tenant".to_owned(),
            spec: "spec".to_owned(),
            trace,
        }
        .encode();
        let at = at % payload.len();
        payload[at] ^= flip;
        prop_assert_eq!(decoders_agree(&payload), Ok(()));
        // A valid header ahead of arbitrary fields reaches field decoding.
        let mut fielded = WIRE_VERSION.to_be_bytes().to_vec();
        fielded.push(0x01);
        fielded.extend_from_slice(&junk);
        prop_assert_eq!(decoders_agree(&fielded), Ok(()));
    }

    /// However few bytes each write takes, `write_frame` puts exactly the
    /// one-buffer frame on the wire.
    #[test]
    fn write_frame_survives_partial_writes(
        payload in proptest::collection::vec(any::<u8>(), 0..300),
        k in 1usize..40,
    ) {
        let mut sink = Trickle { k, bytes: Vec::new() };
        write_frame(&mut sink, &payload).unwrap();
        prop_assert_eq!(sink.bytes, frame(&payload).unwrap());
    }
}

#[test]
fn wire_error_is_typed_and_displayable() {
    let err = Request::decode(&[]).unwrap_err();
    assert!(matches!(
        err,
        WireError::Truncated | WireError::BadLength(_)
    ));
    assert!(!err.to_string().is_empty());
}
