//! Property tests for the wire protocol: encode/decode round-trips, and
//! arbitrary corruption/truncation never panics — it decodes to a typed
//! [`WireError`].

use std::io::Cursor;

use droidracer_server::protocol::{read_frame, write_frame, Request, Response, WireError};

use proptest::prelude::*;

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

#[test]
fn wire_error_is_typed_and_displayable() {
    let err = Request::decode(&[]).unwrap_err();
    assert!(matches!(
        err,
        WireError::Truncated | WireError::BadLength(_)
    ));
    assert!(!err.to_string().is_empty());
}
