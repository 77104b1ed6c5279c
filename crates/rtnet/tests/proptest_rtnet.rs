//! Property tests for the wire protocol, and the serving threshold
//! under concurrency.

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;
use std::io::Cursor;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use vmr_rtnet::proto::{
    encode_request, encode_response, read_request, read_response, Request, Response,
};

proptest! {
    /// Any GET name round-trips through the frame codec.
    #[test]
    fn request_roundtrip(name in "[a-zA-Z0-9_./-]{0,64}") {
        let mut buf = BytesMut::new();
        encode_request(&Request::Get(name.clone()), &mut buf);
        let back = read_request(&mut Cursor::new(buf.to_vec())).unwrap();
        prop_assert_eq!(back, Request::Get(name));
    }

    /// Any payload round-trips through DATA with its integrity trailer.
    #[test]
    fn response_roundtrip(body in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let mut buf = BytesMut::new();
        encode_response(&Response::Data(Bytes::from(body.clone())), &mut buf);
        match read_response(&mut Cursor::new(buf.to_vec())).unwrap() {
            Response::Data(d) => prop_assert_eq!(&d[..], &body[..]),
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    /// Flipping any single byte of a DATA frame's body or digest is
    /// detected (either as a framing error or an integrity failure).
    #[test]
    fn corruption_always_detected(
        body in proptest::collection::vec(any::<u8>(), 1..512),
        flip_at_frac in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        let mut buf = BytesMut::new();
        encode_response(&Response::Data(Bytes::from(body.clone())), &mut buf);
        let mut raw = buf.to_vec();
        // Only flip inside body+digest (skip 4 len + 1 tag + 8 body_len).
        let start = 13;
        let idx = start + ((raw.len() - start - 1) as f64 * flip_at_frac) as usize;
        raw[idx] ^= 1 << flip_bit;
        let res = read_response(&mut Cursor::new(raw));
        prop_assert!(res.is_err(), "corruption at byte {} went undetected", idx);
    }

    /// Arbitrary junk never panics the decoder (errors only).
    #[test]
    fn decoder_is_panic_free(junk in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = read_request(&mut Cursor::new(junk.clone()));
        let _ = read_response(&mut Cursor::new(junk));
    }
}

/// The serving-connection threshold really rejects concurrent GETs.
#[test]
fn busy_threshold_enforced_under_concurrency() {
    use vmr_rtnet::{fetch_once, FetchError, OutputStore, PollServer, PollServerConfig};
    let store = Arc::new(OutputStore::new());
    // A large file so transfers overlap.
    store.put("big", Bytes::from(vec![7u8; 8 << 20]));
    let srv = PollServer::start(store, PollServerConfig::new(1)).unwrap(); // threshold: 1
    let addr = srv.addr();
    let mut handles = Vec::new();
    for _ in 0..6 {
        handles.push(std::thread::spawn(move || fetch_once(addr, "big")));
    }
    let mut ok = 0;
    let mut busy = 0;
    for h in handles {
        match h.join().unwrap() {
            Ok(d) => {
                assert_eq!(d.len(), 8 << 20);
                ok += 1;
            }
            Err(FetchError::Busy) => busy += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(ok >= 1, "at least one transfer must succeed");
    assert!(
        busy >= 1,
        "with threshold 1 and 6 concurrent fetches, some must be rejected Busy"
    );
    assert!(srv.stats.busy_rejections.load(Ordering::Relaxed) >= busy as u64);
    srv.shutdown();
}
