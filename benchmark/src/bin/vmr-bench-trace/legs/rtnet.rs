//! Real-socket legs: frame encode and decode, the store lookup, and one
//! connect-fetch-close round trip.

use super::Ctx;
use bytes::{Bytes, BytesMut};
use std::sync::Arc;
use vmr_benchmark::workloads::rtnet::{payload, LARGE_BYTES, SMALL_BYTES};
use vmr_rtnet::proto::{decode_response, encode_response, FrameDecoder};
use vmr_rtnet::{fetch_once, OutputStore, PollServer, PollServerConfig, Response};

pub fn legs(cx: &mut Ctx<'_>) {
    let n_small = cx.count("shape.n_small");
    let n_large = cx.count("shape.n_large");
    let requests = n_small + n_large;
    if requests == 0.0 {
        return;
    }
    let small = Bytes::from(payload(7, SMALL_BYTES));
    let large = Bytes::from(payload(8, LARGE_BYTES));

    // Encoding a data frame hashes the body (the integrity trailer);
    // decoding reassembles the frame and verifies that trailer. Both
    // are per-byte costs, so the 4 MiB frame is timed too, to price the
    // large fetches.
    let mut per_frame = |name: &str, body: &Bytes, frames: usize| -> (f64, f64) {
        let response = Response::Data(body.clone());
        let encode = cx.time(
            &format!("rtnet.encode.{name}"),
            3,
            || (),
            |()| {
                let mut out = BytesMut::with_capacity(body.len() + 64);
                for _ in 0..frames {
                    out.clear();
                    encode_response(std::hint::black_box(&response), &mut out);
                }
                std::hint::black_box(out.len());
            },
        );
        let mut wire = BytesMut::new();
        encode_response(&response, &mut wire);
        let wire = wire.to_vec();
        let decode = cx.time(
            &format!("rtnet.decode.{name}"),
            3,
            || (),
            |()| {
                let mut dec = FrameDecoder::new();
                for _ in 0..frames {
                    dec.push(std::hint::black_box(&wire));
                    let frame = dec
                        .next_frame()
                        .expect("a well-formed frame")
                        .expect("a whole frame was pushed");
                    std::hint::black_box(decode_response(frame).expect("the digest verifies"));
                }
            },
        );
        (encode / frames as f64, decode / frames as f64)
    };
    let (encode_small, decode_small) = per_frame("small", &small, 10_000);
    let (encode_large, decode_large) = per_frame("large", &large, 8);
    cx.out(
        "rtnet.encode_ns_per_frame",
        encode_small * 1e9,
        encode_small * n_small + encode_large * n_large,
    );
    cx.out(
        "rtnet.decode_ns_per_frame",
        decode_small * 1e9,
        decode_small * n_small + decode_large * n_large,
    );

    let store = Arc::new(OutputStore::new());
    store.put("small", small);
    let gets = 2_000_000;
    let secs = cx.time(
        "rtnet.store_get",
        3,
        || (),
        |()| {
            for _ in 0..gets {
                std::hint::black_box(store.get(std::hint::black_box("small")));
            }
        },
    );
    let get_ns = secs * 1e9 / gets as f64;
    cx.out("rtnet.store_get_ns", get_ns, get_ns * requests / 1e9);

    // One blocking fetcher, one connection per request: connect, GET,
    // read, verify, close. Includes the encode/decode priced above.
    let server = PollServer::start(store, PollServerConfig::new(64)).expect("loopback binds");
    let addr = server.addr();
    let fetches = 2_000;
    let secs = cx.time(
        "rtnet.connect_fetch",
        3,
        || (),
        |()| {
            for _ in 0..fetches {
                std::hint::black_box(fetch_once(addr, "small").expect("the file is served"));
            }
        },
    );
    server.shutdown();
    cx.out("rtnet.connect_fetch_us", secs * 1e6 / fetches as f64, 0.0);
}
