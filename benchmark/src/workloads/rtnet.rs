//! `rtnet_fetch`: the only real-socket workload.
//!
//! A `PollServer` on loopback serves one 8 KiB and one 4 MiB file to a
//! closed loop of two fetchers, one connection per request as in the
//! paper's §III.C. Small fetches pay per-connection cost (accept,
//! decode, close); large ones pay per-byte cost (write queue, integrity
//! check): a gain for one that costs the other shows.

use super::{Params, RepeatOut};
use crate::span::Tracer;
use crate::stats::mix;
use bytes::Bytes;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vmr_desim::RngStream;
use vmr_rtnet::{
    fetch_once, run_load, LoadConfig, LoadReport, OutputStore, PollServer, PollServerConfig,
};

/// Bytes of the small file.
pub const SMALL_BYTES: usize = 8 << 10;
/// Bytes of the large file.
pub const LARGE_BYTES: usize = 4 << 20;

/// (small fetches, large fetches) per repeat.
fn size(p: &Params) -> (usize, usize) {
    if p.smoke {
        (300, 2)
    } else {
        (6000, 32)
    }
}

/// `len` reproducible, incompressible bytes derived from `seed`.
pub fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = RngStream::new(seed);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

struct Rig {
    server: PollServer,
    obs: vmr_obs::Obs,
    small: Bytes,
    large: Bytes,
}

fn build(p: &Params) -> Rig {
    let small = Bytes::from(payload(mix(p.seed, 5), SMALL_BYTES));
    let large = Bytes::from(payload(mix(p.seed, 6), LARGE_BYTES));
    let store = Arc::new(OutputStore::new());
    store.put("small", small.clone());
    store.put("large", large.clone());
    let obs = vmr_obs::Obs::detached();
    let server = PollServer::start_with_obs(store, PollServerConfig::new(64), &obs)
        .expect("loopback listener binds");
    Rig {
        server,
        obs,
        small,
        large,
    }
}

pub(super) fn setup_only(p: &Params) -> f64 {
    let t = Instant::now();
    let rig = build(p);
    let s = t.elapsed().as_secs_f64();
    rig.server.shutdown();
    s
}

/// `total` GETs of `name`, two in flight, one connection each.
fn closed_loop(addr: SocketAddr, name: &str, total: usize) -> LoadReport {
    let cfg = LoadConfig {
        concurrency: 2,
        total_requests: total,
        name: name.to_string(),
        open_all_first: false,
        connect_burst: 2,
        deadline: Duration::from_secs(120),
    };
    run_load(addr, &cfg).expect("loopback load run")
}

pub(super) fn repeat(p: &Params, tr: &mut Tracer) -> RepeatOut {
    let s = tr.begin("setup");
    let t = Instant::now();
    let rig = build(p);
    let setup_s = t.elapsed().as_secs_f64();
    tr.end(s);

    let (n_small, n_large) = size(p);
    let addr = rig.server.addr();
    let s = tr.begin("run");
    let small = closed_loop(addr, "small", n_small);
    let large = closed_loop(addr, "large", n_large);
    tr.end(s);

    let s = tr.begin("check");
    let mut violations = Vec::new();
    for (what, r, total, each) in [
        ("small", &small, n_small, SMALL_BYTES),
        ("large", &large, n_large, LARGE_BYTES),
    ] {
        if r.completed() != total as u64 {
            violations.push(format!(
                "{what}: {} of {total} fetches accounted for",
                r.completed()
            ));
        }
        // `data` counts responses whose SHA-256 trailer verified.
        if r.bytes != r.data * each as u64 {
            violations.push(format!(
                "{what}: {} B received in {} replies",
                r.bytes, r.data
            ));
        }
    }
    for (name, want) in [("small", &rig.small), ("large", &rig.large)] {
        match fetch_once(addr, name) {
            Ok(got) if got == *want => {}
            Ok(_) => violations.push(format!("{name}: fetched bytes differ from the stored file")),
            Err(e) => violations.push(format!("{name}: {e}")),
        }
    }
    let snap = rig.obs.snapshot();
    let busy = rig.server.stats.busy_rejections.load(Ordering::Relaxed);
    let served = rig.server.stats.served.load(Ordering::Relaxed);
    rig.server.shutdown();
    let attempted = (n_small + n_large) as u64;
    if served != attempted + 2 {
        violations.push(format!(
            "server counted {served} served, client sent {}",
            attempted + 2
        ));
    }
    let small_s = small.elapsed.as_secs_f64();
    let large_s = large.elapsed.as_secs_f64();
    let out = RepeatOut {
        setup_s,
        wall_s: small_s + large_s,
        attempted,
        failed: attempted - (small.data + large.data).min(attempted),
        violations,
        exact: vec![
            ("rtnet.served", served as f64),
            ("shape.n_small", n_small as f64),
            ("shape.n_large", n_large as f64),
        ],
        // Stall and rejection counts depend on socket timing, so they
        // are medians over repeats like the times, not exact values.
        timed: vec![
            ("rtnet.busy_rejections", busy as f64),
            (
                "rtnet.backpressure_stalls",
                snap.counter("rtnet.poll.backpressure_stalls") as f64,
            ),
            ("fetch_small_req_s", small.data as f64 / small_s),
            ("fetch_large_mb_s", large.bytes as f64 / 1e6 / large_s),
            ("rtnet.fetch_small_p50_us", small.p50_us),
            ("rtnet.fetch_small_p99_us", small.p99_us),
            ("rtnet.fetch_large_p50_us", large.p50_us),
            ("rtnet.serve_us", snap.histogram("rtnet.poll.serve_us").mean),
        ],
        probes: Vec::new(),
    };
    tr.end(s);
    out
}
