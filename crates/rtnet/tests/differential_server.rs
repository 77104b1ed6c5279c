//! Differential test: the poll-loop runtime against its executable
//! spec, the thread-per-connection server in [`peer_server`].
//!
//! [`PeerServer`] *is* the §III.C semantics — small enough to audit by
//! eye. [`PollServer`] implements those semantics on a nonblocking
//! event loop. This suite replays identical request schedules against
//! both, backed by identical stores, and demands:
//!
//! * **byte-identical wire responses** — every raw response frame
//!   (length prefix, tag, body, SHA-256 trailer) matches; the spec lays
//!   `Data` out with the public `encode_response`, so this also checks
//!   the poll runtime's segment writer against the reference encoder;
//! * **identical accounting** — `served` / `not_found` /
//!   `busy_rejections` totals and the shared `rtnet.*` registry
//!   counters agree.
//!
//! Schedules are generated from a seeded linear congruential generator,
//! so every run replays the same cases.

mod peer_server;

use bytes::{Bytes, BytesMut};
use peer_server::PeerServer;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;
use vmr_rtnet::proto::{encode_request, Request};
use vmr_rtnet::{OutputStore, PollServer, PollServerConfig};

/// One step of a replayable schedule.
#[derive(Clone, Debug)]
enum Step {
    Get(String),
    Ping,
    Gate(bool),
}

/// Splitmix-style deterministic generator (no rand dependency needed).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Sends one request on a fresh connection and returns the raw
/// response frame (4-byte length prefix included) — the unit of
/// byte-identity.
fn raw_roundtrip(addr: SocketAddr, req: &Request) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    let mut buf = BytesMut::new();
    encode_request(req, &mut buf);
    stream.write_all(&buf).unwrap();
    stream.flush().unwrap();

    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf).expect("response prefix");
    let len = u32::from_be_bytes(len_buf) as usize;
    let mut frame = vec![0u8; len];
    stream.read_exact(&mut frame).expect("response payload");
    let mut raw = len_buf.to_vec();
    raw.extend_from_slice(&frame);
    raw
}

/// Both runtimes behind one face, so the replay loop is shared.
enum Server {
    Threaded(PeerServer),
    Poll(PollServer),
}

impl Server {
    fn addr(&self) -> SocketAddr {
        match self {
            Server::Threaded(s) => s.addr(),
            Server::Poll(s) => s.addr(),
        }
    }

    fn set_accepting(&self, on: bool) {
        match self {
            Server::Threaded(s) => s.set_accepting(on),
            Server::Poll(s) => s.set_accepting(on),
        }
    }

    fn totals(&self) -> (u64, u64, u64) {
        let stats = match self {
            Server::Threaded(s) => &s.stats,
            Server::Poll(s) => &s.stats,
        };
        (
            stats.served.load(Ordering::Relaxed),
            stats.not_found.load(Ordering::Relaxed),
            stats.busy_rejections.load(Ordering::Relaxed),
        )
    }
}

/// The store both servers serve: a few deterministic files of varied
/// sizes (empty, small, multi-read large).
fn make_store() -> Arc<OutputStore> {
    let store = Arc::new(OutputStore::new());
    store.put("empty", Bytes::new());
    store.put(
        "small",
        Bytes::from_static(b"forty-two bytes of thoroughly real data!"),
    );
    let big: Vec<u8> = (0..700_000u32).map(|i| (i % 239) as u8).collect();
    store.put("big", Bytes::from(big));
    store
}

/// Seeded schedule: GETs over present and absent names, pings, and
/// gate toggles (always ending with the gate open).
fn make_schedule(seed: u64, len: usize) -> Vec<Step> {
    let names = ["empty", "small", "big", "ghost", "mr0_m1_p0"];
    let mut rng = Lcg(seed);
    let mut steps = Vec::with_capacity(len + 1);
    for _ in 0..len {
        match rng.below(10) {
            0 => steps.push(Step::Ping),
            1 => steps.push(Step::Gate(rng.below(2) == 0)),
            _ => {
                let name = names[rng.below(names.len() as u64) as usize];
                steps.push(Step::Get(name.to_string()));
            }
        }
    }
    steps.push(Step::Gate(true));
    steps
}

/// Replays a schedule sequentially; returns every raw response frame.
fn replay(server: &Server, schedule: &[Step]) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    for step in schedule {
        match step {
            Step::Get(name) => {
                frames.push(raw_roundtrip(server.addr(), &Request::Get(name.clone())));
            }
            Step::Ping => frames.push(raw_roundtrip(server.addr(), &Request::Ping)),
            Step::Gate(on) => server.set_accepting(*on),
        }
    }
    frames
}

/// The shared `rtnet.*` counters both runtimes must report equally.
fn shared_counters(obs: &vmr_obs::Obs) -> Vec<(String, u64)> {
    [
        "rtnet.served",
        "rtnet.not_found",
        "rtnet.busy_rejections",
        "rtnet.gate_rejections",
    ]
    .iter()
    .map(|k| (k.to_string(), obs.snapshot().counter(k)))
    .collect()
}

/// Runs one schedule against both runtimes (fresh identical stores,
/// same threshold) and asserts frame-by-frame byte identity plus
/// identical totals.
fn assert_equivalent(seed: u64, schedule_len: usize, max_connections: usize) {
    let schedule = make_schedule(seed, schedule_len);

    let obs_t = vmr_obs::Obs::new();
    let threaded = Server::Threaded(
        PeerServer::start_with_obs(make_store(), max_connections, &obs_t).unwrap(),
    );
    let frames_t = replay(&threaded, &schedule);

    let obs_p = vmr_obs::Obs::new();
    let poll = Server::Poll(
        PollServer::start_with_obs(make_store(), PollServerConfig::new(max_connections), &obs_p)
            .unwrap(),
    );
    let frames_p = replay(&poll, &schedule);

    assert_eq!(frames_t.len(), frames_p.len());
    for (i, (t, p)) in frames_t.iter().zip(&frames_p).enumerate() {
        assert_eq!(
            t, p,
            "response {i} differs between runtimes (seed {seed}, step {:?})",
            schedule[i]
        );
    }
    assert_eq!(
        threaded.totals(),
        poll.totals(),
        "served/not_found/busy totals must match (seed {seed})"
    );
    assert_eq!(
        shared_counters(&obs_t),
        shared_counters(&obs_p),
        "rtnet.* registry counters must match (seed {seed})"
    );
}

#[test]
fn sequential_schedules_are_byte_identical() {
    for seed in [1, 7, 42] {
        assert_equivalent(seed, 60, 8);
    }
}

#[test]
fn gate_heavy_schedule_matches() {
    // A gate-toggle-rich schedule exercises the NotFound + gate path.
    let mut schedule = Vec::new();
    for i in 0..30 {
        schedule.push(Step::Gate(i % 3 != 0));
        schedule.push(Step::Get("small".to_string()));
        schedule.push(Step::Get("ghost".to_string()));
    }
    schedule.push(Step::Gate(true));

    let obs_t = vmr_obs::Obs::new();
    let threaded = Server::Threaded(PeerServer::start_with_obs(make_store(), 8, &obs_t).unwrap());
    let frames_t = replay(&threaded, &schedule);

    let obs_p = vmr_obs::Obs::new();
    let poll = Server::Poll(
        PollServer::start_with_obs(make_store(), PollServerConfig::new(8), &obs_p).unwrap(),
    );
    let frames_p = replay(&poll, &schedule);

    assert_eq!(frames_t, frames_p);
    assert_eq!(threaded.totals(), poll.totals());
    assert_eq!(shared_counters(&obs_t), shared_counters(&obs_p));
    let gates = obs_t.snapshot().counter("rtnet.gate_rejections");
    assert!(gates > 0, "the gate path must actually have fired");
}

#[test]
fn threshold_zero_is_always_busy_in_both() {
    // max_connections 0 makes every GET a deterministic Busy rejection
    // in both runtimes — the concurrency-free probe of the threshold.
    assert_equivalent(99, 40, 0);
}
