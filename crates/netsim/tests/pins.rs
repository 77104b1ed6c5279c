//! Pinned completion streams and wave counts of two fixed scripts.
//!
//! Each script runs once on [`Network`] through the engine's event
//! loop (wake at every `next_event_time`). The test pins a fingerprint
//! of every `(flow id, completion instant)` pair, which must never move
//! under a refactor of the engine, and the `netsim.realloc_waves`
//! count, which moves only as a deliberate, recorded edit when the
//! engine learns to skip waves.
//!
//! * [`star_2k`] — the `volunteers2k_files` shape: 2 000 clients behind
//!   one server, each pulling a 4 MB input and pushing a 1 MB output
//!   back the instant its download completes, with starts staggered so
//!   that most of them land in other flows' set-up phases.
//! * [`p2p_burst`] — same-instant bursts of peer-to-peer transfers,
//!   some relayed through a peer (one path repeats its relay's links),
//!   plus two long flows, a zero-byte flow and a loopback flow.

use std::collections::VecDeque;
use vmr_desim::{SimDuration, SimTime};
use vmr_netsim::{FlowSpec, HostId, HostLink, Network, Topology};

/// FNV-1a over the little-endian bytes of every `(id, at_us)` pair.
fn fingerprint(stream: &[(u64, u64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(id, at) in stream {
        for b in id.to_le_bytes().into_iter().chain(at.to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// What a script run leaves to pin.
struct Run {
    /// `(flow id, completion µs)` in report order.
    stream: Vec<(u64, u64)>,
    waves: u64,
}

/// 2 000 clients on 100 Mbit links with 0.5 ms latency, one 1 Gbit
/// server. Client `c` starts its 4 MiB download at `1.5·c` ms with a
/// 250 ms set-up phase; its 1 MiB upload starts, with the same set-up,
/// 7.3 ms (its compute phase) after the download is reported. So most
/// starts land at an instant no other event shares.
fn star_2k() -> Run {
    const CLIENTS: u32 = 2_000;
    let mut topo = Topology::new();
    let server = topo.add_host(HostLink::symmetric_mbit(1_000.0, 0.000_5));
    for _ in 0..CLIENTS {
        topo.add_host(HostLink::symmetric_mbit(100.0, 0.000_5));
    }
    let obs = vmr_obs::Obs::detached();
    let waves = obs.counter("netsim.realloc_waves");
    let mut net = Network::with_obs(topo, &obs);
    let spec = |src, dst, bytes| {
        let mut s = FlowSpec::simple(src, dst, bytes);
        s.setup_s = 0.25;
        s
    };
    let mut downloads = Vec::new();
    let mut uploads = VecDeque::new();
    let mut stream = Vec::new();
    let mut next = 1u32;
    loop {
        let scripted = (next <= CLIENTS).then(|| SimTime::from_micros(1_500 * next as u64));
        let upload = uploads.front().map(|&(t, _)| t);
        let wake = net.next_event_time().filter(|&t| t < SimTime::MAX);
        let Some(now) = [scripted, upload, wake].into_iter().flatten().min() else {
            break;
        };
        for c in net.advance(now) {
            stream.push((c.id.0, c.at.as_micros()));
            if let Ok(k) = downloads.binary_search_by_key(&c.id, |&(id, _)| id) {
                let (_, client) = downloads.remove(k);
                uploads.push_back((now + SimDuration::from_micros(7_300), client));
            }
        }
        while let Some(&(_, client)) = uploads.front().filter(|&&(t, _)| t == now) {
            uploads.pop_front();
            net.start_flow(now, spec(client, server, 1 << 20));
        }
        if scripted == Some(now) {
            let id = net.start_flow(now, spec(server, HostId(next), 4 << 20));
            downloads.push((id, HostId(next)));
            next += 1;
        }
    }
    assert_eq!(stream.len(), 2 * CLIENTS as usize);
    Run {
        stream,
        waves: waves.get(),
    }
}

/// 24 peers on mixed links. At each of five instants 10 ms apart every
/// peer starts one transfer to another; every third is relayed through
/// a third peer, and peer 5's relay chain visits one relay twice. A
/// 3 MB and a 400 kB flow, a zero-byte flow and a loopback flow ride
/// in the first burst.
fn p2p_burst() -> Run {
    const PEERS: u32 = 24;
    let mut topo = Topology::new();
    for p in 0..PEERS {
        topo.add_host(match p % 3 {
            0 => HostLink::symmetric_mbit(100.0, 0.0),
            1 => HostLink::asymmetric_mbit(16.0, 1.0, 0.002),
            _ => HostLink::symmetric_mbit(10.0, 0.001),
        });
    }
    let obs = vmr_obs::Obs::detached();
    let waves = obs.counter("netsim.realloc_waves");
    let mut net = Network::with_obs(topo, &obs);
    let mut stream = Vec::new();
    let mut record = |net: &mut Network, now| {
        for c in net.advance(now) {
            stream.push((c.id.0, c.at.as_micros()));
        }
    };
    for round in 0..5u32 {
        let now = SimTime::from_millis(10 * round as u64);
        record(&mut net, now);
        for p in 0..PEERS {
            let dst = (p + 1 + round * 5) % PEERS;
            let bytes = 200_000 + 37_000 * ((p * 7 + round) % 11) as u64;
            let mut spec = FlowSpec::simple(HostId(p), HostId(dst), bytes);
            if p % 3 == 0 {
                let relay = (p + 12) % PEERS;
                if relay != dst {
                    spec.via = vec![HostId(relay)];
                }
            }
            if p == 5 {
                spec.via = vec![HostId(9), HostId(9)];
            }
            net.start_flow(now, spec);
        }
        if round == 0 {
            net.start_flow(now, FlowSpec::simple(HostId(0), HostId(3), 3_000_000));
            net.start_flow(now, FlowSpec::simple(HostId(6), HostId(7), 400_000));
            net.start_flow(now, FlowSpec::simple(HostId(8), HostId(2), 0));
            net.start_flow(now, FlowSpec::simple(HostId(4), HostId(4), 1_000));
        }
    }
    let mut now = SimTime::from_millis(40);
    while let Some(t) = net.next_event_time().filter(|&t| t < SimTime::MAX) {
        assert!(t >= now);
        now = t;
        record(&mut net, now);
    }
    assert_eq!(net.active_flows(), 0);
    assert_eq!(stream.len(), 5 * PEERS as usize + 4);
    assert!(now > SimTime::ZERO + SimDuration::from_secs(1));
    Run {
        stream,
        waves: waves.get(),
    }
}

#[test]
fn star_2k_completions_and_waves_are_pinned() {
    let run = star_2k();
    assert_eq!(fingerprint(&run.stream), 4_960_417_379_230_767_788);
    assert_eq!(run.stream.last().map(|c| c.1), Some(78_787_689));
    // 11 969 before no-op waves were skipped at any instant.
    assert_eq!(run.waves, 7_978, "netsim.realloc_waves");
}

#[test]
fn p2p_burst_completions_and_waves_are_pinned() {
    let run = p2p_burst();
    assert_eq!(fingerprint(&run.stream), 11_819_020_141_937_684_684);
    assert_eq!(run.stream.last().map(|c| c.1), Some(19_850_001));
    assert_eq!(run.waves, 149, "netsim.realloc_waves");
}
