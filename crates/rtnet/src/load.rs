//! Nonblocking load generation — thousands of concurrent fetchers from
//! one thread.
//!
//! The soak harness must hold 10 000 connections open *simultaneously*
//! against one [`crate::pollserver::PollServer`]; spawning 10 000
//! blocking fetcher threads on a small CI box is exactly the failure
//! mode the poll runtime exists to avoid. So the client side reuses the
//! same machinery: every fetcher is a tiny state machine (write one
//! GET, check one response with `proto::ResponseCheck`, which hashes
//! the body as it arrives and keeps none of it) multiplexed on a
//! [`crate::poll::PollSet`].
//!
//! Accounting is exhaustive by construction: every launched request
//! terminates in exactly one of `data` / `not_found` / `busy` /
//! `io_errors`, so "zero lost requests" is the arithmetic check
//! `data + not_found + busy + io_errors == total`.

use crate::poll::{fd_of, PollSet};
use crate::proto::{encode_request, Checked, Request, ResponseCheck};
use bytes::BytesMut;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Load-run parameters.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Connections held open at once.
    pub concurrency: usize,
    /// Total GET requests to issue (one per connection).
    pub total_requests: usize,
    /// File name every fetcher asks for.
    pub name: String,
    /// Open every connection before any request is written, so the
    /// server demonstrably holds `concurrency` sockets at once.
    pub open_all_first: bool,
    /// New connections dialed per driver tick (bounds the time spent
    /// in blocking `connect` between poll rounds).
    pub connect_burst: usize,
    /// Give up on the whole run after this long.
    pub deadline: Duration,
}

impl LoadConfig {
    /// `n` fetchers, `n` requests, connect-then-fire.
    pub fn concurrent(n: usize, name: &str) -> Self {
        LoadConfig {
            concurrency: n,
            total_requests: n,
            name: name.to_string(),
            open_all_first: true,
            connect_burst: 512,
            deadline: Duration::from_secs(120),
        }
    }
}

/// What happened to every issued request, plus latency quantiles.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Responses carrying the file (integrity-verified).
    pub data: u64,
    /// `NotFound` replies.
    pub not_found: u64,
    /// `Busy` replies (threshold rejections).
    pub busy: u64,
    /// Connections that died before a decodable response.
    pub io_errors: u64,
    /// Total payload bytes received.
    pub bytes: u64,
    /// Most connections open at once (client view).
    pub peak_open: usize,
    /// Request latencies in microseconds (GET write → response decode).
    pub p50_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Worst latency, microseconds.
    pub max_us: f64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
}

impl LoadReport {
    /// Requests that terminated in any accounted-for outcome.
    pub fn completed(&self) -> u64 {
        self.data + self.not_found + self.busy + self.io_errors
    }
}

struct Fetcher {
    stream: TcpStream,
    out: Vec<u8>,
    off: usize,
    check: ResponseCheck,
    t0: Instant,
    firing: bool,
}

/// Runs `cfg.total_requests` GETs against `addr` with at most
/// `cfg.concurrency` connections open at once. Requests never vanish:
/// every one lands in exactly one [`LoadReport`] bucket, or the run
/// stops at the deadline with `completed() < total_requests`.
pub fn run_load(addr: SocketAddr, cfg: &LoadConfig) -> io::Result<LoadReport> {
    // The fetchers stand in for remote peers: they run on a thread of
    // their own, so what they allocate never shapes the caller's heap.
    std::thread::scope(|s| {
        s.spawn(|| drive(addr, cfg))
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

fn drive(addr: SocketAddr, cfg: &LoadConfig) -> io::Result<LoadReport> {
    let start = Instant::now();
    let deadline = start + cfg.deadline;
    let mut report = LoadReport::default();
    let mut latencies: Vec<f64> = Vec::with_capacity(cfg.total_requests.min(1 << 20));
    let mut conns: Vec<Option<Fetcher>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut launched = 0usize;
    let mut open = 0usize;
    let mut request = BytesMut::new();
    encode_request(&Request::Get(cfg.name.clone()), &mut request);
    let request = request.to_vec();
    let mut set = PollSet::new();
    let mut buf = vec![0u8; 64 << 10];

    while (report.completed() as usize) < cfg.total_requests {
        if Instant::now() > deadline {
            break;
        }

        // Dial new connections up to the concurrency cap.
        let want_open = if cfg.open_all_first {
            cfg.concurrency.min(cfg.total_requests)
        } else {
            0
        };
        let mut dialed = 0;
        while launched < cfg.total_requests && open < cfg.concurrency && dialed < cfg.connect_burst
        {
            let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
            stream.set_nonblocking(true)?;
            stream.set_nodelay(true)?;
            let f = Fetcher {
                stream,
                out: request.clone(),
                off: 0,
                check: ResponseCheck::default(),
                t0: Instant::now(),
                firing: false,
            };
            match free.pop() {
                Some(i) => conns[i] = Some(f),
                None => conns.push(Some(f)),
            }
            launched += 1;
            open += 1;
            dialed += 1;
        }
        report.peak_open = report.peak_open.max(open);
        // In connect-then-fire mode nobody writes until the whole
        // cohort is connected.
        let hold_fire = cfg.open_all_first && open < want_open && launched < cfg.total_requests;

        set.clear();
        for (i, slot) in conns.iter().enumerate() {
            if let Some(f) = slot {
                let writable = !hold_fire && f.off < f.out.len();
                let readable = f.firing && f.off == f.out.len();
                if writable || readable {
                    set.register(fd_of(&f.stream), i as u64, readable, writable);
                }
            }
        }
        if set.is_empty() {
            continue;
        }
        set.wait(Duration::from_millis(5))?;

        let ready: Vec<(u64, crate::poll::Readiness)> = set.ready().collect();
        for (token, r) in ready {
            let i = token as usize;
            let mut done: Option<Result<Checked, ()>> = None;
            if let Some(f) = conns[i].as_mut() {
                if (r.writable || r.closed) && f.off < f.out.len() {
                    if !f.firing {
                        f.firing = true;
                        f.t0 = Instant::now();
                    }
                    loop {
                        match f.stream.write(&f.out[f.off..]) {
                            Ok(0) => {
                                done = Some(Err(()));
                                break;
                            }
                            Ok(n) => {
                                f.off += n;
                                if f.off == f.out.len() {
                                    break;
                                }
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(_) => {
                                done = Some(Err(()));
                                break;
                            }
                        }
                    }
                }
                if done.is_none() && (r.readable || r.closed) && f.off == f.out.len() {
                    loop {
                        match f.stream.read(&mut buf) {
                            Ok(0) => {
                                done = Some(Err(()));
                                break;
                            }
                            Ok(n) => {
                                if let Some(outcome) = f.check.push(&buf[..n]).transpose() {
                                    done = Some(outcome.map_err(|_| ()));
                                    break;
                                }
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(_) => {
                                done = Some(Err(()));
                                break;
                            }
                        }
                    }
                }
            }
            if let Some(outcome) = done {
                let Some(f) = conns[i].take() else { continue };
                free.push(i);
                open -= 1;
                latencies.push(f.t0.elapsed().as_micros() as f64);
                match outcome {
                    Ok(Checked::Data(len)) => {
                        report.data += 1;
                        report.bytes += len;
                    }
                    Ok(Checked::NotFound) => report.not_found += 1,
                    Ok(Checked::Busy) => report.busy += 1,
                    Ok(Checked::Pong) | Err(()) => report.io_errors += 1,
                }
            }
        }
    }

    latencies.sort_by(f64::total_cmp);
    let q = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((latencies.len() as f64 * p).ceil() as usize).clamp(1, latencies.len());
        latencies[idx - 1]
    };
    report.p50_us = q(0.50);
    report.p99_us = q(0.99);
    report.max_us = latencies.last().copied().unwrap_or(0.0);
    report.elapsed = start.elapsed();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pollserver::{PollServer, PollServerConfig};
    use crate::store::OutputStore;
    use bytes::Bytes;
    use std::sync::Arc;

    #[test]
    fn small_load_accounts_every_request() {
        let store = Arc::new(OutputStore::new());
        store.put("f", Bytes::from_static(b"payload"));
        let srv = PollServer::start(store, PollServerConfig::new(512)).unwrap();
        let cfg = LoadConfig::concurrent(50, "f");
        let report = run_load(srv.addr(), &cfg).unwrap();
        assert_eq!(report.completed(), 50, "zero lost requests");
        assert_eq!(report.data, 50);
        assert_eq!(report.io_errors, 0);
        assert_eq!(report.bytes, 50 * 7);
        assert!(report.p99_us >= report.p50_us);
        srv.shutdown();
    }

    #[test]
    fn threshold_rejections_are_counted() {
        let store = Arc::new(OutputStore::new());
        store.put("f", Bytes::from_static(b"x"));
        // Threshold 0: every GET is a Busy rejection, in both runtimes.
        let srv = PollServer::start(store, PollServerConfig::new(0)).unwrap();
        let report = run_load(srv.addr(), &LoadConfig::concurrent(20, "f")).unwrap();
        assert_eq!(report.busy, 20);
        assert_eq!(report.data, 0);
        assert_eq!(
            srv.stats
                .busy_rejections
                .load(std::sync::atomic::Ordering::Relaxed),
            20,
            "server and client must agree on the rejection count"
        );
        srv.shutdown();
    }
}
