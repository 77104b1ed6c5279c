//! 10 000-volunteer soak of the poll-loop runtime.
//!
//! One [`PollServer`] process versus ten thousand *simultaneously open*
//! fetcher connections, with exhaustive accounting: every request ends
//! in exactly one client-side bucket, the client's and the server's
//! counters agree to the digit, and tail latency stays bounded (read
//! from the server's own registry, which the child reports on its
//! `STATS` line).
//!
//! The container caps open files at 20 000 (soft *and* hard), so a
//! single process cannot hold 10 000 server sockets plus 10 000 client
//! sockets. The harness therefore self-execs: the gated driver test
//! spawns this same test binary filtered to [`server_role`] with
//! `SOAK_ROLE=server`, speaks `ADDR`/`STATS` lines over the child's
//! stdio, and runs the nonblocking load generator
//! ([`volunteer_mr::rtnet::run_load`]) in its own process. ~10 005 fds
//! per process — comfortably inside the limit.
//!
//! Heavy by design, so it only runs when asked:
//! `SOAK_SMOKE=1 cargo test --release --test soak_rtnet`
//! (wired into `scripts/check.sh` behind the same variable; shrink with
//! `SOAK_N`).

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;
use volunteer_mr::rtnet::{run_load, LoadConfig};

/// Scans child stdout for a line carrying `marker` and returns what
/// follows it. The marker may appear mid-line: the child's libtest
/// harness prints `test server_role ... ` with no trailing newline, so
/// the first thing the test itself prints lands on that same line.
fn await_line(out: &mut BufReader<ChildStdout>, marker: &str) -> String {
    let mut line = String::new();
    loop {
        line.clear();
        if out.read_line(&mut line).expect("child stdout") == 0 {
            panic!("server child exited before printing {marker:?}");
        }
        if let Some(pos) = line.find(marker) {
            return line[pos + marker.len()..].trim().to_string();
        }
    }
}

struct ServerProc {
    child: Child,
    out: BufReader<ChildStdout>,
    addr: SocketAddr,
}

/// Spawns this test binary as the serving process.
fn spawn_server(threshold: usize, payload: usize) -> ServerProc {
    let exe = std::env::current_exe().expect("own path");
    let mut child = Command::new(exe)
        .args(["server_role", "--exact", "--nocapture"])
        .env("SOAK_ROLE", "server")
        .env("SOAK_THRESHOLD", threshold.to_string())
        .env("SOAK_PAYLOAD", payload.to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn server child");
    let mut out = BufReader::new(child.stdout.take().expect("child stdout"));
    let addr: SocketAddr = await_line(&mut out, "ADDR ").parse().expect("addr");
    ServerProc { child, out, addr }
}

/// Parsed `STATS` line the server prints on shutdown.
#[derive(Debug)]
struct ServerTotals {
    served: u64,
    not_found: u64,
    busy: u64,
    peak_open: usize,
    /// `rtnet.served` in the server's registry.
    served_registry: u64,
    /// Samples in the `rtnet.poll.serve_us` histogram.
    serve_count: u64,
    /// That histogram's p99, µs.
    p99_us: f64,
}

impl ServerProc {
    /// Asks the child to stop and collects its final counters.
    fn stop(mut self) -> ServerTotals {
        let mut stdin = self.child.stdin.take().expect("child stdin");
        writeln!(stdin, "stop").expect("signal child");
        drop(stdin);
        let stats = await_line(&mut self.out, "STATS ");
        let status = self.child.wait().expect("child exit");
        assert!(status.success(), "server child failed: {status:?}");
        let field = |name: &str| -> &str {
            stats
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix(&format!("{name}=")))
                .unwrap_or_else(|| panic!("no {name} in STATS line {stats:?}"))
        };
        let count = |name: &str| -> u64 { field(name).parse().expect("numeric field") };
        ServerTotals {
            served: count("served"),
            not_found: count("not_found"),
            busy: count("busy"),
            peak_open: count("peak") as usize,
            served_registry: count("served_registry"),
            serve_count: count("serve_count"),
            p99_us: field("p99_us").parse().expect("numeric p99"),
        }
    }
}

/// The serving half of the harness. A no-op under plain `cargo test`;
/// does the work only when self-exec'd with `SOAK_ROLE=server`.
#[test]
fn server_role() {
    if std::env::var("SOAK_ROLE").as_deref() != Ok("server") {
        return;
    }
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use volunteer_mr::rtnet::{OutputStore, PollServer, PollServerConfig};

    #[allow(clippy::items_after_statements)]
    const SAMPLE_EVERY: Duration = Duration::from_millis(1);

    let threshold: usize = std::env::var("SOAK_THRESHOLD")
        .expect("SOAK_THRESHOLD")
        .parse()
        .expect("threshold");
    let payload: usize = std::env::var("SOAK_PAYLOAD")
        .expect("SOAK_PAYLOAD")
        .parse()
        .expect("payload");

    let store = Arc::new(OutputStore::new());
    store.put("blob", bytes::Bytes::from(vec![0x5au8; payload]));
    let obs = volunteer_mr::obs::Obs::new();
    let cfg = PollServerConfig {
        max_connections: threshold,
        idle_timeout: Duration::from_secs(300),
    };
    let srv = PollServer::start_with_obs(store, cfg, &obs).expect("poll server");

    // Sample peak concurrent connections while serving.
    let peak = Arc::new(AtomicUsize::new(0));
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                peak.fetch_max(srv.open_connections(), Ordering::Relaxed);
                std::thread::sleep(SAMPLE_EVERY);
            }
        });

        println!("ADDR {}", srv.addr());

        // Serve until the driver says stop (or closes our stdin).
        let mut line = String::new();
        let _ = std::io::stdin().read_line(&mut line);
        done.store(true, Ordering::Relaxed);
    });
    let stats = &srv.stats;
    let snap = obs.snapshot();
    let serve_us = snap.histogram("rtnet.poll.serve_us");
    println!(
        "STATS served={} not_found={} busy={} peak={} served_registry={} serve_count={} p99_us={}",
        stats.served.load(Ordering::Relaxed),
        stats.not_found.load(Ordering::Relaxed),
        stats.busy_rejections.load(Ordering::Relaxed),
        peak.load(Ordering::Relaxed),
        snap.counter("rtnet.served"),
        serve_us.count,
        serve_us.p99,
    );
    srv.shutdown();
}

/// The driver: 10 000 concurrent fetchers, zero lost requests, exact
/// rejection accounting, bounded p99 from the server's registry.
#[test]
fn soak_10k_volunteers() {
    if std::env::var("SOAK_SMOKE").is_err() {
        eprintln!("soak_10k_volunteers: skipped (set SOAK_SMOKE=1 to run)");
        return;
    }
    let n: usize = std::env::var("SOAK_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);

    // Leg A — threshold >= cohort: every request must be served, with
    // all `n` connections demonstrably open at once.
    let server = spawn_server(n, 8 << 10);
    let mut cfg = LoadConfig::concurrent(n, "blob");
    cfg.deadline = Duration::from_secs(300);
    let report = run_load(server.addr, &cfg).expect("load run");
    let totals = server.stop();

    assert_eq!(
        report.completed() as usize,
        n,
        "zero lost requests: every fetcher must terminate in a bucket"
    );
    assert_eq!(report.io_errors, 0, "no connection may die unexplained");
    assert_eq!(report.data as usize, n, "all data, threshold not reached");
    assert_eq!(report.busy, 0);
    assert_eq!(report.bytes, n as u64 * (8 << 10));
    assert_eq!(totals.served as usize, n, "server agrees to the digit");
    assert_eq!(totals.busy, 0);
    assert_eq!(totals.not_found, 0);
    assert!(
        totals.peak_open >= n,
        "cohort must be concurrently connected (peak {} < {n})",
        totals.peak_open
    );
    assert_eq!(
        totals.served_registry as usize, n,
        "the registry must carry the served total"
    );
    assert_eq!(totals.serve_count as usize, n);
    let p99 = totals.p99_us;
    eprintln!("soak_10k_volunteers: n={n} serve p99 {p99} µs");
    assert!(
        p99.is_finite() && p99 > 0.0 && p99 < 60_000_000.0,
        "p99 serve latency must be bounded, got {p99}µs"
    );

    // Leg B — threshold 0: every request is a Busy rejection, counted
    // exactly, on both sides, at full cohort size.
    let server = spawn_server(0, 16);
    let mut cfg = LoadConfig::concurrent(n, "blob");
    cfg.deadline = Duration::from_secs(300);
    let report = run_load(server.addr, &cfg).expect("load run");
    let totals = server.stop();

    assert_eq!(report.completed() as usize, n, "zero lost requests");
    assert_eq!(report.io_errors, 0);
    assert_eq!(
        report.busy as usize, n,
        "threshold rejections accounted exactly (client side)"
    );
    assert_eq!(report.data, 0);
    assert_eq!(
        totals.busy as usize, n,
        "threshold rejections accounted exactly (server side)"
    );
    assert_eq!(totals.served, 0);
}
