//! Serving-runtime concurrency ladder (EXPERIMENTS.md A13).
//!
//! Drives the nonblocking load generator ([`vmr_rtnet::run_load`])
//! against the poll-loop [`PollServer`] over a ladder of concurrency
//! levels, and prints a table: throughput, p50/p99/max latency, peak
//! open connections. Every leg re-checks the soak invariant (every
//! request served, no unexplained connection deaths) before its row is
//! trusted.
//!
//! The whole run lives in one process, so the ladder tops out well
//! below a 20 000-fd ceiling (client + server sockets both count); the
//! two-process harness in `tests/soak_rtnet.rs` is where the full
//! 10 000-at-once cohort runs.
//!
//! Emits one machine-readable line, `BENCH_rtnet.json`, with the table.
//!
//! Usage: `cargo run -p vmr-bench --release --bin rtnet_soak`
//! (`--smoke` runs the two smallest rungs only).

use bytes::Bytes;
use std::sync::Arc;
use std::time::Duration;
use vmr_rtnet::{run_load, LoadConfig, LoadReport, OutputStore, PollServer, PollServerConfig};

const PAYLOAD: usize = 8 << 10;

fn make_store() -> Arc<OutputStore> {
    let store = Arc::new(OutputStore::new());
    store.put("blob", Bytes::from(vec![0x5au8; PAYLOAD]));
    store
}

fn load(n: usize) -> LoadConfig {
    let mut cfg = LoadConfig::concurrent(n, "blob");
    cfg.deadline = Duration::from_secs(120);
    cfg
}

/// One measured leg: every request must be served.
fn leg(n: usize) -> LoadReport {
    let srv = PollServer::start(make_store(), PollServerConfig::new(n)).expect("poll server");
    let report = run_load(srv.addr(), &load(n)).expect("load run");
    srv.shutdown();
    assert_eq!(
        report.completed() as usize,
        n,
        "poll@{n}: zero lost requests"
    );
    assert_eq!(report.data as usize, n, "poll@{n}: all served");
    assert_eq!(report.io_errors, 0, "poll@{n}: no unexplained deaths");
    report
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let rungs: &[usize] = if smoke {
        &[64, 256]
    } else {
        &[64, 256, 1024, 4096]
    };

    eprintln!(
        "{:>6}  {:>10}  {:>9}  {:>9}  {:>9}  {:>6}  {:>9}",
        "conc", "req/s", "p50 ms", "p99 ms", "max ms", "peak", "served"
    );
    let mut rows = Vec::new();
    for &n in rungs {
        let r = leg(n);
        let rps = r.data as f64 / r.elapsed.as_secs_f64().max(1e-9);
        eprintln!(
            "{:>6}  {:>10.0}  {:>9.2}  {:>9.2}  {:>9.2}  {:>6}  {:>4}/{:<4}",
            n,
            rps,
            r.p50_us / 1e3,
            r.p99_us / 1e3,
            r.max_us / 1e3,
            r.peak_open,
            r.data,
            n,
        );
        rows.push(format!(
            "{{\"concurrency\":{n},\"served\":{},\
             \"io_errors\":{},\"req_per_s\":{rps:.0},\
             \"p50_us\":{:.0},\"p99_us\":{:.0},\"max_us\":{:.0},\"peak_open\":{}}}",
            r.data, r.io_errors, r.p50_us, r.p99_us, r.max_us, r.peak_open
        ));
    }
    println!(
        "BENCH_rtnet.json {{\"payload_bytes\":{PAYLOAD},\"legs\":[{}]}}",
        rows.join(",")
    );
}
