//! Sharded server-core scaling study.
//!
//! Drives the standalone serve loop — feeder refill, batched scheduler
//! RPCs, transitioner passes — against the same database partitioned
//! into 1/2/4/8 `wu_id mod n` shards, and measures wall-clock
//! throughput per shard count. The serve loop always runs inline, so
//! its column is *not* a thread-scaling study: it prices what the
//! partitioning itself costs or buys per grant now that eviction is a
//! binary search in an ordered segment. The transitioner pass is timed
//! twice, inline and on one worker per shard.
//!
//! Every shard count must grant the *same results to the same clients
//! in the same order* (the engine's bit-identity contract); the run
//! asserts a fingerprint of the full grant stream across shard counts
//! before it reports any number.
//!
//! Wall clocks are best-of-3 per shard count (the loop is
//! deterministic, so repeat spread is pure machine noise). Emits one
//! machine-readable line, `BENCH_shard.json`, with every row plus the
//! headline 4-shard RPC speedup (check.sh redirects it into the
//! repo-root file). `--smoke` shrinks the workload to one iteration.

use std::time::Instant;
use vmr_desim::SimTime;
use vmr_vcore::sched::WorkRequest;
use vmr_vcore::{
    run_transition_pass, serve_batch, ClientId, Db, Feeder, WorkUnitSpec, WorkerPool, WuState,
};

/// FNV-1a over the grant stream: client, rid, order all folded in.
fn fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
}

struct Row {
    shards: usize,
    rpcs: u64,
    grants: u64,
    serve_wall_s: f64,
    rpcs_per_s: f64,
    transitions: u64,
    trans_wall_s: f64,
    trans_per_s: f64,
    fingerprint: u64,
}

/// Best-of-`iters` wrapper: the serve loop is deterministic, so wall
/// time differences between repeats are pure machine noise — the
/// minimum is the honest estimate.
fn run_best_of(
    iters: u32,
    shards: usize,
    n_wus: usize,
    feeder_slots: usize,
    clients: u32,
    pooled: bool,
) -> Row {
    let mut best: Option<Row> = None;
    for _ in 0..iters {
        let r = run(shards, n_wus, feeder_slots, clients, pooled);
        best = Some(match best {
            None => r,
            Some(b) => {
                assert_eq!(r.fingerprint, b.fingerprint, "repeat diverged");
                Row {
                    serve_wall_s: r.serve_wall_s.min(b.serve_wall_s),
                    rpcs_per_s: r.rpcs_per_s.max(b.rpcs_per_s),
                    trans_wall_s: r.trans_wall_s.min(b.trans_wall_s),
                    trans_per_s: r.trans_per_s.max(b.trans_per_s),
                    ..b
                }
            }
        });
    }
    best.expect("at least one iteration")
}

fn run(shards: usize, n_wus: usize, feeder_slots: usize, clients: u32, pooled: bool) -> Row {
    let pool = WorkerPool::sequential();
    // The serve loop is always inline; `pooled` puts the whole-table
    // transitioner pass on one worker per shard.
    let trans_pool = if pooled {
        WorkerPool::new(shards)
    } else {
        pool
    };
    let mut db = Db::with_shards(shards);
    for i in 0..n_wus {
        db.insert_workunit(
            WorkUnitSpec::basic(format!("wu{i}"), "app", 1e9),
            SimTime::ZERO,
        );
    }
    let mut feeder = Feeder::new(shards);

    // Serve loop: refill when the cache runs low (the feeder daemon's
    // cadence), then stream scheduler RPCs round-robin over the client
    // fleet until every replica is granted. Grants evict shard-locally
    // — the measured hot path.
    let mut rpcs = 0u64;
    let mut grants = 0u64;
    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    let mut next_client = 0u32;
    let now = SimTime::from_secs(1);
    let deadline = SimTime::from_secs(100_000);
    let serve_start = Instant::now();
    loop {
        if feeder.len() < 1024 {
            feeder.refill(&db, feeder_slots, &pool);
            if feeder.is_empty() {
                break;
            }
        }
        let reqs: Vec<WorkRequest> = (0..256)
            .map(|k| WorkRequest {
                client: ClientId((next_client + k) % clients),
                slots_wanted: 4,
            })
            .collect();
        next_client = (next_client + 256) % clients;
        let batch = serve_batch(&mut db, &mut feeder, &reqs, 4, now, |_, _| deadline);
        rpcs += batch.len() as u64;
        for g in &batch {
            grants += g.granted.len() as u64;
            fingerprint = fold(fingerprint, g.client.0 as u64);
            for &rid in &g.granted {
                fingerprint = fold(fingerprint, rid.0 as u64);
            }
        }
    }
    let serve_wall_s = serve_start.elapsed().as_secs_f64();

    // Transitioner leg: report every granted replica (setup, untimed),
    // then one pass validates the whole table.
    let wus: Vec<_> = db.wu_ids().collect();
    for &wu in &wus {
        for rid in db.results_of(wu).to_vec() {
            if db.result(rid).client.is_some() {
                db.mark_reported(
                    rid,
                    vmr_vcore::ResultOutcome::Success,
                    Some(vmr_vcore::OutputFingerprint(7)),
                    SimTime::from_secs(2),
                );
            }
        }
    }
    let trans_start = Instant::now();
    let transitions = run_transition_pass(&mut db, SimTime::from_secs(3), &trans_pool).len() as u64;
    let trans_wall_s = trans_start.elapsed().as_secs_f64();
    for &wu in &wus {
        assert_eq!(
            db.wu(wu).state,
            WuState::Validated,
            "bench WU failed to validate"
        );
    }

    Row {
        shards,
        rpcs,
        grants,
        serve_wall_s,
        rpcs_per_s: rpcs as f64 / serve_wall_s,
        transitions,
        trans_wall_s,
        trans_per_s: transitions as f64 / trans_wall_s,
        fingerprint,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n_wus, feeder_slots, clients, iters) = if smoke {
        (5_000, 8192, 128, 1)
    } else {
        (50_000, 16384, 512, 3)
    };
    println!(
        "# shard scaling — {n_wus} WUs ({} results), feeder {feeder_slots} slots, {clients} clients, 1 worker",
        2 * n_wus
    );
    println!(
        "{:>6} | {:>8} | {:>8} | {:>10} | {:>11} | {:>11} | {:>13}",
        "shards", "rpcs", "grants", "serve s", "rpcs/s", "transitions", "transitions/s"
    );
    println!("{}", "-".repeat(86));

    let mut rows: Vec<Row> = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let r = run_best_of(iters, shards, n_wus, feeder_slots, clients, false);
        let p = run_best_of(iters, shards, n_wus, feeder_slots, clients, true);
        assert_eq!(p.fingerprint, r.fingerprint);
        println!(
            "{:>6} | {:>8} | {:>8} | {:>10.3} | {:>11.0} | {:>11} | {:>13.0} | pooled({} workers) {:.0}/s",
            r.shards,
            r.rpcs,
            r.grants,
            r.serve_wall_s,
            r.rpcs_per_s,
            r.transitions,
            r.trans_per_s,
            shards,
            p.trans_per_s
        );
        rows.push(r);
    }

    // Bit-identity before performance: every shard count granted the
    // same stream.
    for r in &rows[1..] {
        assert_eq!(
            r.fingerprint, rows[0].fingerprint,
            "{}-shard grant stream diverged from 1-shard",
            r.shards
        );
        assert_eq!(r.grants, rows[0].grants);
        assert_eq!(r.rpcs, rows[0].rpcs);
    }

    let speedup = |n: usize| -> f64 {
        let at = |s: usize| {
            rows.iter()
                .find(|r| r.shards == s)
                .map(|r| r.rpcs_per_s)
                .unwrap_or(f64::NAN)
        };
        at(n) / at(1)
    };
    println!(
        "\n4-shard RPC speedup over 1 shard: {:.2}x (segment-local eviction; \
         transitions/s stays ~flat on one core: {:.2}x)",
        speedup(4),
        rows.iter().find(|r| r.shards == 4).unwrap().trans_per_s
            / rows.iter().find(|r| r.shards == 1).unwrap().trans_per_s
    );
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"shards\": {}, \"rpcs\": {}, \"grants\": {}, \"serve_wall_s\": {:.4}, \
                 \"rpcs_per_s\": {:.0}, \"transitions\": {}, \"trans_wall_s\": {:.4}, \
                 \"transitions_per_s\": {:.0}}}",
                r.shards,
                r.rpcs,
                r.grants,
                r.serve_wall_s,
                r.rpcs_per_s,
                r.transitions,
                r.trans_wall_s,
                r.trans_per_s
            )
        })
        .collect();
    println!(
        "\nBENCH_shard.json {{\"wus\": {}, \"feeder_slots\": {}, \"clients\": {}, \
         \"speedup_rpcs_4shard\": {:.2}, \"speedup_transitions_4shard\": {:.2}, \"rows\": [{}]}}",
        n_wus,
        feeder_slots,
        clients,
        speedup(4),
        rows.iter().find(|r| r.shards == 4).unwrap().trans_per_s
            / rows.iter().find(|r| r.shards == 1).unwrap().trans_per_s,
        json_rows.join(", ")
    );
}
