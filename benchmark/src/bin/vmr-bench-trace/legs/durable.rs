//! WAL legs: append, commit, recover, compact, and what journaling adds
//! to a cycle. Runs one cycle of its own to have a log to work on.

use super::Ctx;
use std::time::Instant;
use vmr_benchmark::workloads::wal::{build_cycle, run_cycle};
use vmr_durable::{compact, recover, DurabilityPlan, Journal};

pub fn legs(cx: &mut Ctx<'_>) {
    let records = cx.count("durable.records");
    if records == 0.0 {
        return;
    }
    let p = cx.input.params;
    let mirror = p
        .scratch
        .join(format!("wal-leg-{}.mirror", std::process::id()));
    let mut eng = build_cycle(p, Some(&mirror));
    run_cycle(&mut eng);
    eng.durable().flush_sink();
    let image = std::fs::read(&mirror).expect("the leg's WAL mirror exists");
    let mb = image.len() as f64 / 1e6;

    let secs = cx.time(
        "durable.recover",
        3,
        || (),
        |()| {
            std::hint::black_box(recover(&image).expect("the leg's log recovers"));
        },
    );
    // `recover_s` and the compaction are whole phases of the cycle.
    cx.out("durable.recover_mb_s", mb / secs, secs);
    let secs = cx.time(
        "durable.compact",
        3,
        || (),
        |()| {
            std::hint::black_box(compact(&image).expect("the leg's log compacts"));
        },
    );
    cx.out("durable.compact_mb_s", mb / secs, secs);

    // Replay what recovery yields into a fresh journal mirrored to a
    // file like the cycle's: once in a single transaction (appends
    // alone), once committing at the cycle's records-per-event rate.
    let tail = recover(&image).expect("the leg's log recovers").tail;
    let txns = cx.count("desim.events").max(1.0);
    let per_txn = ((records / txns).ceil() as usize).max(1);
    let replay_path = p
        .scratch
        .join(format!("wal-leg-{}.replay", std::process::id()));
    let fresh = || {
        std::fs::remove_file(&replay_path).ok();
        Journal::new(&DurabilityPlan::new(0.0).with_sink(&replay_path))
            .expect("the leg's replay mirror opens")
    };
    let appends = cx.time("durable.append", 3, fresh, |journal| {
        for change in &tail {
            journal.append(change);
        }
        journal.commit();
    });
    let with_commits = cx.time("durable.append_commit", 3, fresh, |journal| {
        for (i, change) in tail.iter().enumerate() {
            journal.append(change);
            if (i + 1) % per_txn == 0 {
                journal.advance_to(i as u64);
                journal.commit();
            }
        }
        journal.commit();
    });
    std::fs::remove_file(&replay_path).ok();
    let n = tail.len().max(1) as f64;
    let commits = (n / per_txn as f64).max(1.0);
    let append_ns = appends * 1e9 / n;
    let commit_ns = ((with_commits - appends) * 1e9 / commits).max(0.0);
    let ratio = records / n;
    cx.out("durable.append_ns_per_record", append_ns, appends * ratio);
    cx.out(
        "durable.commit_ns_per_txn",
        commit_ns,
        (with_commits - appends).max(0.0) * ratio,
    );

    // The same cycle with the journal off, against the journaled run
    // the workload timed.
    let plain = cx.time(
        "durable.unjournaled_cycle",
        3,
        || build_cycle(p, None),
        |mut eng| {
            let t = Instant::now();
            run_cycle(&mut eng);
            std::hint::black_box(t.elapsed());
        },
    );
    let journaled = cx
        .input
        .repeat
        .timed
        .iter()
        .find(|(n, _)| *n == "journaled_run_s")
        .map_or(0.0, |(_, v)| *v);
    if plain > 0.0 {
        cx.out(
            "durable.journal_overhead_pct",
            100.0 * (journaled / plain - 1.0),
            0.0,
        );
    }
    std::fs::remove_file(&mirror).ok();
}
