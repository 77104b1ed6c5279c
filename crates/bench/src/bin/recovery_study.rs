//! Durability study: WAL cost and crash-recovery time vs checkpoint
//! cadence on a Table I workload.
//!
//! Usage: `cargo run -p vmr-bench --release --bin recovery_study \
//!     [--full] [--smoke]`
//!
//! Default mode sweeps the snapshot interval over a Table I row
//! (ServerRelay, first geometry) and reports, per interval: the run's
//! wall-clock against the in-memory baseline, WAL record rate, log and
//! snapshot sizes, and the time to materialize all server state from
//! the final log image (recovery replays from the *last* snapshot, so
//! a longer cadence means a longer replay tail). `--full` uses the
//! paper's 1 GB input instead of the quick 256 MB subset.
//!
//! The sweep also reports the **compacted** image size per cadence
//! (`cmpct_KiB`): what the on-disk mirror shrinks to once frames
//! superseded by the latest committed snapshot are dropped.
//!
//! A second table prices inline mirror compaction against the plain
//! plan at the shape of `benchmark/`'s `wal_cycle` workload (500 hosts
//! × 25 work units, 300 s snapshots, file mirror): run time as a median
//! over rotated rounds with its quartile spread, bytes logged /
//! mirrored / left after compaction, and the time to recover the
//! server from what the mirror holds — each recovered image checked
//! section by section against the live engine. (EXPERIMENTS.md keeps
//! the rows of the plan switches this table priced before they were
//! deleted.) One more run per plan, with `Obs::set_profiling(true)`,
//! reads the durable layer's own share of that run off its `prof`
//! scopes — `durable.snapshot` and `durable.mirror_write` — beside
//! `dur.wal_records` / `dur.wal_bytes`.
//!
//! `--smoke` is the check.sh gate: crash one run at a fixed record
//! count, mirror its WAL through a file sink, resume from the mirrored
//! bytes, and byte-compare the Table I row against an uninterrupted
//! run — exit 1 on any divergence. Runs twice: once with the plain
//! plan, once with inline mirror compaction, resuming from the
//! compacted file on disk.

use std::time::Instant;
use vmr_bench::{calibrated_sizing, row_config, run_or_exit, table1_rows};
use vmr_core::{format_row, resume_experiment, ExperimentConfig, MrMode, RecoveredServerState};
use vmr_desim::SimTime;
use vmr_durable::{compact, CompactionPolicy, CrashPlan, DurabilityPlan};
use vmr_netsim::HostLink;
use vmr_vcore::{Engine, HostProfile, NullPolicy, WorkUnitSpec};

fn study_config(full: bool) -> ExperimentConfig {
    let row = table1_rows()[0];
    let mut cfg = row_config(&row, calibrated_sizing());
    if !full {
        cfg.input_bytes = 256 << 20;
    }
    cfg
}

fn sweep(full: bool) {
    let cfg = study_config(full);
    println!(
        "# Durability study — Table I row: {} nodes, {} maps, {} reduces, {} MiB input ({})",
        cfg.nodes.total(),
        cfg.n_maps,
        cfg.n_reduces,
        cfg.input_bytes >> 20,
        cfg.mode,
    );

    // Warm-up run (allocator + page-cache), then best-of-N timing so
    // the overhead column measures journaling, not cold-start noise.
    let base = run_or_exit(&cfg);
    assert!(base.all_done, "baseline did not complete");
    let reps = if full { 3 } else { 10 };
    let time_it = |c: &ExperimentConfig| -> f64 {
        (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(run_or_exit(c));
                t0.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min)
    };
    let base_ms = time_it(&cfg);
    println!(
        "# baseline (durability off): {:.2} ms wall (best of {reps}), {:.0} s simulated",
        base_ms,
        base.finished_at.as_secs_f64()
    );
    println!(
        "{:>10} | {:>8} | {:>9} | {:>8} | {:>8} | {:>9} | {:>9} | {:>5} | {:>8} | {:>8}",
        "snap_iv_s",
        "wall_ms",
        "overhead",
        "records",
        "rec_p_s",
        "wal_KiB",
        "cmpct_KiB",
        "snaps",
        "replay",
        "recov_us"
    );
    // 0.0 = WAL only, no snapshots: recovery replays the whole log.
    for interval in [0.0, 10.0, 30.0, 60.0, 120.0, 300.0] {
        let mut c = cfg.clone();
        c.durable = DurabilityPlan::new(interval);
        let out = run_or_exit(&c);
        assert!(out.all_done && !out.crashed);
        let wall_ms = time_it(&c);
        let snap = out.obs.snapshot();
        let records = snap.counter("dur.wal_records");
        let wal = out.wal.as_ref().unwrap();
        let snaps = snap.histogram("dur.snapshot_us");
        let compacted = compact(wal).expect("compaction failed");
        if snaps.count > 0 {
            assert!(
                compacted.len() < wal.len(),
                "a committed snapshot must let compaction reclaim bytes"
            );
        }
        let t1 = Instant::now();
        let rec = RecoveredServerState::from_log(wal).expect("recovery failed");
        let recov_us = t1.elapsed().as_secs_f64() * 1e6;
        println!(
            "{:>10} | {:>8.2} | {:>+7.1}% | {:>8} | {:>8.1} | {:>9.1} | {:>9.1} | {:>5} | {:>8} | {:>8.0}",
            if interval > 0.0 {
                format!("{interval:.0}")
            } else {
                "wal-only".to_string()
            },
            wall_ms,
            (wall_ms / base_ms - 1.0) * 100.0,
            records,
            records as f64 / out.finished_at.as_secs_f64(),
            wal.len() as f64 / 1024.0,
            compacted.len() as f64 / 1024.0,
            snaps.count,
            rec.replayed,
            recov_us,
        );
        // Same simulation either way: durability must not perturb it.
        assert_eq!(
            out.reports[0].total_s.to_bits(),
            base.reports[0].total_s.to_bits(),
            "journaling changed the simulation"
        );
    }
}

/// `(q1, median, q3)` of `xs` (nearest-rank on the sorted sample).
fn quartiles(xs: &mut [f64]) -> (f64, f64, f64) {
    xs.sort_by(f64::total_cmp);
    let at = |q: f64| xs[((xs.len() - 1) as f64 * q).round() as usize];
    (at(0.25), at(0.5), at(0.75))
}

/// Inline mirror compaction priced against the plain plan at the
/// `wal_cycle` shape. Rounds rotate the plan order so no plan always
/// runs first (cold) or last.
fn wal_cycle_table() {
    const ROUNDS: usize = 7;
    const HOSTS: u32 = 500;
    const WUS_PER_HOST: u32 = 25;
    let plans: [(&str, DurabilityPlan); 2] = [
        ("plain", DurabilityPlan::new(300.0)),
        (
            "inline 4MiB",
            DurabilityPlan::new(300.0).with_compaction(CompactionPolicy::max_mirror_bytes(4 << 20)),
        ),
    ];

    let dir = std::env::temp_dir().join(format!("vmr-recovery-study-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    let mut run_ms: Vec<Vec<f64>> = vec![Vec::new(); plans.len()];
    let mut recov_ms: Vec<Vec<f64>> = vec![Vec::new(); plans.len()];
    // (log, mirror, compacted) bytes and replayed records: counts, the
    // same every round.
    let mut sizes = vec![(0usize, 0usize, 0usize, 0u64); plans.len()];
    let sink = dir.join("wal.mirror");
    // One journaled run of the cycle's shape; returns the engine and
    // the run's wall time, mirror flushed.
    let cycle = |plan: &DurabilityPlan, profiling: bool| {
        let mut eng = Engine::builder(1)
            .durability(plan.clone().with_sink(&sink))
            .clients((0..HOSTS).map(|_| {
                (
                    HostProfile::pc3001(),
                    HostLink::symmetric_mbit(100.0, 0.000_5),
                )
            }))
            .build();
        eng.obs.set_profiling(profiling);
        for w in 0..HOSTS * WUS_PER_HOST {
            eng.insert_workunit(WorkUnitSpec::basic(format!("w{w}"), "app", 2e9));
        }
        let t0 = Instant::now();
        eng.run_until(&mut NullPolicy, SimTime::from_secs(500_000), |e| {
            e.db.all_wus_terminal()
        });
        eng.durable().flush_sink();
        (eng, t0.elapsed().as_secs_f64() * 1e3)
    };
    for round in 0..ROUNDS {
        for k in 0..plans.len() {
            let i = (k + round) % plans.len();
            let (eng, ms) = cycle(&plans[i].1, false);
            run_ms[i].push(ms);

            let disk = std::fs::read(&sink).expect("WAL mirror missing");
            let t1 = Instant::now();
            let rec = RecoveredServerState::from_log(&disk).expect("recovery failed");
            recov_ms[i].push(t1.elapsed().as_secs_f64() * 1e3);
            let got = rec.encode_sections();
            for (name, live) in eng.state_sections() {
                let found = got.iter().find(|(n, _)| *n == name).map(|(_, b)| b);
                assert!(
                    found == Some(&live),
                    "{}: recovered section `{name}` differs from the live engine",
                    plans[i].0
                );
            }
            let compacted = compact(&disk).expect("compaction failed").len();
            sizes[i] = (eng.durable().log_len(), disk.len(), compacted, rec.replayed);
        }
    }
    // The durable layer's share of one run, from its own scopes.
    let shares: Vec<String> = plans
        .iter()
        .map(|(name, plan)| {
            let (eng, ms) = cycle(plan, true);
            let snap = eng.obs.snapshot();
            let total_ms = |scope: &str| {
                let h = snap.histogram(&format!("prof.{scope}_us"));
                (h.count, h.count as f64 * h.mean / 1e3)
            };
            let (snaps, snap_ms) = total_ms("durable.snapshot");
            let (writes, write_ms) = total_ms("durable.mirror_write");
            format!(
                "{:>16} | {:>8.1} | {:>9} | {:>9.1} | {:>5} | {:>7.1} | {:>9} | {:>8.1} | {:>6.1}%",
                name,
                ms,
                snap.counter("dur.wal_records"),
                snap.counter("dur.wal_bytes") as f64 / 1e3,
                snaps,
                snap_ms,
                writes,
                write_ms,
                100.0 * (snap_ms + write_ms) / ms,
            )
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();

    println!();
    println!(
        "# mirror compaction at the wal_cycle shape: {HOSTS} hosts x {WUS_PER_HOST} WUs, 300 s \
         snapshots, file mirror; median of {ROUNDS} rotated rounds (KB = 1000 B)"
    );
    println!(
        "{:>16} | {:>8} | {:>9} | {:>9} | {:>9} | {:>9} | {:>8} | {:>8}",
        "plan", "run_ms", "spread_ms", "log_KB", "mirror_KB", "cmpct_KB", "recov_ms", "replay"
    );
    for (i, (name, _)) in plans.iter().enumerate() {
        let (q1, med, q3) = quartiles(&mut run_ms[i]);
        let (_, recov, _) = quartiles(&mut recov_ms[i]);
        let (log, mirror, compacted, replayed) = sizes[i];
        println!(
            "{:>16} | {:>8.1} | {:>9.1} | {:>9.1} | {:>9.1} | {:>9.1} | {:>8.1} | {:>8}",
            name,
            med,
            q3 - q1,
            log as f64 / 1e3,
            mirror as f64 / 1e3,
            compacted as f64 / 1e3,
            recov,
            replayed,
        );
    }

    println!();
    println!(
        "# the durable layer's share of one profiled run (prof.durable.snapshot: encoding and \
         framing a snapshot; prof.durable.mirror_write: the write(2) per commit)"
    );
    println!(
        "{:>16} | {:>8} | {:>9} | {:>9} | {:>5} | {:>7} | {:>9} | {:>8} | {:>7}",
        "plan", "run_ms", "records", "wal_KB", "snaps", "snap_ms", "writes", "write_ms", "share"
    );
    for row in shares {
        println!("{row}");
    }
}

/// Crash → mirror → resume → byte-compare under `plan`. Returns false
/// on mismatch.
fn smoke(name: &str, plan: DurabilityPlan) -> bool {
    let mut cfg = ExperimentConfig::table1(5, 3, 2, MrMode::InterClient);
    cfg.input_bytes = 32 << 20;
    cfg.durable = plan;

    let base = run_or_exit(&cfg);
    assert!(base.all_done, "{name} smoke baseline did not complete");
    let committed = RecoveredServerState::from_log(base.wal.as_ref().unwrap())
        .expect("baseline log unreadable")
        .committed_records;

    // Crash mid-run, mirroring committed bytes to a file sink — resume
    // from what the "disk" holds, not the in-memory image.
    let sink = std::env::temp_dir().join(format!("vmr-recovery-smoke-{}.wal", std::process::id()));
    let mut crashed_cfg = cfg.clone();
    crashed_cfg.durable = cfg
        .durable
        .clone()
        .with_crash(CrashPlan::after_records(committed / 2))
        .with_sink(&sink);
    let dead = run_or_exit(&crashed_cfg);
    assert!(dead.crashed && !dead.all_done, "crash plan never fired");
    let disk = std::fs::read(&sink).expect("WAL mirror missing");
    std::fs::remove_file(&sink).ok();
    // A mirrored journal keeps only its open transaction in memory, so
    // the uncompacted log comes from a sinkless twin of the crashed run.
    let mut twin_cfg = crashed_cfg.clone();
    twin_cfg.durable.sink = None;
    let twin = run_or_exit(&twin_cfg);
    assert!(twin.crashed, "crash plan never fired in the sinkless twin");
    let mem = RecoveredServerState::from_log(twin.wal.as_ref().unwrap())
        .expect("in-memory image unreadable");
    let from_disk = RecoveredServerState::from_log(&disk).expect("mirror image unreadable");
    assert_eq!(
        from_disk.committed_seq, mem.committed_seq,
        "the mirror and the log end at different commits"
    );
    let outcome = RecoveredServerState::from_log(dead.wal.as_ref().unwrap())
        .expect("crashed run's outcome image unreadable");
    assert_eq!(
        outcome.committed_seq, mem.committed_seq,
        "the crashed run's outcome image and the log end at different commits"
    );
    let mem_committed = mem.committed_bytes;
    if !cfg.durable.compaction.is_never() {
        assert!(
            disk.len() < mem_committed,
            "the policy never rewrote the mirror"
        );
    }

    let resumed = resume_experiment(&crashed_cfg, &disk).expect("resume failed");
    let want = format_row(5, 3, 2, &base.reports[0]);
    let got = format_row(5, 3, 2, &resumed.reports[0]);
    let ok = resumed.all_done
        && got == want
        && resumed.finished_at == base.finished_at
        && resumed.wal == base.wal;
    if ok {
        println!(
            "{name} smoke OK: crashed at record {} of {}, {} B mirror vs {} B committed log, \
             resumed run is byte-identical",
            committed / 2,
            committed,
            disk.len(),
            mem_committed,
        );
        println!("  row: {got}");
    } else {
        eprintln!("{name} smoke FAILED");
        eprintln!("  baseline: {want} (finished {:?})", base.finished_at);
        eprintln!("  resumed:  {got} (finished {:?})", resumed.finished_at);
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--smoke") {
        // The 20 s cadence puts several snapshots, and so a rewrite of
        // the 4 KiB mirror, ahead of the crash.
        let compacting =
            DurabilityPlan::new(20.0).with_compaction(CompactionPolicy::max_mirror_bytes(4096));
        if !smoke("recovery", DurabilityPlan::new(120.0)) || !smoke("compacted-mirror", compacting)
        {
            std::process::exit(1);
        }
        return;
    }
    sweep(args.iter().any(|a| a == "--full"));
    wal_cycle_table();
}
