//! `wal_cycle`: the durable write path beside its read path.
//!
//! One cycle journals a 500-host, 25-work-units-per-host run to a WAL
//! with a file mirror and 300 s snapshots, flushes the mirror, reads it
//! back, recovers every server subsystem from it and compacts it. More
//! snapshots cost `journaled_run_s` and `wal_mb` and buy `recover_s`;
//! every other workload runs with the journal disabled.

use super::{
    engine_counts, journal_events, run_engine, schedule_fingerprint, unvalidated, EngineProbe,
    Params, RepeatOut,
};
use crate::span::Tracer;
use crate::stats::mix;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use vmr_core::RecoveredServerState;
use vmr_durable::{compact, DurabilityPlan};
use vmr_netsim::HostLink;
use vmr_vcore::{Engine, HostProfile, NullPolicy, WorkUnitSpec};

/// (hosts, work units per host).
fn size(p: &Params) -> (u32, u32) {
    if p.smoke {
        (100, 6)
    } else {
        (500, 25)
    }
}

/// A mirror path no other cycle of this or any concurrent process uses.
fn mirror_path(p: &Params) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    p.scratch
        .join(format!("wal-{}-{n}.mirror", std::process::id()))
}

/// The engine of one cycle, journaling to `mirror`, or with the journal
/// off when `mirror` is `None` (the overhead leg's baseline).
pub fn build_cycle(p: &Params, mirror: Option<&PathBuf>) -> Engine {
    std::fs::create_dir_all(&p.scratch).expect("scratch directory is writable");
    let plan = match mirror {
        Some(path) => DurabilityPlan::new(300.0).with_sink(path),
        None => DurabilityPlan::disabled(),
    };
    let (hosts, per_host) = size(p);
    let mut eng = Engine::builder(mix(p.seed, 4))
        .durability(plan)
        .clients((0..hosts).map(|_| {
            (
                HostProfile::pc3001(),
                HostLink::symmetric_mbit(100.0, 0.000_5),
            )
        }))
        .build();
    for i in 0..hosts * per_host {
        eng.insert_workunit(WorkUnitSpec::basic(format!("w{i}"), "app", 2e9));
    }
    eng
}

/// Runs a cycle's engine until every work unit is terminal.
pub fn run_cycle(eng: &mut Engine) -> u64 {
    run_engine(eng, &mut NullPolicy, &mut None, |e| e.db.all_wus_terminal())
}

pub(super) fn setup_only(p: &Params) -> f64 {
    let mirror = mirror_path(p);
    let t = Instant::now();
    std::hint::black_box(build_cycle(p, Some(&mirror)));
    let s = t.elapsed().as_secs_f64();
    std::fs::remove_file(&mirror).ok();
    s
}

pub(super) fn repeat(p: &Params, tr: &mut Tracer) -> RepeatOut {
    let mirror = mirror_path(p);
    let s = tr.begin("setup");
    let t = Instant::now();
    let mut eng = build_cycle(p, Some(&mirror));
    let setup_s = t.elapsed().as_secs_f64();
    tr.end(s);

    let s = tr.begin("run");
    let mut probe = EngineProbe::for_repeat(tr, &eng);
    let t = Instant::now();
    run_engine(&mut eng, &mut NullPolicy, &mut probe, |e| {
        e.db.all_wus_terminal()
    });
    let journaled_run_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    eng.durable().flush_sink();
    let image = std::fs::read(&mirror).expect("the WAL mirror exists after a flush");
    let flush_read_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let recovered = RecoveredServerState::from_log(&image);
    let recover_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let compacted = compact(&image);
    let compact_s = t.elapsed().as_secs_f64();
    tr.end(s);

    let s = tr.begin("check");
    std::fs::remove_file(&mirror).ok();
    let snap = eng.obs.snapshot();
    let mut violations = Vec::new();
    let mut replayed = 0.0;
    match &recovered {
        Ok(rec) => {
            replayed = rec.replayed as f64;
            let got = rec.encode_sections();
            for (name, live) in eng.state_sections() {
                if got.iter().find(|(n, _)| *n == name).map(|(_, b)| b) != Some(&live) {
                    violations.push(format!(
                        "recovered section `{name}` differs from the live engine"
                    ));
                }
            }
            if rec.committed_records != snap.counter("dur.wal_records") {
                violations.push(format!(
                    "recovered {} committed records, the journal wrote {}",
                    rec.committed_records,
                    snap.counter("dur.wal_records")
                ));
            }
        }
        Err(e) => violations.push(format!("recovery failed: {e}")),
    }
    let compacted_len = match &compacted {
        Ok(c) => c.len(),
        Err(e) => {
            violations.push(format!("compaction failed: {e:?}"));
            0
        }
    };
    if compacted_len > image.len() {
        violations.push("compaction grew the log".into());
    }

    let mut exact = engine_counts(&snap, journal_events(&eng));
    exact.push(("sim_makespan_s", eng.now().as_secs_f64()));
    exact.push(("schedule_fingerprint", schedule_fingerprint(&eng) as f64));
    exact.push(("shape.hosts", eng.n_clients() as f64));
    exact.push(("shape.wus", eng.db.n_wus() as f64));
    exact.push(("wal_mb", image.len() as f64 / 1e6));
    exact.push(("compacted_mb", compacted_len as f64 / 1e6));
    exact.push(("durable.replayed_records", replayed));
    exact.push((
        "durable.snapshots",
        snap.histogram("dur.snapshot_us").count as f64,
    ));
    let mut probes = probe.map_or(Vec::new(), |pr| pr.finish(&snap));
    if tr.enabled() {
        probes.push((
            "durable.snapshot_us",
            snap.histogram("dur.snapshot_us").mean,
        ));
    }
    let out = RepeatOut {
        setup_s,
        wall_s: journaled_run_s + flush_read_s + recover_s + compact_s,
        attempted: eng.db.n_wus() as u64,
        failed: unvalidated(&eng),
        violations,
        exact,
        timed: vec![
            ("journaled_run_s", journaled_run_s),
            ("recover_s", recover_s),
            ("compact_s", compact_s),
        ],
        probes,
    };
    tr.end(s);
    out
}
