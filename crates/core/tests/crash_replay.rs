//! Crash-replay correctness for the durability subsystem.
//!
//! 1. **Crash at every frame boundary**: step a journaled BOINC-MR run
//!    one event at a time, capturing the canonical state sections at
//!    every commit boundary; then recover every prefix of the final log
//!    (every frame end = a crash point, plus torn mid-frame cuts) and
//!    assert the materialized state equals what the live server held at
//!    that log position.
//! 2. **Resume bit-identity**: crash a Table I style experiment at a
//!    record count and at a sim-time, resume each from its WAL image,
//!    and assert the resumed outcome is bit-identical to an
//!    uninterrupted run.

use std::collections::HashMap;
use vmr_core::config::{MrJobConfig, MrMode};
use vmr_core::experiment::{format_row, run_experiment, ExperimentConfig, ExperimentOutcome};
use vmr_core::recover::{resume_experiment, RecoveredServerState};
use vmr_core::MrPolicy;
use vmr_desim::{SimDuration, SimTime};
use vmr_durable::{frame_ends, CompactionPolicy, CrashPlan, DurabilityPlan, Journal};
use vmr_netsim::HostLink;
use vmr_obs::{EventKind, MetricValue};
use vmr_vcore::{
    ClientId, Engine, FaultPlan, HostProfile, NullPolicy, TrustConfig, WorkUnitSpec, WuId,
};

/// Asserts a resumed outcome reproduces the uninterrupted baseline
/// bit-for-bit: Table I row, phase-time f64 bits, counters, end time.
fn assert_bit_identical(resumed: &ExperimentOutcome, base: &ExperimentOutcome, ctx: &str) {
    assert!(resumed.all_done && !resumed.crashed, "{ctx}");
    assert_eq!(
        format_row(5, 3, 2, &resumed.reports[0]),
        format_row(5, 3, 2, &base.reports[0]),
        "{ctx}"
    );
    assert_eq!(
        resumed.reports[0].total_s.to_bits(),
        base.reports[0].total_s.to_bits(),
        "{ctx}"
    );
    assert_eq!(
        resumed.reports[0].map_s.to_bits(),
        base.reports[0].map_s.to_bits(),
        "{ctx}"
    );
    assert_eq!(
        resumed.reports[0].reduce_s.to_bits(),
        base.reports[0].reduce_s.to_bits(),
        "{ctx}"
    );
    assert_eq!(
        resumed.obs.snapshot().counter("vcore.rpcs"),
        base.obs.snapshot().counter("vcore.rpcs"),
        "{ctx}"
    );
    assert_eq!(resumed.finished_at, base.finished_at, "{ctx}");
    // The resumed run's own WAL must re-derive the baseline's.
    assert_eq!(
        resumed.wal.as_ref().unwrap(),
        base.wal.as_ref().unwrap(),
        "{ctx}"
    );
}

fn live_sections(eng: &Engine, pol: &MrPolicy) -> Vec<(String, Vec<u8>)> {
    eng.live_sections(pol)
}

#[test]
fn recovered_state_matches_live_at_every_frame_boundary() {
    // A journaled testbed with a byzantine volunteer, so the log covers
    // validation dissent, credit errors and retries — not just the
    // happy path.
    let plan = DurabilityPlan::new(60.0);
    let j = Journal::new(&plan).unwrap();
    let mut eng = Engine::builder(7)
        .journal(j.clone())
        .clients((0..5).map(|_| {
            (
                HostProfile::pc3001(),
                HostLink::symmetric_mbit(100.0, 0.000_5),
            )
        }))
        .build();
    eng.obs.journal.set_enabled(false);
    eng.fault = FaultPlan {
        byzantine: vec![ClientId(4)],
        corruption_prob: 1.0,
        ..FaultPlan::none()
    };
    let mut pol = MrPolicy::new();

    let horizon = SimTime::from_secs(50_000);
    // Committed log length → canonical sections at that boundary.
    let mut boundaries: HashMap<usize, Vec<(String, Vec<u8>)>> = HashMap::new();
    // Cuts inside the very first transaction recover to genesis
    // (`committed_bytes` = 0, nothing to replay).
    boundaries.insert(0, live_sections(&eng, &pol));

    let mut cfg = MrJobConfig::paper_wordcount(3, 2, MrMode::InterClient);
    cfg.input_bytes = 6_000_000;
    pol.submit_job(&mut eng, cfg);
    // Zero-step entry commits the construction-time records (job
    // submission WU inserts) as their own transaction.
    eng.run_until(&mut pol, horizon, |_| true);
    boundaries.insert(j.log_len(), live_sections(&eng, &pol));
    loop {
        let one_shot = {
            let mut fired = false;
            move |_: &Engine| {
                let stop = fired;
                fired = true;
                stop
            }
        };
        if eng.run_until(&mut pol, horizon, one_shot) == 0 {
            break;
        }
        boundaries.insert(j.log_len(), live_sections(&eng, &pol));
        // Stop at job completion: past it only idle RPC polls and
        // daemon ticks remain, which would pad the log with thousands
        // of identical snapshots.
        if eng.db.all_wus_terminal() {
            break;
        }
    }
    assert!(eng.db.all_wus_terminal(), "tiny job should finish");
    assert!(j.records() > 50, "expected a rich log, got {}", j.records());

    let log = j.log_bytes();
    assert_eq!(
        j.committed_records(),
        j.records(),
        "idle server: all committed"
    );
    let ends = frame_ends(&log).unwrap();
    assert!(ends.len() > 50);

    let mut snapshot_seeded = 0u32;
    let mut check = |cut: usize| {
        let rec = RecoveredServerState::from_log(&log[..cut]).unwrap();
        let want = boundaries
            .get(&rec.committed_bytes)
            .unwrap_or_else(|| panic!("no boundary captured at {}", rec.committed_bytes));
        assert_eq!(&rec.encode_sections(), want, "cut at {cut}");
        if rec.from_snapshot {
            snapshot_seeded += 1;
        }
    };
    // Every frame boundary is a crash point…
    for &cut in &ends {
        check(cut);
    }
    // …and torn mid-frame tails must recover to the preceding commit.
    for &cut in &ends {
        if cut > ends[0] {
            check(cut - 1);
        }
    }
    assert!(
        snapshot_seeded > 0,
        "5 s cadence must have produced committed snapshots"
    );

    // The final image reproduces the live end state exactly.
    let rec = RecoveredServerState::from_log(&log).unwrap();
    assert_eq!(rec.encode_sections(), live_sections(&eng, &pol));
    assert_eq!(rec.committed_records, j.records());
    assert_eq!(rec.tracker.jobs.len(), 1);
    assert_eq!(rec.tracker.jobs[0].phase, vmr_core::Phase::Done);
}

#[test]
fn resumed_experiment_is_bit_identical_to_uninterrupted() {
    let mut cfg = ExperimentConfig::table1(5, 3, 2, MrMode::InterClient);
    cfg.input_bytes = 32 << 20;
    cfg.durable = DurabilityPlan::new(120.0);

    let base = run_experiment(&cfg).expect("valid experiment config");
    assert!(base.all_done && !base.crashed);
    let base_log = base.wal.as_ref().unwrap();
    let full = RecoveredServerState::from_log(base_log).unwrap();
    assert!(full.committed_records > 0);

    let crashes = [
        CrashPlan::after_records(full.committed_records / 2),
        CrashPlan::at_us(base.finished_at.as_micros() / 2),
    ];
    for crash in crashes {
        let mut crashed_cfg = cfg.clone();
        crashed_cfg.durable = cfg.durable.clone().with_crash(crash);
        let dead = run_experiment(&crashed_cfg).expect("valid experiment config");
        assert!(dead.crashed, "{crash:?} never fired");
        assert!(!dead.all_done, "server died mid-job");
        let wal = dead.wal.as_ref().unwrap();

        let resumed = resume_experiment(&crashed_cfg, wal).unwrap();
        assert_bit_identical(&resumed, &base, &format!("{crash:?}"));
    }
}

/// Resume bit-identity with inline mirror compaction on, from *both*
/// crash artifacts: the uncompacted log and the compacted on-disk
/// mirror a real crashed server would actually be left with. A
/// mirrored journal does not keep the mirrored log in memory, so the
/// uncompacted image comes from a sinkless twin of the crashed run
/// (same config, same crash plan). The 20 s cadence puts several
/// snapshots (and so a rewrite of the 4 KiB mirror) ahead of both
/// crash points of this 135 s run.
#[test]
fn resume_bit_identical_from_the_compacted_mirror() {
    let dir = std::env::temp_dir().join(format!("vmr-crash-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let mut cfg = ExperimentConfig::table1(5, 3, 2, MrMode::InterClient);
    cfg.input_bytes = 32 << 20;
    cfg.durable =
        DurabilityPlan::new(20.0).with_compaction(CompactionPolicy::max_mirror_bytes(4096));

    let base = run_experiment(&cfg).expect("valid experiment config");
    assert!(base.all_done && !base.crashed);
    let full = RecoveredServerState::from_log(base.wal.as_ref().unwrap()).unwrap();
    assert!(full.committed_seq > 0);

    let crashes = [
        CrashPlan::after_records(full.committed_records / 2),
        CrashPlan::at_us(base.finished_at.as_micros() / 2),
    ];
    for (i, crash) in crashes.into_iter().enumerate() {
        let sink = dir.join(format!("crash-{i}.wal"));
        let mut crashed_cfg = cfg.clone();
        crashed_cfg.durable = cfg.durable.clone().with_crash(crash).with_sink(&sink);
        let dead = run_experiment(&crashed_cfg).expect("valid experiment config");
        assert!(dead.crashed, "{crash:?} never fired");
        let mut twin_cfg = cfg.clone();
        twin_cfg.durable = cfg.durable.clone().with_crash(crash);
        let twin = run_experiment(&twin_cfg).expect("valid experiment config");
        assert!(twin.crashed, "{crash:?} never fired in the sinkless twin");
        let mem = twin.wal.as_ref().unwrap();

        // Resume from the sinkless twin's image (full uncompacted log)…
        let resumed = resume_experiment(&crashed_cfg, mem).unwrap();
        assert_bit_identical(&resumed, &base, &format!("{crash:?} (memory image)"));

        // …and from the on-disk mirror, compacted behind committed
        // snapshots. Same boundary, same bit-identical outcome,
        // despite holding fewer frames.
        let disk = std::fs::read(&sink).unwrap();
        let from_mem = RecoveredServerState::from_log(mem).unwrap();
        let from_disk = RecoveredServerState::from_log(&disk).unwrap();
        assert_eq!(from_disk.committed_seq, from_mem.committed_seq);
        assert!(
            from_disk.committed_bytes < from_mem.committed_bytes,
            "{crash:?}: the policy must have rewritten the mirror before the crash"
        );
        let resumed_disk = resume_experiment(&crashed_cfg, &disk).unwrap();
        assert_bit_identical(&resumed_disk, &base, &format!("{crash:?} (disk mirror)"));

        // …and from the crashed run's own outcome image: the compacted
        // mirror read back, plus the transaction the crash left open.
        let outcome = dead.wal.as_ref().unwrap();
        assert!(outcome.starts_with(&disk));
        let from_outcome = RecoveredServerState::from_log(outcome).unwrap();
        assert_eq!(from_outcome.committed_seq, from_mem.committed_seq);
        let resumed_outcome = resume_experiment(&crashed_cfg, outcome).unwrap();
        assert_bit_identical(
            &resumed_outcome,
            &base,
            &format!("{crash:?} (outcome image)"),
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Crash-replay with an *active trust ledger*: hosts earn trust, WUs
/// run unreplicated behind quorum overrides, spot-checks and scaled
/// credit grants land in the TRUST/CREDIT WAL sections — and a mid-run
/// crash must still resume to a bit-identical outcome (Table I row,
/// f64 bits, counters, and the resumed WAL itself).
#[test]
fn trust_enabled_crash_resumes_bit_identically() {
    let mut cfg = ExperimentConfig::table1(5, 60, 2, MrMode::InterClient);
    cfg.input_bytes = 32 << 20;
    cfg.durable = DurabilityPlan::new(120.0);
    cfg.trust = TrustConfig::enabled();

    let base = run_experiment(&cfg).expect("valid experiment config");
    assert!(base.all_done && !base.crashed);
    let full = RecoveredServerState::from_log(base.wal.as_ref().unwrap()).unwrap();
    let observed: u64 = (0..5).map(|h| full.trust.host(h).validated).sum();
    assert!(observed > 0, "the recovered ledger must show activity");
    // Sixty maps give the five hosts enough grants after probation for
    // the 5 % spot-check draw to fire.
    assert!(full.trust.trusted_count() > 0, "hosts earn trust");
    let spot_checks: u64 = (0..5).map(|h| full.trust.host(h).spot_checks).sum();
    assert!(spot_checks > 0, "a trusted host is spot-checked");
    assert!(
        base.obs.snapshot().counter("trust.replication_saved") > 0,
        "work units run unreplicated"
    );
    assert!(
        full.trust.config().enabled,
        "the snapshot-embedded config survives recovery"
    );

    let crashes = [
        CrashPlan::after_records(full.committed_records / 2),
        CrashPlan::at_us(base.finished_at.as_micros() / 2),
    ];
    for crash in crashes {
        let mut crashed_cfg = cfg.clone();
        crashed_cfg.durable = cfg.durable.clone().with_crash(crash);
        let dead = run_experiment(&crashed_cfg).expect("valid experiment config");
        assert!(dead.crashed, "{crash:?} never fired");
        let resumed = resume_experiment(&crashed_cfg, dead.wal.as_ref().unwrap()).unwrap();
        assert_bit_identical(&resumed, &base, &format!("trust {crash:?}"));
    }
}

/// Crash-replay with an *active swarm shuffle*: chunked multi-source
/// fetches are in flight mid-reduce, the fetch plan is journaled as
/// `MrShufflePlanned`, and a crash in the middle of the reduce phase
/// must still resume to a bit-identical outcome. The swarm transfer
/// state itself is client-side and rebuilt by re-driving the run from
/// t=0, so only the tracker-side plan needs the WAL.
#[test]
fn swarm_shuffle_crash_resumes_bit_identically() {
    let mut cfg = ExperimentConfig::table1(5, 3, 2, MrMode::InterClient);
    cfg.input_bytes = 32 << 20;
    cfg.durable = DurabilityPlan::new(120.0);
    cfg.shuffle = vmr_core::ShuffleConfig::swarm();

    let base = run_experiment(&cfg).expect("valid experiment config");
    assert!(base.all_done && !base.crashed);
    assert!(
        base.obs.snapshot().counter("shuffle.chunks_swarmed") > 0,
        "the base run must actually swarm"
    );
    let full = RecoveredServerState::from_log(base.wal.as_ref().unwrap()).unwrap();
    assert_eq!(
        full.tracker.jobs[0].shuffle_strategy,
        vmr_vcore::StrategyKind::Swarm,
        "the recovered tracker must carry the swarm plan"
    );

    // Crash halfway through the reduce phase — swarm transfers are
    // mid-fetch — and also at the record-count midpoint.
    let reduce_mid_us =
        base.finished_at.as_micros() - (base.reports[0].reduce_s * 500_000.0) as u64;
    let crashes = [
        CrashPlan::at_us(reduce_mid_us),
        CrashPlan::after_records(full.committed_records / 2),
    ];
    for crash in crashes {
        let mut crashed_cfg = cfg.clone();
        crashed_cfg.durable = cfg.durable.clone().with_crash(crash);
        let dead = run_experiment(&crashed_cfg).expect("valid experiment config");
        assert!(dead.crashed, "{crash:?} never fired");
        let resumed = resume_experiment(&crashed_cfg, dead.wal.as_ref().unwrap()).unwrap();
        assert_bit_identical(&resumed, &base, &format!("swarm {crash:?}"));
    }
}

/// CrashPlan × FaultIndex interaction: the crash fires on the same
/// event the fault machinery acts on — at the exact arming instant of
/// a client dropout, and mid-stream in a byzantine-corrupted run —
/// and resume must still be bit-identical. This pins down the
/// ordering contract between fault lookups (which consume rng draws)
/// and the WAL: every fault-driven state change is journaled like any
/// other, so re-driving a faulted run reproduces it exactly.
#[test]
fn crash_on_a_fault_event_resumes_bit_identically() {
    let dropout_s = 120u64;
    let mut cfg = ExperimentConfig::table1(5, 3, 2, MrMode::InterClient);
    cfg.input_bytes = 16 << 20;
    cfg.fault = FaultPlan {
        byzantine: vec![ClientId(2)],
        corruption_prob: 1.0,
        dropouts: vec![(ClientId(4), SimDuration::from_secs(dropout_s))],
        ..FaultPlan::none()
    };
    cfg.durable = DurabilityPlan::new(60.0);

    let base = run_experiment(&cfg).expect("valid experiment config");
    assert!(base.all_done && !base.crashed, "faulted base must finish");
    let full = RecoveredServerState::from_log(base.wal.as_ref().unwrap()).unwrap();

    let crashes = [
        // The same sim-instant the dropout arms.
        CrashPlan::at_us(dropout_s * 1_000_000),
        // Mid-stream between byzantine dissent records.
        CrashPlan::after_records(full.committed_records / 3),
    ];
    for crash in crashes {
        let mut crashed_cfg = cfg.clone();
        crashed_cfg.durable = cfg.durable.clone().with_crash(crash);
        let dead = run_experiment(&crashed_cfg).expect("valid experiment config");
        assert!(dead.crashed, "{crash:?} never fired");
        let resumed = resume_experiment(&crashed_cfg, dead.wal.as_ref().unwrap()).unwrap();
        assert_bit_identical(&resumed, &base, &format!("{crash:?}"));
    }
}

/// A time crash inside a daemon interval with no work. Six volunteers,
/// one work unit of two ~800 s replicas: once both are granted the
/// feeder stays empty, and the four idle hosts' empty RPCs are all the
/// fleet does. With the event journal off those are parked wakes, not
/// events, and the first event at or after the crash instant is one of
/// them. The journal-off run must die at that wake as its journal-on
/// twin does: the same WAL bytes, end clock and counters.
#[test]
fn crash_inside_an_idle_interval_lands_on_the_parked_wake() {
    let run = |journal: bool, crash: CrashPlan| {
        let plan = DurabilityPlan::new(60.0).with_crash(crash);
        let mut eng = Engine::builder(3)
            .durability(plan)
            .clients((0..6).map(|_| {
                (
                    HostProfile::pc3001(),
                    HostLink::symmetric_mbit(100.0, 0.000_5),
                )
            }))
            .build();
        eng.obs.journal.set_enabled(journal);
        eng.insert_workunit(WorkUnitSpec::basic("long", "app", 800.0 * 1.5e9));
        eng.run_until(&mut NullPolicy, SimTime::from_secs(100_000), |e| {
            e.db.all_wus_terminal()
        });
        eng
    };
    // The first empty RPC of a host holding no replica, past 300 s.
    let whole = run(true, CrashPlan::none());
    let holders: Vec<u32> = whole
        .db
        .results_of(WuId(0))
        .iter()
        .filter_map(|&r| whole.db.result(r).client.map(|c| c.0))
        .collect();
    let wake_us = whole
        .obs
        .journal
        .events()
        .into_iter()
        .find_map(|e| match e.kind {
            EventKind::RpcServed {
                client,
                empty: true,
                ..
            } if e.t_us > 300_000_000 && !holders.contains(&client) => Some(e.t_us),
            _ => None,
        })
        .expect("an idle host polls past 300 s");

    let counters = |eng: &Engine| -> Vec<(String, u64)> {
        eng.obs
            .snapshot()
            .entries
            .into_iter()
            .filter_map(|(name, v)| match v {
                MetricValue::Counter(n) if name != "desim.events_delivered" => Some((name, n)),
                _ => None,
            })
            .collect()
    };
    let unparked = run(true, CrashPlan::at_us(wake_us));
    let parked = run(false, CrashPlan::at_us(wake_us));
    assert!(unparked.durable().crashed() && parked.durable().crashed());
    assert_eq!(unparked.now().as_micros(), wake_us, "died at the wake");
    assert_eq!(parked.now(), unparked.now(), "finished_at");
    assert_eq!(counters(&parked), counters(&unparked));
    assert!(
        parked.durable().log_bytes() == unparked.durable().log_bytes(),
        "the WALs differ"
    );
    assert!(
        parked.obs.snapshot().counter("desim.events_delivered")
            < unparked.obs.snapshot().counter("desim.events_delivered"),
        "the idle hosts' RPCs parked"
    );
}
