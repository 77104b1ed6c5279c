//! Middleware legs: the BOINC server daemons, one at a time — feeder,
//! scheduler (grant and empty path), transitioner, validator,
//! assimilator, database insert, engine construction, and the
//! completion predicate every harness hands to `run_until`.

use super::Ctx;
use vmr_desim::SimTime;
use vmr_netsim::HostLink;
use vmr_vcore::sched::WorkRequest;
use vmr_vcore::{
    check_quorum, run_transition_pass, serve_batch, Assimilated, Assimilator, ClientId, Db, Engine,
    Feeder, HostProfile, OutputFingerprint, PopulationSpec, Preset, ProjectConfig, ResultOutcome,
    WorkUnitSpec, WorkerPool, WuId,
};

/// `ProjectConfig::default().feeder_slots`, the cache the engine's
/// scheduler picks from between two feeder passes.
const FEEDER_SLOTS: usize = 100;
/// `ProjectConfig::default().server_daemon_period_s`.
const DAEMON_PERIOD_S: f64 = 5.0;

fn db_with(n_wus: usize) -> Db {
    let mut db = Db::new();
    for i in 0..n_wus {
        db.insert_workunit(
            WorkUnitSpec::basic(format!("w{i}"), "app", 2e9),
            SimTime::ZERO,
        );
    }
    db
}

/// Grants every replica of `db` through the scheduler, round-robin over
/// `clients` hosts; returns the RPCs served.
fn grant_all(db: &mut Db, clients: u32) -> u64 {
    let pool = WorkerPool::sequential();
    let mut feeder = Feeder::new(1);
    let deadline = SimTime::from_secs(100_000);
    let mut rpcs = 0;
    let mut next = 0u32;
    loop {
        feeder.refill(db, FEEDER_SLOTS, &pool);
        if feeder.is_empty() {
            return rpcs;
        }
        while !feeder.is_empty() {
            let reqs: Vec<WorkRequest> = (0..25)
                .map(|k| WorkRequest {
                    client: ClientId((next + k) % clients),
                    slots_wanted: 2,
                })
                .collect();
            next = (next + 25) % clients;
            rpcs += serve_batch(db, &mut feeder, &reqs, 4, SimTime::from_secs(1), |_, _| {
                deadline
            })
            .len() as u64;
        }
    }
}

pub fn legs(cx: &mut Ctx<'_>) {
    let rpcs = cx.count("vcore.rpcs");
    if rpcs == 0.0 {
        return;
    }
    let n_wus = (cx.count("shape.wus") as usize).max(1);
    let hosts = (cx.count("shape.hosts") as u32).max(4);
    let empty = cx.count("vcore.empty_replies");
    let reports = cx.count("vcore.reports");
    let events = cx.count("desim.events");
    // In a sweep, counts are sums over the experiments and shapes are of
    // one: every per-run cost below is priced once per experiment.
    let runs = cx.count("shape.runs").max(1.0);
    let internet = cx.count("shape.generated_population") > 0.0;
    let pool = WorkerPool::sequential();

    // Database insert (set-up cost: not part of the timed region).
    let secs = cx.time(
        "vcore.db_insert",
        3,
        || (),
        |()| {
            std::hint::black_box(db_with(n_wus));
        },
    );
    cx.out("vcore.db_insert_ns_per_wu", secs * 1e9 / n_wus as f64, 0.0);

    // Feeder pass over a table with every result still unsent.
    let db = db_with(n_wus);
    let passes = 200;
    let secs = cx.time(
        "vcore.feeder_refill",
        3,
        || Feeder::new(1),
        |mut feeder| {
            for _ in 0..passes {
                feeder.refill(&db, FEEDER_SLOTS, &pool);
            }
            std::hint::black_box(feeder.len());
        },
    );
    let refill_us = secs * 1e6 / passes as f64;
    let ticks = cx.count("sim_end_s").max(cx.count("sim_makespan_s")) / DAEMON_PERIOD_S;
    cx.out(
        "vcore.feeder_refill_us",
        refill_us,
        refill_us * ticks * runs / 1e6,
    );

    // Scheduler, grant path: every RPC finds work in the feeder.
    let mut served = 0u64;
    let secs = cx.time(
        "vcore.sched_grant",
        3,
        || db_with(n_wus),
        |mut db| served = grant_all(&mut db, hosts),
    );
    let grant_ns = secs * 1e9 / served.max(1) as f64;
    cx.out(
        "vcore.sched_ns_per_grant_rpc",
        grant_ns,
        grant_ns * (rpcs - empty) / 1e9,
    );

    // Scheduler, empty path: the feeder has nothing for anyone.
    let n_empty = 100_000u32;
    let secs = cx.time(
        "vcore.sched_empty",
        3,
        || {
            let mut db = db_with(n_wus);
            grant_all(&mut db, hosts);
            db
        },
        |mut db| {
            let mut feeder = Feeder::new(1);
            feeder.refill(&db, FEEDER_SLOTS, &pool);
            let reqs: Vec<WorkRequest> = (0..n_empty)
                .map(|k| WorkRequest {
                    client: ClientId(k % hosts),
                    slots_wanted: 2,
                })
                .collect();
            let out = serve_batch(
                &mut db,
                &mut feeder,
                &reqs,
                4,
                SimTime::from_secs(2),
                |_, _| SimTime::from_secs(9),
            );
            assert!(out.iter().all(|g| g.granted.is_empty()));
        },
    );
    let empty_ns = secs * 1e9 / n_empty as f64;
    cx.out(
        "vcore.sched_ns_per_empty_rpc",
        empty_ns,
        empty_ns * empty / 1e9,
    );

    // Transitioner: one pass validates a fully reported table.
    let secs = cx.time(
        "vcore.transition",
        3,
        || {
            let mut db = db_with(n_wus);
            grant_all(&mut db, hosts);
            for wu in db.wu_ids().collect::<Vec<_>>() {
                for rid in db.results_of(wu).to_vec() {
                    db.mark_reported(
                        rid,
                        ResultOutcome::Success,
                        Some(OutputFingerprint(7)),
                        SimTime::from_secs(2),
                    );
                }
            }
            db
        },
        |mut db| {
            let n = run_transition_pass(&mut db, SimTime::from_secs(3), &pool).len();
            assert_eq!(n, n_wus, "every work unit validates in one pass");
        },
    );
    let transition_ns = secs * 1e9 / n_wus as f64;
    // The engine runs the transitioner on a work unit at each report.
    cx.out(
        "vcore.transition_ns_per_wu",
        transition_ns,
        transition_ns * reports / 1e9,
    );

    // Validator: a two-replica quorum check.
    let checks = 1_000_000;
    let secs = cx.time(
        "vcore.validate",
        3,
        || (),
        |()| {
            for i in 0..checks as u64 {
                let fps = [OutputFingerprint(i), OutputFingerprint(i)];
                std::hint::black_box(check_quorum(std::hint::black_box(&fps), 2));
            }
        },
    );
    let validate_ns = secs * 1e9 / checks as f64;
    cx.out(
        "vcore.validate_ns_per_check",
        validate_ns,
        validate_ns * reports / 1e9,
    );

    // Assimilator: one canonical result per validated work unit.
    let secs = cx.time(
        "vcore.assimilate",
        3,
        || {
            (0..n_wus)
                .map(|i| Assimilated {
                    wu: WuId(i as u32),
                    wu_name: format!("w{i}"),
                    app: "app".to_string(),
                    canonical: OutputFingerprint(7),
                    holders: vec![ClientId(0), ClientId(1)],
                    at: SimTime::from_secs(3),
                })
                .collect::<Vec<_>>()
        },
        |records| {
            let mut sink = Assimilator::new();
            for r in records {
                sink.assimilate(r);
            }
            std::hint::black_box(sink.len());
        },
    );
    let assimilate_ns = secs * 1e9 / n_wus as f64;
    cx.out(
        "vcore.assimilate_ns_per_wu",
        assimilate_ns,
        assimilate_ns * n_wus as f64 * runs / 1e9,
    );

    // Engine construction (set-up cost), at the workload's fleet.
    let secs = cx.time(
        "vcore.build",
        3,
        || (),
        |()| {
            let b = Engine::builder(1);
            let eng = if internet {
                b.config(ProjectConfig::preset(Preset::Internet))
                    .population(PopulationSpec::internet(hosts as usize, 1))
                    .build()
            } else {
                b.clients((0..hosts).map(|_| {
                    (
                        HostProfile::pc3001(),
                        HostLink::symmetric_mbit(100.0, 0.000_5),
                    )
                }))
                .build()
            };
            std::hint::black_box(eng.n_clients());
        },
    );
    cx.out("vcore.build_us_per_host", secs * 1e6 / hosts as f64, 0.0);

    // The completion predicate `run_until` evaluates before every
    // event: `Db::all_wus_terminal` walks the table from the front to
    // the first live work unit. Priced with the first half validated,
    // the mean state of a run that validates in id order.
    let mut db = db_with(n_wus);
    for i in 0..n_wus / 2 {
        db.mark_wu_validated(WuId(i as u32), OutputFingerprint(7), SimTime::from_secs(1));
    }
    let calls = (20_000_000 / n_wus.max(1)).clamp(1_000, 1_000_000);
    let secs = cx.time(
        "vcore.all_terminal_check",
        3,
        || (),
        |()| {
            for _ in 0..calls {
                assert!(!std::hint::black_box(&db).all_wus_terminal());
            }
        },
    );
    let check_ns = secs * 1e9 / calls as f64;
    cx.out(
        "vcore.all_terminal_check_ns",
        check_ns,
        check_ns * events / 1e9,
    );
}
