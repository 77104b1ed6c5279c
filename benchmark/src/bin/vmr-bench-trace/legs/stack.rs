//! Legs of the thinner layers: trust, shuffle planning, the JobTracker's
//! job submission, the MapReduce calibration and the obs registry.

use super::Ctx;
use vmr_benchmark::workloads::table1::calibration_sample;
use vmr_core::{MrJobConfig, MrMode, MrPolicy, ShuffleConfig, SizingModel};
use vmr_mapreduce::apps::WordCount;
use vmr_netsim::HostLink;
use vmr_vcore::{Engine, HostProfile, ReplicationPolicy, TrustConfig, TrustLedger, TrustOutcome};

pub fn legs(cx: &mut Ctx<'_>) {
    trust(cx);
    shuffle_and_core(cx);
    mapreduce(cx);
    obs(cx);
}

fn trust(cx: &mut Ctx<'_>) {
    let grants = cx.count("vcore.grants");
    if grants == 0.0 {
        return;
    }
    let hosts = (cx.count("shape.hosts") as u32).max(4);
    let n = 1_000_000u32;
    let secs = cx.time(
        "trust.observe",
        3,
        || TrustLedger::new(TrustConfig::enabled()),
        |mut ledger| {
            for i in 0..n {
                ledger.observe(i % hosts, TrustOutcome::Agree);
            }
            std::hint::black_box(ledger.trusted_count());
        },
    );
    // Every workload runs the paper's fixed quorum (trust off): the
    // engine never calls `observe`, and `decide` returns at once.
    cx.out("trust.observe_ns", secs * 1e9 / n as f64, 0.0);
    let policy = ReplicationPolicy::new(TrustConfig::default());
    let secs = cx.time(
        "trust.decide",
        3,
        || (),
        |()| {
            for i in 0..n {
                std::hint::black_box(policy.decide(std::hint::black_box(i % 2 == 0), |p| p > 0.5));
            }
        },
    );
    let decide_ns = secs * 1e9 / n as f64;
    cx.out("trust.decide_ns", decide_ns, decide_ns * grants / 1e9);
}

fn shuffle_and_core(cx: &mut Ctx<'_>) {
    let n_maps = cx.count("shape.n_maps") as usize;
    let n_reduces = cx.count("shape.n_reduces") as usize;
    if n_maps == 0 || n_reduces == 0 {
        return;
    }
    // One plan per (map, reducer) pair per job; thousands of rounds so
    // the batch is long enough to time.
    let rounds = (200_000 / (n_maps * n_reduces)).max(1);
    let holders = [3u32, 11];
    for (metric, config) in [
        (
            "shuffle.plan_ns_per_fetch.baseline",
            ShuffleConfig::default(),
        ),
        ("shuffle.plan_ns_per_fetch.swarm", ShuffleConfig::swarm()),
        ("shuffle.plan_ns_per_fetch.coded", ShuffleConfig::coded(2)),
    ] {
        let strategy = config.build();
        let secs = cx.time(
            metric,
            3,
            || (),
            |()| {
                for _ in 0..rounds {
                    for m in 0..n_maps {
                        for r in 0..n_reduces {
                            std::hint::black_box(strategy.plan_fetch(
                                m,
                                r,
                                n_reduces,
                                1 << 20,
                                std::hint::black_box(&holders),
                            ));
                        }
                    }
                }
            },
        );
        // Planning happens once per job, at the map→reduce transition:
        // nanoseconds against a run of seconds.
        cx.out(
            metric,
            secs * 1e9 / (rounds * n_maps * n_reduces) as f64,
            0.0,
        );
    }

    // Job submission inserts the map work units: set-up for a single
    // job, inside the timed region of every experiment of a sweep.
    let in_run = cx.count("shape.runs");
    let secs = cx.time(
        "core.submit_job",
        5,
        || {
            Engine::builder(1)
                .clients((0..20).map(|_| {
                    (
                        HostProfile::pc3001(),
                        HostLink::symmetric_mbit(100.0, 0.000_5),
                    )
                }))
                .build()
        },
        |mut eng| {
            let mut pol = MrPolicy::new();
            pol.submit_job(
                &mut eng,
                MrJobConfig::paper_wordcount(n_maps, n_reduces, MrMode::InterClient),
            );
            std::hint::black_box(eng.db.n_wus());
        },
    );
    cx.out("core.submit_job_us", secs * 1e6, secs * in_run);
}

fn mapreduce(cx: &mut Ctx<'_>) {
    // Only a workload whose set-up calibrates the sizing model.
    if cx.count("sizing_expansion") == 0.0 {
        return;
    }
    let sample = calibration_sample();
    let secs = cx.time(
        "mapreduce.calibrate",
        3,
        || (),
        |()| {
            std::hint::black_box(SizingModel::calibrate(&WordCount, &sample));
        },
    );
    // Calibration is the workload's set-up, outside the timed region.
    cx.out(
        "mapreduce.calibrate_mb_s",
        sample.len() as f64 / 1e6 / secs,
        0.0,
    );
}

fn obs(cx: &mut Ctx<'_>) {
    let events = cx.count("desim.events");
    if events == 0.0 {
        return;
    }
    // A registry populated the way a live engine's is.
    let eng = Engine::builder(1)
        .client(
            HostProfile::pc3001(),
            HostLink::symmetric_mbit(100.0, 0.000_5),
        )
        .build();
    let snaps = 2_000;
    let secs = cx.time(
        "obs.snapshot",
        3,
        || (),
        |()| {
            for _ in 0..snaps {
                std::hint::black_box(eng.obs.snapshot());
            }
        },
    );
    // Snapshots are taken by harnesses after a run, not during it.
    cx.out("obs.snapshot_us", secs * 1e6 / snaps as f64, 0.0);

    let counter = eng.obs.counter("bench.leg_counter");
    let incs = 10_000_000u64;
    let secs = cx.time(
        "obs.counter_inc",
        3,
        || (),
        |()| {
            for _ in 0..incs {
                std::hint::black_box(&counter).inc();
            }
        },
    );
    let inc_ns = secs * 1e9 / incs as f64;
    // One bump per delivered event, RPC, grant, report and flow edge.
    let bumps = events
        + cx.count("vcore.rpcs")
        + cx.count("vcore.grants")
        + cx.count("vcore.reports")
        + 2.0 * cx.count("netsim.flows_started");
    cx.out("obs.counter_inc_ns", inc_ns, inc_ns * bumps / 1e9);
}
