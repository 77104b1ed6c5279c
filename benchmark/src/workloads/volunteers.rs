//! `volunteers2k_plain` and `volunteers2k_files`: a 2000-host testbed
//! fleet working through plain (non-MapReduce) work units at quorum 2.
//!
//! Plain: file-less work units, so the server daemons (feeder,
//! scheduler, transitioner, validator) do nearly all the work and the
//! network engine starts no flow at all. Files: one work unit per host
//! with a 4 MB server-hosted input and a 1 MB uploaded output, so the
//! exact-regime network engine does most of the work on few RPCs.
//! (A 4 MB input and a 1 MB output per result; with two replicas per
//! work unit, one work unit for every two hosts puts exactly one result
//! on every host: 4000 flows, ~2000 of them open at once.)

use super::{
    engine_counts, journal_events, run_engine, schedule_fingerprint, unvalidated, EngineProbe,
    Params, RepeatOut,
};
use crate::span::Tracer;
use crate::stats::mix;
use std::time::Instant;
use vmr_netsim::HostLink;
use vmr_vcore::{Engine, FileRef, HostProfile, NullPolicy, WorkUnitSpec};

/// (hosts, work units).
fn size(p: &Params, files: bool) -> (u32, u32) {
    match (files, p.smoke) {
        (false, false) => (2000, 24_000),
        (false, true) => (500, 1_500),
        (true, false) => (2000, 1_000),
        (true, true) => (600, 300),
    }
}

fn build(p: &Params, files: bool) -> Engine {
    let (hosts, wus) = size(p, files);
    let mut eng = Engine::builder(mix(p.seed, files as u64))
        .clients((0..hosts).map(|_| {
            (
                HostProfile::pc3001(),
                HostLink::symmetric_mbit(100.0, 0.000_5),
            )
        }))
        .build();
    for i in 0..wus {
        let mut spec = WorkUnitSpec::basic(format!("w{i}"), "app", 2e9);
        spec.target_nresults = 2;
        spec.min_quorum = 2;
        if files {
            spec.inputs
                .push(FileRef::on_server(format!("in{i}"), 4 << 20));
            spec.output_bytes = 1 << 20;
        }
        eng.insert_workunit(spec);
    }
    eng
}

pub(super) fn setup_only(p: &Params, files: bool) -> f64 {
    let t = Instant::now();
    std::hint::black_box(build(p, files));
    t.elapsed().as_secs_f64()
}

pub(super) fn repeat(p: &Params, tr: &mut Tracer, files: bool) -> RepeatOut {
    let s = tr.begin("setup");
    let t = Instant::now();
    let mut eng = build(p, files);
    let setup_s = t.elapsed().as_secs_f64();
    tr.end(s);

    let s = tr.begin("run");
    let mut probe = EngineProbe::for_repeat(tr, &eng);
    let t = Instant::now();
    let events = run_engine(&mut eng, &mut NullPolicy, &mut probe, |e| {
        e.db.all_wus_terminal()
    });
    let wall_s = t.elapsed().as_secs_f64();
    tr.end(s);

    let s = tr.begin("check");
    let snap = eng.obs.snapshot();
    let attempted = eng.db.n_wus() as u64;
    let failed = unvalidated(&eng);
    let mut violations = Vec::new();
    if events != snap.counter("desim.events_delivered") {
        violations.push("run_until's event count disagrees with desim.events_delivered".into());
    }
    if !files && snap.counter("netsim.flows_started") != 0 {
        violations.push("file-less work units started network flows".into());
    }
    let mut exact = engine_counts(&snap, journal_events(&eng));
    exact.push(("sim_makespan_s", eng.now().as_secs_f64()));
    exact.push(("schedule_fingerprint", schedule_fingerprint(&eng) as f64));
    exact.push(("shape.hosts", eng.n_clients() as f64));
    exact.push(("shape.wus", attempted as f64));
    let out = RepeatOut {
        setup_s,
        wall_s,
        attempted,
        failed,
        violations,
        exact,
        timed: Vec::new(),
        probes: probe.map_or(Vec::new(), |pr| pr.finish(&snap)),
    };
    tr.end(s);
    out
}
