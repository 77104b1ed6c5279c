//! Flow-churn scaling benchmark for the netsim engine.
//!
//! Drives the shuffle-churn workload (see `vmr_bench::churn`) through
//! two rungs of the scaling ladder on the one network engine: **40
//! hosts** (the paper's Emulab testbed) and **2 000 hosts**. (netsim's
//! differential tests diff the engine against its scan-everything
//! reference.)
//!
//! Emits one machine-readable line, `BENCH_netsim.json`, with the
//! table.
//!
//! Usage: `cargo run -p vmr-bench --release --bin flow_churn`
//! (`--scale-smoke` runs only a 20k-host leg on the Anderson-&-Fedak
//! volunteer population — heavy-tailed access links, oversubscribed ISP
//! tiers, shared backbone — for `scripts/check.sh --full`; two to three
//! minutes on a 2-vCPU Xeon VM).

use std::time::Instant;
use vmr_bench::churn::{
    churn_script, churn_topology, population_topology, run_churn, ChurnOutcome, ChurnSpec,
};
use vmr_netsim::Topology;

struct Measured {
    outcome: ChurnOutcome,
    wall_s: f64,
}

fn measure_on(spec: &ChurnSpec, topo: Topology) -> Measured {
    let script = churn_script(spec);
    let t0 = Instant::now();
    let outcome = run_churn(topo, &script);
    Measured {
        outcome,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

fn measure(spec: &ChurnSpec) -> Measured {
    measure_on(spec, churn_topology(spec))
}

fn events_per_sec(m: &Measured) -> f64 {
    m.outcome.events as f64 / m.wall_s.max(1e-9)
}

fn report(name: &str, m: &Measured) {
    eprintln!(
        "{:<24} flows {:>7}  peak {:>6}  events {:>8}  wall {:>8.3} s  \
         {:>10.0} events/s  makespan {:>8.1} s",
        name,
        m.outcome.started,
        m.outcome.peak_concurrent,
        m.outcome.events,
        m.wall_s,
        events_per_sec(m),
        m.outcome.makespan.as_secs_f64(),
    );
}

fn scale_smoke() {
    // The 20k-host leg for the check.sh --full gate: one fetch per host, one
    // wave, Anderson-&-Fedak population.
    let spec = ChurnSpec {
        hosts: 20_000,
        fetches_per_host: 1,
        waves: 1,
        seed: 0x51AB,
    };
    eprintln!("scale smoke: 20k-host shuffle, volunteer population…");
    let m = measure_on(&spec, population_topology(&spec));
    report("20k-host incremental", &m);
    assert_eq!(m.outcome.completed, m.outcome.started, "lost flows");
    eprintln!("scale smoke OK");
}

fn main() {
    if std::env::args().any(|a| a == "--scale-smoke") {
        scale_smoke();
        return;
    }

    // The paper's Emulab testbed scale: ~40 machines, one shuffle wave of
    // 10 fetches per host → 400 concurrent flows.
    let small = ChurnSpec {
        hosts: 40,
        fetches_per_host: 10,
        waves: 2,
        seed: 0x51AB,
    };
    // Volunteer-cloud scale: three orders of magnitude more hosts than
    // the prototype was evaluated on.
    let large = ChurnSpec {
        hosts: 2000,
        fetches_per_host: 3,
        waves: 2,
        seed: 0x51AB,
    };

    eprintln!("40-host shuffle…");
    let small_inc = measure(&small);
    eprintln!("2000-host shuffle…");
    let large_inc = measure(&large);

    report("40-host incremental", &small_inc);
    report("2000-host incremental", &large_inc);

    println!(
        "BENCH_netsim.json {{\"small_hosts\": {}, \"small_flows\": {}, \"small_peak_concurrent\": {}, \
         \"small_events\": {}, \"small_wall_s\": {:.4}, \"small_events_per_s\": {:.0}, \
         \"large_hosts\": {}, \"large_flows\": {}, \"large_peak_concurrent\": {}, \
         \"large_events\": {}, \"large_wall_s\": {:.4}, \"large_events_per_s\": {:.0}, \
         \"large_makespan_s\": {:.1}}}",
        small.hosts,
        small_inc.outcome.started,
        small_inc.outcome.peak_concurrent,
        small_inc.outcome.events,
        small_inc.wall_s,
        events_per_sec(&small_inc),
        large.hosts,
        large_inc.outcome.started,
        large_inc.outcome.peak_concurrent,
        large_inc.outcome.events,
        large_inc.wall_s,
        events_per_sec(&large_inc),
        large_inc.outcome.makespan.as_secs_f64(),
    );
}
