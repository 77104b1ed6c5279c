//! Shuffle-strategy ablation: {baseline, swarm, coded} word-count runs
//! at three rungs of the scaling ladder —
//!
//! * **40 hosts** — the paper's Emulab-testbed scale, exact network
//!   regime;
//! * **2 000 hosts** — an Anderson-&-Fedak volunteer population behind
//!   ISP tiers, `Preset::Internet` (AggregateNetwork past the
//!   coalescing threshold);
//! * **100 000 hosts** — same population model, aggregate regime only.
//!
//! Reports, per leg and strategy, the shuffle byte split
//! (`shuffle.bytes_p2p` / `shuffle.bytes_server_fallback`), swarm chunk
//! and coded send counts, the job makespan and the wall time; asserts
//! the coded strategy's ≥25 % shuffle-byte cut at 2 000 hosts with the
//! makespan inside the 0.75–1.35 band, and that the 100k-host
//! aggregate legs complete. Emits one machine-readable
//! `BENCH_shuffle.json` line.
//!
//! Usage: `cargo run -p vmr-bench --release --bin shuffle_ablation`
//! (`--smoke` shrinks the job geometry for `scripts/check.sh --full`;
//! same legs, same assertions).

use std::time::Instant;
use vmr_core::{MrJobConfig, MrMode, MrPolicy, Phase, ShuffleConfig};
use vmr_desim::SimTime;
use vmr_vcore::{Engine, HostProfile, PopulationSpec, Preset, ProjectConfig};

#[derive(Clone, Copy)]
struct Leg {
    name: &'static str,
    hosts: usize,
    n_maps: usize,
    n_reduces: usize,
    input_bytes: u64,
    /// Internet population + aggregate network (vs the exact testbed).
    internet: bool,
}

struct Measured {
    makespan_s: f64,
    bytes_p2p: u64,
    bytes_fallback: u64,
    chunks_swarmed: u64,
    coded_sends: u64,
    wall_s: f64,
}

impl Measured {
    fn shuffle_bytes(&self) -> u64 {
        self.bytes_p2p + self.bytes_fallback
    }
}

fn run_leg(leg: &Leg, shuffle: ShuffleConfig) -> Measured {
    let mut pc = if leg.internet {
        ProjectConfig::preset(Preset::Internet)
    } else {
        ProjectConfig::default()
    };
    pc.shuffle = shuffle;
    let seed = 0x5FF1E;
    let mut builder = Engine::builder(seed).config(pc);
    builder = if leg.internet {
        builder.population(PopulationSpec::internet(leg.hosts, seed))
    } else {
        builder.clients((0..leg.hosts).map(|_| {
            (
                HostProfile::pc3001(),
                vmr_netsim::HostLink::symmetric_mbit(100.0, 0.000_5),
            )
        }))
    };
    let mut eng = builder.build();
    eng.obs.journal.set_enabled(false);
    let mut pol = MrPolicy::new();
    let mut jc = MrJobConfig::paper_wordcount(leg.n_maps, leg.n_reduces, MrMode::InterClient);
    jc.input_bytes = leg.input_bytes;
    pol.submit_job(&mut eng, jc);
    let t0 = Instant::now();
    eng.run_until(&mut pol, SimTime::from_secs(400_000), |e| {
        e.db.all_wus_terminal()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let job = &pol.tracker.jobs[0];
    assert_eq!(job.phase, Phase::Done, "{}: job did not complete", leg.name);
    let snap = eng.obs.snapshot();
    Measured {
        makespan_s: job.total_time().expect("finished job has a makespan"),
        bytes_p2p: snap.counter("shuffle.bytes_p2p"),
        bytes_fallback: snap.counter("shuffle.bytes_server_fallback"),
        chunks_swarmed: snap.counter("shuffle.chunks_swarmed"),
        coded_sends: snap.counter("shuffle.coded_sends"),
        wall_s,
    }
}

const STRATEGIES: [&str; 3] = ["baseline", "swarm", "coded"];

fn strategy(name: &str) -> ShuffleConfig {
    match name {
        "baseline" => ShuffleConfig::default(),
        "swarm" => ShuffleConfig::swarm(),
        "coded" => ShuffleConfig::coded(2),
        other => panic!("unknown strategy {other}"),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let legs = if smoke {
        [
            Leg {
                name: "testbed40",
                hosts: 40,
                n_maps: 12,
                n_reduces: 4,
                input_bytes: 96 << 20,
                internet: false,
            },
            Leg {
                name: "internet2k",
                hosts: 2_000,
                n_maps: 60,
                n_reduces: 12,
                input_bytes: 240 << 20,
                internet: true,
            },
            Leg {
                name: "internet100k",
                hosts: 100_000,
                n_maps: 60,
                n_reduces: 12,
                input_bytes: 240 << 20,
                internet: true,
            },
        ]
    } else {
        [
            Leg {
                name: "testbed40",
                hosts: 40,
                n_maps: 20,
                n_reduces: 5,
                input_bytes: 1 << 30,
                internet: false,
            },
            Leg {
                name: "internet2k",
                hosts: 2_000,
                n_maps: 200,
                n_reduces: 40,
                input_bytes: 1 << 30,
                internet: true,
            },
            Leg {
                name: "internet100k",
                hosts: 100_000,
                n_maps: 200,
                n_reduces: 40,
                input_bytes: 1 << 30,
                internet: true,
            },
        ]
    };

    let mut fields = Vec::new();
    let mut by_leg: Vec<Vec<Measured>> = Vec::new();
    for leg in &legs {
        let mut row = Vec::new();
        for name in STRATEGIES {
            eprintln!("{} / {} …", leg.name, name);
            let m = run_leg(leg, strategy(name));
            eprintln!(
                "{:<14} {:<9} makespan {:>8.1} s  shuffle {:>7.1} MiB \
                 (p2p {:>7.1}, fallback {:>6.1})  chunks {:>6}  coded {:>5}  wall {:>7.2} s",
                leg.name,
                name,
                m.makespan_s,
                m.shuffle_bytes() as f64 / (1 << 20) as f64,
                m.bytes_p2p as f64 / (1 << 20) as f64,
                m.bytes_fallback as f64 / (1 << 20) as f64,
                m.chunks_swarmed,
                m.coded_sends,
                m.wall_s,
            );
            fields.push(format!(
                "\"{}_{}\": {{\"hosts\": {}, \"makespan_s\": {:.1}, \"shuffle_bytes\": {}, \
                 \"bytes_p2p\": {}, \"bytes_server_fallback\": {}, \"chunks_swarmed\": {}, \
                 \"coded_sends\": {}, \"wall_s\": {:.3}}}",
                leg.name,
                name,
                leg.hosts,
                m.makespan_s,
                m.shuffle_bytes(),
                m.bytes_p2p,
                m.bytes_fallback,
                m.chunks_swarmed,
                m.coded_sends,
                m.wall_s,
            ));
            row.push(m);
        }
        by_leg.push(row);
    }

    // Sanity: every swarm leg actually swarmed; every coded leg coded.
    for row in &by_leg {
        assert!(row[1].chunks_swarmed > 0, "swarm leg never chunked");
        assert!(row[2].coded_sends > 0, "coded leg never coded");
    }

    // The headline claim, at volunteer-cloud scale: coded distribution
    // cuts total shuffle bytes ≥25 % without distorting the makespan.
    let base2k = &by_leg[1][0];
    let coded2k = &by_leg[1][2];
    let cut = 1.0 - coded2k.shuffle_bytes() as f64 / base2k.shuffle_bytes().max(1) as f64;
    let ratio = coded2k.makespan_s / base2k.makespan_s.max(1e-9);
    eprintln!(
        "2000-host coded shuffle-byte cut: {:.1} % (makespan ratio {:.3})",
        cut * 100.0,
        ratio
    );
    assert!(
        cut >= 0.25,
        "coded must cut ≥25% of shuffle bytes at 2000 hosts, got {:.1}%",
        cut * 100.0
    );
    assert!(
        (0.75..=1.35).contains(&ratio),
        "2000-host coded makespan ratio out of band: {ratio:.3}"
    );

    println!(
        "BENCH_shuffle.json {{\"smoke\": {}, \"coded_cut_2k\": {:.4}, \
         \"coded_makespan_ratio_2k\": {:.4}, {}}}",
        smoke,
        cut,
        ratio,
        fields.join(", "),
    );
}
