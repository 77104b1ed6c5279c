//! `table1_sweep`: the paper's own evaluation.
//!
//! `run_experiment` over the nine measured Table I geometries plus the
//! 20/20/5 InterClient geometry under the swarm and coded shuffle
//! strategies, and the nine geometries once more at the seeds the
//! repository's `table1` binary publishes (for the error against the
//! paper's totals). Testbed scale: the work spreads over the event
//! kernel, the middleware, the JobTracker and the shuffle, with the
//! network engine lightly loaded. The workload every refactor has to
//! leave flat.
//!
//! A swarm experiment costs ~100 ms of host time against 0.4–6 ms for
//! any other (its chunked transfers reallocate the network ~15 000
//! times), so it runs at one sweep seed in eight: at equal weight it
//! would be four fifths of the workload and turn it into a second
//! network-engine benchmark.

use super::{Params, RepeatOut};
use crate::span::Tracer;
use crate::stats::{fold, mix, FOLD_INIT};
use std::time::Instant;
use vmr_core::{
    run_experiment, ExperimentConfig, MrMode, ShuffleConfig, SizingModel, StrategyKind,
};
use vmr_mapreduce::apps::WordCount;
use vmr_mapreduce::{CorpusGen, CorpusSpec};

/// (nodes, maps, reduces, mode, the paper's published total seconds).
const TABLE1: [(usize, usize, usize, MrMode, f64); 9] = [
    (10, 10, 2, MrMode::ServerRelay, 1121.0),
    (10, 20, 2, MrMode::ServerRelay, 1133.0),
    (15, 15, 3, MrMode::ServerRelay, 1529.0),
    (15, 30, 3, MrMode::ServerRelay, 1378.0),
    (20, 20, 5, MrMode::ServerRelay, 1111.0),
    (20, 40, 5, MrMode::ServerRelay, 1681.0),
    (30, 30, 7, MrMode::ServerRelay, 1373.0),
    (30, 40, 5, MrMode::ServerRelay, 1174.0),
    (20, 20, 5, MrMode::InterClient, 1216.0),
];

/// Sweep seeds per repeat: each runs the nine Table I geometries and
/// the coded-shuffle one; every [`SWARM_EVERY`]-th also the swarm one.
fn sweep_seeds(p: &Params) -> u64 {
    if p.smoke {
        2
    } else {
        32
    }
}

/// One sweep seed in this many runs the swarm-shuffle experiment.
const SWARM_EVERY: u64 = 8;

/// Bytes of synthetic corpus the sizing model is calibrated on.
pub const CALIBRATION_SAMPLE_BYTES: usize = 2 << 20;

/// The word-count sample the sizing model is calibrated on: the
/// repository's default corpus, as its own Table I harness uses.
pub fn calibration_sample() -> Vec<u8> {
    CorpusGen::new(&CorpusSpec::default()).generate(CALIBRATION_SAMPLE_BYTES)
}

fn calibrate() -> SizingModel {
    SizingModel::calibrate(&WordCount, &calibration_sample())
}

pub(super) fn setup_only(_p: &Params) -> f64 {
    let t = Instant::now();
    std::hint::black_box(calibrate());
    t.elapsed().as_secs_f64()
}

/// The seed the repository's `table1` binary runs a row at.
fn paper_seed(nodes: usize, n_maps: usize, n_reduces: usize, mode: MrMode) -> u64 {
    0xB01C_0000
        ^ ((nodes as u64) << 24)
        ^ ((n_maps as u64) << 12)
        ^ (n_reduces as u64)
        ^ ((matches!(mode, MrMode::InterClient) as u64) << 40)
}

/// Sums of what the experiments of one repeat reported.
#[derive(Default)]
struct Totals {
    attempted: u64,
    failed: u64,
    makespan_sum: f64,
    fingerprint: u64,
    counts: Vec<(&'static str, f64)>,
    violations: Vec<String>,
}

impl Totals {
    /// Runs one experiment and folds it in; returns its total seconds.
    fn run(&mut self, cfg: &ExperimentConfig) -> f64 {
        self.attempted += 1;
        let out = match run_experiment(cfg) {
            Ok(out) => out,
            Err(e) => {
                self.failed += 1;
                self.violations.push(format!("experiment rejected: {e}"));
                return 0.0;
            }
        };
        if !out.all_done || out.reports.is_empty() {
            self.failed += 1;
            return 0.0;
        }
        let snap = out.obs.snapshot();
        let shuffled =
            snap.counter("shuffle.bytes_p2p") + snap.counter("shuffle.bytes_server_fallback");
        match cfg.mode {
            MrMode::ServerRelay if shuffled != 0 => self
                .violations
                .push("a server-relay job moved shuffle bytes between clients".into()),
            MrMode::InterClient if cfg.shuffle.strategy == StrategyKind::Baseline => {
                // Reducers pull whole partitions (or read them locally
                // when they hold the map output themselves), at most
                // once per input of every result the job may create.
                let chunk = cfg.input_bytes / cfg.n_maps as u64;
                let partition = cfg.sizing.partition_bytes(chunk, cfg.n_reduces);
                let most = (cfg.n_reduces * cfg.n_maps) as u64 * 4 * cfg.replication as u64;
                if shuffled == 0 || shuffled % partition != 0 || shuffled / partition > most {
                    self.violations.push(format!(
                        "inter-client shuffle moved {shuffled} B: not 1..={most} whole \
                         {partition} B partitions"
                    ));
                }
            }
            _ => {}
        }
        let counts = super::engine_counts(&snap, 0);
        if self.counts.is_empty() {
            self.counts = counts;
        } else {
            for (have, add) in self.counts.iter_mut().zip(counts) {
                have.1 += add.1;
            }
        }
        let total_s = out.reports[0].total_s;
        self.makespan_sum += total_s;
        self.fingerprint = fold(self.fingerprint, total_s.to_bits());
        total_s
    }
}

pub(super) fn repeat(p: &Params, tr: &mut Tracer) -> RepeatOut {
    let s = tr.begin("setup");
    let t = Instant::now();
    let sizing = calibrate();
    let setup_s = t.elapsed().as_secs_f64();
    tr.end(s);

    let s = tr.begin("run");
    let mut totals = Totals {
        fingerprint: FOLD_INIT,
        ..Totals::default()
    };
    let t = Instant::now();
    let mut err_sum = 0.0;
    for (nodes, n_maps, n_reduces, mode, paper_total) in TABLE1 {
        let mut cfg = ExperimentConfig::table1(nodes, n_maps, n_reduces, mode);
        cfg.sizing = sizing;
        cfg.seed = paper_seed(nodes, n_maps, n_reduces, mode);
        let total_s = totals.run(&cfg);
        err_sum += (total_s - paper_total).abs() / paper_total;
    }
    for k in 0..sweep_seeds(p) {
        for (g, (nodes, n_maps, n_reduces, mode, _)) in TABLE1.into_iter().enumerate() {
            let mut cfg = ExperimentConfig::table1(nodes, n_maps, n_reduces, mode);
            cfg.sizing = sizing;
            cfg.seed = mix(p.seed, k * 16 + g as u64);
            totals.run(&cfg);
        }
        let mut shuffles = vec![(9, ShuffleConfig::coded(2))];
        if k % SWARM_EVERY == 0 {
            shuffles.push((10, ShuffleConfig::swarm()));
        }
        for (g, shuffle) in shuffles {
            let mut cfg = ExperimentConfig::table1(20, 20, 5, MrMode::InterClient);
            cfg.sizing = sizing;
            cfg.seed = mix(p.seed, k * 16 + g);
            cfg.shuffle = shuffle;
            totals.run(&cfg);
        }
    }
    let wall_s = t.elapsed().as_secs_f64();
    tr.end(s);

    let s = tr.begin("check");
    let done = (totals.attempted - totals.failed).max(1) as f64;
    let mut exact = std::mem::take(&mut totals.counts);
    exact.push(("sim_makespan_s", totals.makespan_sum / done));
    exact.push(("paper_total_err_pct", 100.0 * err_sum / TABLE1.len() as f64));
    exact.push(("schedule_fingerprint", totals.fingerprint as f64));
    exact.push(("sizing_expansion", sizing.expansion));
    // The shape the layer legs model: the InterClient geometry.
    exact.push(("shape.hosts", 20.0));
    exact.push(("shape.wus", 25.0));
    exact.push(("shape.n_maps", 20.0));
    exact.push(("shape.n_reduces", 5.0));
    // Both replicas of every map fetching their input at once.
    exact.push(("shape.concurrent_flows", 40.0));
    // Counts are sums over the experiments; shapes are of one.
    exact.push(("shape.runs", totals.attempted as f64));
    let out = RepeatOut {
        setup_s,
        wall_s,
        attempted: totals.attempted,
        failed: totals.failed,
        violations: totals.violations,
        exact,
        timed: Vec::new(),
        probes: Vec::new(),
    };
    tr.end(s);
    out
}
