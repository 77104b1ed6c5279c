//! The six workloads. Each module exposes `repeat` (one set-up, one
//! timed run, one check) and `setup_only` (an extra set-up sample);
//! [`repeat`] and [`setup_only`] here dispatch by name.

use crate::span::Tracer;
use std::path::PathBuf;
use vmr_desim::SimTime;
use vmr_obs::Snapshot;
use vmr_vcore::{honest_fingerprint, Engine, Policy, WuState};

pub mod internet;
pub mod rtnet;
pub mod table1;
pub mod volunteers;
pub mod wal;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 6] = [
    "table1_sweep",
    "volunteers2k_plain",
    "volunteers2k_files",
    "internet100k_mr",
    "wal_cycle",
    "rtnet_fetch",
];

/// What every workload needs to know about this run.
#[derive(Clone, Debug)]
pub struct Params {
    /// `--seed`: every generated input derives from it.
    pub seed: u64,
    /// ~1/20-size inputs.
    pub smoke: bool,
    /// Directory for files a workload writes (WAL mirrors).
    pub scratch: PathBuf,
}

/// What one repeat of a workload produced.
#[derive(Clone, Debug, Default)]
pub struct RepeatOut {
    /// Host seconds spent building inputs and the system under test.
    pub setup_s: f64,
    /// Host seconds of the timed region only.
    pub wall_s: f64,
    /// Operations attempted (experiments, work units, fetches).
    pub attempted: u64,
    /// Operations that did not end in the correct outcome.
    pub failed: u64,
    /// Broken invariants; any entry makes the run incorrect.
    pub violations: Vec<String>,
    /// Simulated values and counts: bit-identical on every repeat of
    /// one binary with one seed.
    pub exact: Vec<(&'static str, f64)>,
    /// Host-time measurements beyond `wall_s`, one sample per repeat.
    pub timed: Vec<(&'static str, f64)>,
    /// Values only a traced repeat observes (sampled peaks, `prof`
    /// scopes); empty on untraced repeats.
    pub probes: Vec<(&'static str, f64)>,
}

/// Runs one repeat of `workload`; `None` for an unknown name.
pub fn repeat(workload: &str, p: &Params, tr: &mut Tracer) -> Option<RepeatOut> {
    Some(match workload {
        "table1_sweep" => table1::repeat(p, tr),
        "volunteers2k_plain" => volunteers::repeat(p, tr, false),
        "volunteers2k_files" => volunteers::repeat(p, tr, true),
        "internet100k_mr" => internet::repeat(p, tr),
        "wal_cycle" => wal::repeat(p, tr),
        "rtnet_fetch" => rtnet::repeat(p, tr),
        _ => return None,
    })
}

/// One more set-up of `workload`, timed and thrown away, so `setup_s`
/// is a median over several samples even when few repeats fit.
pub fn setup_only(workload: &str, p: &Params) -> f64 {
    match workload {
        "table1_sweep" => table1::setup_only(p),
        "volunteers2k_plain" => volunteers::setup_only(p, false),
        "volunteers2k_files" => volunteers::setup_only(p, true),
        "internet100k_mr" => internet::setup_only(p),
        "wal_cycle" => wal::setup_only(p),
        "rtnet_fetch" => rtnet::setup_only(p),
        _ => 0.0,
    }
}

/// The per-layer counts an engine's own registry holds, under the
/// benchmark's metric names.
pub(crate) fn engine_counts(snap: &Snapshot, journal_events: u64) -> Vec<(&'static str, f64)> {
    let c = |key: &str| snap.counter(key) as f64;
    vec![
        ("desim.events", c("desim.events_delivered")),
        ("netsim.flows_started", c("netsim.flows_started")),
        ("netsim.realloc_waves", c("netsim.realloc_waves")),
        ("vcore.rpcs", c("vcore.rpcs")),
        ("vcore.empty_replies", c("vcore.empty_replies")),
        ("vcore.grants", c("vcore.grants")),
        ("vcore.reports", c("vcore.reports")),
        ("shuffle.bytes_p2p", c("shuffle.bytes_p2p")),
        (
            "shuffle.bytes_server_fallback",
            c("shuffle.bytes_server_fallback"),
        ),
        ("durable.records", c("dur.wal_records")),
        ("obs.journal_events", journal_events as f64),
    ]
}

/// Events the engine's obs journal saw (kept or dropped by the ring).
pub(crate) fn journal_events(eng: &Engine) -> u64 {
    eng.obs.journal.len() as u64 + eng.obs.journal.dropped()
}

/// Work units not validated with the honest output fingerprint.
pub(crate) fn unvalidated(eng: &Engine) -> u64 {
    eng.db
        .wu_ids()
        .filter(|&id| {
            let w = eng.db.wu(id);
            w.state != WuState::Validated || w.canonical != Some(honest_fingerprint(&w.spec.name))
        })
        .count() as u64
}

/// FNV fold of every work unit's completion instant: a makespan
/// fingerprint that moves if any part of the schedule moves.
pub(crate) fn schedule_fingerprint(eng: &Engine) -> u64 {
    eng.db.wu_ids().fold(crate::stats::FOLD_INIT, |h, id| {
        let at = eng.db.wu(id).finished_at.map_or(0, |t| t.as_micros());
        crate::stats::fold(h, at)
    })
}

/// Peaks a traced repeat samples once per simulated event, through the
/// engine's own registry handles (two atomic loads and a compare).
pub(crate) struct EngineProbe {
    depth: vmr_obs::Gauge,
    started: vmr_obs::Counter,
    completed: vmr_obs::Counter,
    aborted: vmr_obs::Counter,
    queue_peak: f64,
    flows_peak: u64,
}

impl EngineProbe {
    /// The probe of a traced repeat (`None` with spans off); also
    /// switches the engine's `prof` scopes on.
    pub(crate) fn for_repeat(tr: &Tracer, eng: &Engine) -> Option<Self> {
        tr.enabled().then(|| {
            eng.obs.set_profiling(true);
            EngineProbe::attach(eng)
        })
    }

    fn attach(eng: &Engine) -> Self {
        EngineProbe {
            depth: eng.obs.gauge("desim.queue_depth"),
            started: eng.obs.counter("netsim.flows_started"),
            completed: eng.obs.counter("netsim.flows_completed"),
            aborted: eng.obs.counter("netsim.flows_aborted"),
            queue_peak: 0.0,
            flows_peak: 0,
        }
    }

    fn sample(&mut self) {
        self.queue_peak = self.queue_peak.max(self.depth.get());
        let open = self
            .started
            .get()
            .saturating_sub(self.completed.get() + self.aborted.get());
        self.flows_peak = self.flows_peak.max(open);
    }

    /// The sampled peaks plus the engine's `prof` scopes, which only a
    /// traced repeat switches on.
    pub(crate) fn finish(self, snap: &Snapshot) -> Vec<(&'static str, f64)> {
        vec![
            ("desim.queue_depth_peak", self.queue_peak),
            ("netsim.peak_concurrent_flows", self.flows_peak as f64),
            (
                "netsim.realloc_wave_us",
                snap.histogram("prof.netsim.realloc_wave_us").mean,
            ),
        ]
    }
}

/// Runs `eng` until `done`, sampling `probe` before every event when
/// the repeat is traced. The horizon is one no workload comes near.
pub(crate) fn run_engine<P: Policy>(
    eng: &mut Engine,
    policy: &mut P,
    probe: &mut Option<EngineProbe>,
    done: impl Fn(&Engine) -> bool,
) -> u64 {
    eng.run_until(policy, SimTime::from_secs(500_000), |e| {
        if let Some(pr) = probe.as_mut() {
            pr.sample();
        }
        done(e)
    })
}
