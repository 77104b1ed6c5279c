//! Project/client configuration: the paper's fixed protocol parameters
//! as constants, and the few knobs a study varies as [`ProjectConfig`].
//!
//! The config is grouped into nested sub-structs per subsystem
//! ([`vmr_trust::TrustConfig`], [`vmr_shuffle::ShuffleConfig`]) so new
//! subsystems stop flat-growing the top level; every group carries
//! `#[serde(default)]`.

use serde::{Deserialize, Serialize};
use vmr_desim::SimDuration;

/// Built-in configuration presets (see [`ProjectConfig::preset`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    /// The paper's §IV.A Emulab testbed: replication 2 / quorum 2,
    /// 600 s backoff cap. Identical to `ProjectConfig::default()`.
    Testbed,
    /// Internet-scale volunteer populations. The network engine has one
    /// regime, so this builds the same configuration as
    /// [`Preset::Testbed`]; the variant stays because callers, the
    /// benchmark among them, name it.
    Internet,
}

/// Scheduler RPC round-trip overhead (request parsing, DB queries),
/// seconds. Applied between a client's request and its grant.
pub const RPC_OVERHEAD_S: f64 = 0.5;
/// First backoff delay after an empty reply, seconds (capped by
/// [`ProjectConfig::backoff_max_s`], see [`ProjectConfig::backoff_bounds`]).
pub const BACKOFF_MIN_S: u64 = 60;
/// Maximum results handed out per work request.
pub const MAX_RESULTS_PER_RPC: u32 = 4;
/// How many tasks a client wants buffered (in BOINC terms, the work
/// buffer expressed in task slots). The client requests work when it
/// holds fewer live tasks than this.
pub const CLIENT_BUFFER_SLOTS: u32 = 2;
/// Feeder shared-memory cache capacity (ready-to-send results).
pub const FEEDER_SLOTS: usize = 100;
/// Transitioner/feeder pass period, seconds. Reduce WUs created by a
/// policy become visible to the scheduler only after such a pass —
/// part of the phase-transition gap the paper describes.
pub const SERVER_DAEMON_PERIOD_S: f64 = 5.0;
/// Relative compute-time jitter: a task's execution time is scaled
/// by `uniform[1-jitter, 1+jitter]` per (client, task).
pub const COMPUTE_JITTER: f64 = 0.05;
/// Inter-client transfers: attempts per peer before falling back to
/// the data server ("after n failed attempts, the user resorts to
/// downloading the file from the server").
pub const PEER_RETRY_LIMIT: u32 = 3;
/// Delay between peer retry attempts, seconds.
pub const PEER_RETRY_DELAY_S: f64 = 2.0;
/// Maximum concurrent uploads a serving client accepts ("threshold
/// for a maximum number of inter-client connections").
pub const MAX_SERVING_CONNECTIONS: u32 = 6;
/// When a serving slot is busy, the fetcher retries after this many
/// seconds.
pub const SERVING_BUSY_RETRY_S: f64 = 1.0;
/// Map-output serving window: files stop being served this long
/// after they were produced, unless the server resets the timeout
/// ("if the files have been served for too long").
pub const SERVING_TIMEOUT_S: f64 = 3600.0;

/// The settable part of the middleware model: each field is a switch
/// or value that a bench bin or ablation sets to something other than
/// its default (DESIGN.md §3.3 maps each to its study). The paper's
/// fixed protocol parameters are the module's constants above.
///
/// Defaults follow the paper's setup (§IV.A): replication 2, quorum 2,
/// backoff capped at 600 s, scheduler reachable over LAN latencies.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ProjectConfig {
    /// Backoff cap, seconds (the paper's 600 s).
    pub backoff_max_s: u64,
    /// §IV.C mitigation: report completed results immediately (extra RPC
    /// right after upload) instead of waiting for the next work-fetch
    /// RPC. Off by default — the paper's observed behaviour.
    pub report_results_immediately: bool,
    /// Locality-aware matchmaking: prefer granting a result to a client
    /// that already *serves* some of its input files (a reducer that
    /// mapped part of the data downloads that part from itself).
    pub locality_scheduling: bool,
    /// Host reputation / adaptive replication switch (`vmr-trust`).
    /// Disabled by default — the engine is then bit-identical to the
    /// fixed-quorum baseline.
    #[serde(default)]
    pub trust: vmr_trust::TrustConfig,
    /// Map-output distribution strategy (`vmr-shuffle`). The default
    /// `Baseline` strategy is bit-identical to the pre-strategy
    /// transfer path (enforced by differential proptest).
    #[serde(default)]
    pub shuffle: vmr_shuffle::ShuffleConfig,
}

impl Default for ProjectConfig {
    fn default() -> Self {
        ProjectConfig {
            backoff_max_s: 600,
            report_results_immediately: false,
            locality_scheduling: false,
            trust: vmr_trust::TrustConfig::default(),
            shuffle: vmr_shuffle::ShuffleConfig::default(),
        }
    }
}

impl ProjectConfig {
    /// A named preset.
    pub fn preset(p: Preset) -> Self {
        match p {
            Preset::Testbed | Preset::Internet => ProjectConfig::default(),
        }
    }

    /// Backoff bounds as durations: the first delay is
    /// [`BACKOFF_MIN_S`], lowered to the cap when the cap is below it.
    pub fn backoff_bounds(&self) -> (SimDuration, SimDuration) {
        (
            SimDuration::from_secs(BACKOFF_MIN_S.min(self.backoff_max_s)),
            SimDuration::from_secs(self.backoff_max_s),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ProjectConfig::default();
        assert_eq!(c.backoff_max_s, 600);
        assert!(!c.report_results_immediately);
        assert_eq!(PEER_RETRY_LIMIT, 3);
        assert!(!c.trust.enabled, "trust is opt-in");
    }

    #[test]
    fn backoff_bounds_roundtrip() {
        let c = ProjectConfig::default();
        let (lo, hi) = c.backoff_bounds();
        assert_eq!(lo, SimDuration::from_secs(60));
        assert_eq!(hi, SimDuration::from_secs(600));
        let low_cap = ProjectConfig {
            backoff_max_s: 30,
            ..ProjectConfig::default()
        };
        let (lo, hi) = low_cap.backoff_bounds();
        assert_eq!(
            (lo, hi),
            (SimDuration::from_secs(30), SimDuration::from_secs(30))
        );
    }

    /// One network engine, one regime: the two presets build the same
    /// configuration.
    #[test]
    fn presets() {
        let t = ProjectConfig::preset(Preset::Testbed);
        let i = ProjectConfig::preset(Preset::Internet);
        assert_eq!(format!("{t:?}"), format!("{i:?}"));
        assert_eq!(format!("{t:?}"), format!("{:?}", ProjectConfig::default()));
    }

    /// Serde support is attribute-level with the vendored stub (no
    /// runtime format crate exists offline): the sub-structs carry
    /// `#[serde(default)]` so older configs deserialize under real
    /// serde. Here we verify the derives compile and the nested groups
    /// are value-preserved through a clone.
    #[test]
    fn serde_derives_and_nested_groups() {
        fn serializable<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
        serializable::<ProjectConfig>();
        serializable::<vmr_trust::TrustConfig>();
        let mut c = ProjectConfig::default();
        c.trust.enabled = true;
        let d = c.clone();
        assert_eq!(format!("{c:?}"), format!("{d:?}"));
        assert!(d.trust.enabled);
    }
}
