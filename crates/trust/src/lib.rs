//! Host reputation and adaptive replication (`vmr-trust`).
//!
//! The paper's server validates every workunit by fixed N-way
//! replication — at volunteer scale most of that compute is wasted on
//! hosts that have never returned a bad result. BOINC's production
//! answer (Anderson, "BOINC: A Platform for Volunteer Computing") is
//! *adaptive replication*: each host earns a reliability score through
//! validation history, and once it clears a trust threshold its results
//! are accepted singly, audited only by randomized spot-checks.
//!
//! This crate is the server-side mechanism, kept as a leaf below
//! `vmr-vcore` (host ids are raw `u32`, the `ClientId` newtype lives
//! upstream):
//!
//! - [`TrustLedger`] — per-host error-rate estimator fed by validation
//!   outcomes: exponential decay toward 0 on agreement, multiplicative
//!   punishment on mismatch/error, probation for new hosts. Every
//!   mutation is journaled as a `vmr-durable` [`StateChange`] in the
//!   dedicated `trust` WAL section, so trust state survives
//!   crash-replay bit-identically.
//! - [`ReplicationPolicy`] — maps a host's trust standing to a per-WU
//!   replication decision: full N-way for untrusted hosts, single
//!   replica for trusted ones, with probability-`p` spot-checks that
//!   keep full replication to audit a trusted host.
//! - Credit coupling — on an unreplicated validation the claimed credit
//!   is granted pro-rata to the host's reliability
//!   ([`TrustLedger::reliability`]); the scale travels in the
//!   `CreditGrantedScaled` change record applied by `vcore`'s ledger.
//!
//! The estimator and the policy run on fixed constants —
//! [`TRUST_THRESHOLD`], [`INIT_ERROR_RATE`], [`DECAY`], [`PUNISH`],
//! [`PROBATION_RESULTS`] and [`SPOT_CHECK_RATE`] — as BOINC's adaptive
//! replication does: its parameters are project-wide, not per run, so
//! the only setting is whether the mechanism is on ([`TrustConfig`]),
//! and neither the WAL nor a snapshot carries the constants.

use serde::{Deserialize, Serialize};
use std::collections::btree_map::{BTreeMap, Entry};
use vmr_durable::{Dec, Enc, Journal, StateChange, WireError};

/// A host is trusted once its error-rate estimate falls to this value
/// or below (and probation is served).
pub const TRUST_THRESHOLD: f64 = 0.05;
/// Error-rate estimate assigned to a host before any observation
/// (BOINC's mildly-distrusting prior).
pub const INIT_ERROR_RATE: f64 = 0.1;
/// Multiplier applied to the estimate on each agreement (exponential
/// decay toward 0).
pub const DECAY: f64 = 0.5;
/// Punishment weight on mismatch/error: the estimate jumps to
/// `1 - PUNISH * (1 - err)` — reliability is multiplied by `PUNISH`, so
/// a single bad result from a trusted host instantly exceeds the
/// threshold.
pub const PUNISH: f64 = 0.5;
/// Agreements a host must accumulate before it is eligible for trust
/// (probation for new hosts).
pub const PROBATION_RESULTS: u64 = 3;
/// Probability that a grant to a trusted host keeps full replication
/// anyway, as a randomized audit of its honesty.
pub const SPOT_CHECK_RATE: f64 = 0.05;

/// Whether the reputation estimator and the replication policy run.
///
/// The default keeps the subsystem *disabled*: the engine then behaves
/// bit-identically to the fixed-quorum baseline (no ledger mutations,
/// no WAL records, no rng draws).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct TrustConfig {
    /// Master switch. Off = fixed-quorum behaviour, bit-identical to an
    /// engine built before this subsystem existed.
    pub enabled: bool,
}

impl TrustConfig {
    /// The enabled config.
    pub fn enabled() -> Self {
        TrustConfig { enabled: true }
    }
}

/// A validation outcome fed to the estimator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The host's fingerprint matched the canonical output.
    Agree,
    /// The host returned a dissenting fingerprint.
    Mismatch,
    /// The host errored or missed its deadline.
    Error,
}

impl Outcome {
    /// Wire discriminant (stable, append-only).
    pub fn to_wire(self) -> u8 {
        match self {
            Outcome::Agree => 0,
            Outcome::Mismatch => 1,
            Outcome::Error => 2,
        }
    }

    /// Decode a wire discriminant.
    pub fn from_wire(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            0 => Outcome::Agree,
            1 => Outcome::Mismatch,
            2 => Outcome::Error,
            t => return Err(WireError::BadTag(t)),
        })
    }
}

/// One host's reputation record.
#[derive(Clone, Debug, PartialEq)]
pub struct HostTrust {
    /// Current error-rate estimate in `[0, 1]`.
    pub error_rate: f64,
    /// Agreements observed (clears probation).
    pub validated: u64,
    /// Dissenting fingerprints observed.
    pub mismatches: u64,
    /// Client errors / deadline misses observed.
    pub errors: u64,
    /// Spot-checks drawn while the host was trusted.
    pub spot_checks: u64,
}

impl HostTrust {
    fn fresh() -> Self {
        HostTrust {
            error_rate: INIT_ERROR_RATE,
            validated: 0,
            mismatches: 0,
            errors: 0,
            spot_checks: 0,
        }
    }

    /// Whether this record has served probation and sits at or below
    /// the trust threshold.
    fn trusted(&self) -> bool {
        self.validated >= PROBATION_RESULTS && self.error_rate <= TRUST_THRESHOLD
    }
}

/// Per-host reputation ledger, WAL-journaled like the credit ledger.
/// Hosts are kept in id order, so snapshots walk them in that order and
/// equal ledgers encode to identical bytes.
#[derive(Debug)]
pub struct TrustLedger {
    cfg: TrustConfig,
    hosts: BTreeMap<u32, HostTrust>,
    /// How many of `hosts` are trusted, kept by every host update.
    trusted: u64,
    /// WAL handle (disabled by default).
    journal: Journal,
}

impl TrustLedger {
    /// An empty ledger under `cfg`.
    pub fn new(cfg: TrustConfig) -> Self {
        TrustLedger {
            cfg,
            hosts: BTreeMap::new(),
            trusted: 0,
            journal: Journal::disabled(),
        }
    }

    /// Whether the subsystem is on.
    pub fn config(&self) -> &TrustConfig {
        &self.cfg
    }

    /// Attaches the engine's WAL handle; subsequent observations append
    /// change records. An *enabled* config is itself journaled first,
    /// so a ledger recovered before the first snapshot knows the
    /// subsystem was on (a disabled config appends nothing — the WAL
    /// stays byte-identical to the fixed-quorum baseline).
    pub fn set_journal(&mut self, journal: Journal) {
        self.journal = journal;
        if self.cfg.enabled {
            self.journal
                .append(&StateChange::TrustConfigured { enabled: true });
        }
    }

    /// The record of `h` (a fresh prior when never observed).
    pub fn host(&self, h: u32) -> HostTrust {
        self.hosts.get(&h).cloned().unwrap_or_else(HostTrust::fresh)
    }

    /// Feeds one validation outcome into the estimator.
    pub fn observe(&mut self, h: u32, outcome: Outcome) {
        self.journal.append(&StateChange::TrustObserved {
            client: h,
            outcome: outcome.to_wire(),
        });
        self.raw_observe(h, outcome);
    }

    /// Records that a spot-check was drawn for trusted host `h`.
    pub fn record_spot_check(&mut self, h: u32) {
        self.journal
            .append(&StateChange::TrustSpotCheck { client: h });
        self.raw_spot_check(h);
    }

    /// Applies `f` to `h`'s record (a fresh prior when never observed)
    /// and moves the trusted count by the change in `h`'s standing.
    fn update(&mut self, h: u32, f: impl FnOnce(&mut HostTrust)) {
        let (was, t) = match self.hosts.entry(h) {
            Entry::Occupied(o) => (o.get().trusted(), o.into_mut()),
            Entry::Vacant(v) => (false, v.insert(HostTrust::fresh())),
        };
        f(t);
        let now = t.trusted();
        self.trusted = self.trusted + u64::from(now) - u64::from(was);
    }

    fn raw_observe(&mut self, h: u32, outcome: Outcome) {
        self.update(h, |t| match outcome {
            Outcome::Agree => {
                t.error_rate *= DECAY;
                t.validated += 1;
            }
            Outcome::Mismatch => {
                t.error_rate = 1.0 - PUNISH * (1.0 - t.error_rate);
                t.mismatches += 1;
            }
            Outcome::Error => {
                t.error_rate = 1.0 - PUNISH * (1.0 - t.error_rate);
                t.errors += 1;
            }
        });
    }

    fn raw_spot_check(&mut self, h: u32) {
        self.update(h, |t| t.spot_checks += 1);
    }

    /// Whether `h` has served probation and sits at or below the trust
    /// threshold. Pure trust math — callers gate on
    /// [`TrustConfig::enabled`].
    pub fn is_trusted(&self, h: u32) -> bool {
        self.hosts.get(&h).is_some_and(HostTrust::trusted)
    }

    /// Reliability of `h` (1 − error-rate estimate, clamped to [0, 1]) —
    /// the pro-rata credit scale for unreplicated results.
    pub fn reliability(&self, h: u32) -> f64 {
        (1.0 - self.host(h).error_rate).clamp(0.0, 1.0)
    }

    /// Number of currently-trusted hosts.
    pub fn trusted_count(&self) -> u64 {
        self.trusted
    }

    /// Applies one replayed change record; `Ok(false)` when the record
    /// belongs to another subsystem.
    pub fn apply_change(&mut self, c: &StateChange) -> Result<bool, WireError> {
        match c {
            StateChange::TrustObserved { client, outcome } => {
                let o = Outcome::from_wire(*outcome)?;
                self.raw_observe(*client, o);
            }
            StateChange::TrustSpotCheck { client } => {
                self.raw_spot_check(*client);
            }
            StateChange::TrustConfigured { enabled } => {
                self.cfg.enabled = *enabled;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Canonical snapshot: the `enabled` switch first, then hosts sorted
    /// by id with the estimate as raw f64 bits — equal ledgers encode
    /// to byte-identical vectors.
    pub fn encode_state(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(8 + self.hosts.len() * 44);
        self.encode_state_into(&mut e);
        e.into_vec()
    }

    /// Appends [`TrustLedger::encode_state`]'s bytes to `e`.
    pub fn encode_state_into(&self, e: &mut Enc) {
        e.bool(self.cfg.enabled);
        e.u32(self.hosts.len() as u32);
        for (&h, t) in &self.hosts {
            e.u32(h);
            e.f64(t.error_rate);
            e.u64(t.validated);
            e.u64(t.mismatches);
            e.u64(t.errors);
            e.u64(t.spot_checks);
        }
    }

    /// Rebuilds a ledger from an [`TrustLedger::encode_state`] snapshot
    /// section. The journal handle starts disabled.
    pub fn decode_state(b: &[u8]) -> Result<TrustLedger, WireError> {
        let mut d = Dec::new(b);
        let cfg = TrustConfig { enabled: d.bool()? };
        let n = d.u32()? as usize;
        let mut hosts = BTreeMap::new();
        for _ in 0..n {
            let h = d.u32()?;
            hosts.insert(
                h,
                HostTrust {
                    error_rate: d.f64()?,
                    validated: d.u64()?,
                    mismatches: d.u64()?,
                    errors: d.u64()?,
                    spot_checks: d.u64()?,
                },
            );
        }
        d.finish()?;
        Ok(TrustLedger {
            cfg,
            trusted: hosts.values().filter(|t| t.trusted()).count() as u64,
            hosts,
            journal: Journal::disabled(),
        })
    }
}

/// What the scheduler should do with a work unit granted to a host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicationDecision {
    /// Keep the spec's full N-way replication (untrusted host, or
    /// probation not served).
    Full,
    /// Accept a single replica: drop the effective quorum to 1 and
    /// cancel the spare replicas.
    Single,
    /// The host is trusted but the spot-check draw fired: keep full
    /// replication as a randomized audit.
    SpotCheck,
}

/// Maps a host's trust standing to a per-WU replication decision.
#[derive(Clone, Debug, Default)]
pub struct ReplicationPolicy {
    cfg: TrustConfig,
}

impl ReplicationPolicy {
    /// A policy under `cfg`.
    pub fn new(cfg: TrustConfig) -> Self {
        ReplicationPolicy { cfg }
    }

    /// Decides replication for a grant to a host whose trust standing
    /// is `trusted`. `draw` is called with [`SPOT_CHECK_RATE`] only
    /// when the host is trusted, so untrusted grants consume no
    /// randomness (a determinism guarantee the disabled path relies
    /// on).
    pub fn decide(&self, trusted: bool, draw: impl FnOnce(f64) -> bool) -> ReplicationDecision {
        if !self.cfg.enabled || !trusted {
            return ReplicationDecision::Full;
        }
        if draw(SPOT_CHECK_RATE) {
            ReplicationDecision::SpotCheck
        } else {
            ReplicationDecision::Single
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmr_durable::{recover, DurabilityPlan};

    #[test]
    fn defaults_are_disabled_and_inert() {
        let cfg = TrustConfig::default();
        assert!(!cfg.enabled);
        let pol = ReplicationPolicy::new(cfg);
        // Disabled: always Full, never draws.
        assert_eq!(
            pol.decide(true, |_| panic!("must not draw")),
            ReplicationDecision::Full
        );
    }

    #[test]
    fn new_hosts_are_on_probation() {
        let l = TrustLedger::new(TrustConfig::enabled());
        assert!(!l.is_trusted(0));
        assert_eq!(l.host(0).error_rate, INIT_ERROR_RATE);
        assert!((l.reliability(0) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn agreements_decay_the_estimate_and_earn_trust() {
        let mut l = TrustLedger::new(TrustConfig::enabled());
        l.observe(7, Outcome::Agree);
        assert!(!l.is_trusted(7), "one agreement is still probation");
        l.observe(7, Outcome::Agree);
        l.observe(7, Outcome::Agree);
        // err = 0.1 * 0.5^3 = 0.0125 <= 0.05, probation (3) served.
        assert!(l.is_trusted(7));
        assert!((l.host(7).error_rate - 0.0125).abs() < 1e-12);
        assert_eq!(l.trusted_count(), 1);
    }

    #[test]
    fn one_mismatch_revokes_trust_instantly() {
        let mut l = TrustLedger::new(TrustConfig::enabled());
        for _ in 0..10 {
            l.observe(3, Outcome::Agree);
        }
        assert!(l.is_trusted(3));
        l.observe(3, Outcome::Mismatch);
        // err = 1 - 0.5*(1 - tiny) ≈ 0.5 — far above any threshold.
        assert!(!l.is_trusted(3));
        assert!(l.host(3).error_rate > 0.49);
        assert_eq!(l.host(3).mismatches, 1);
    }

    #[test]
    fn errors_punish_like_mismatches() {
        let mut l = TrustLedger::new(TrustConfig::enabled());
        l.observe(1, Outcome::Error);
        assert!(l.host(1).error_rate > 0.5);
        assert_eq!(l.host(1).errors, 1);
        // Recovery is possible but slow: decay must re-earn the ground.
        for _ in 0..10 {
            l.observe(1, Outcome::Agree);
        }
        assert!(l.is_trusted(1));
    }

    #[test]
    fn policy_spot_checks_trusted_hosts() {
        let pol = ReplicationPolicy::new(TrustConfig::enabled());
        assert_eq!(
            pol.decide(false, |_| panic!("untrusted must not draw")),
            ReplicationDecision::Full
        );
        let draw = |fire: bool| {
            move |p: f64| {
                assert_eq!(p, SPOT_CHECK_RATE, "drawn at the spot-check rate");
                fire
            }
        };
        assert_eq!(pol.decide(true, draw(true)), ReplicationDecision::SpotCheck);
        assert_eq!(pol.decide(true, draw(false)), ReplicationDecision::Single);
    }

    #[test]
    fn wal_replay_reproduces_ledger_bit_for_bit() {
        let j = Journal::new(&DurabilityPlan::new(0.0)).unwrap();
        let mut live = TrustLedger::new(TrustConfig::enabled());
        live.set_journal(j.clone());
        live.observe(0, Outcome::Agree);
        live.observe(2, Outcome::Mismatch);
        live.observe(0, Outcome::Agree);
        live.record_spot_check(0);
        live.observe(5, Outcome::Error);
        live.observe(0, Outcome::Agree);
        j.commit();
        let r = recover(&j.log_bytes()).unwrap();
        let mut replayed = TrustLedger::new(TrustConfig::enabled());
        for c in &r.tail {
            assert!(replayed.apply_change(c).unwrap(), "unhandled {c:?}");
        }
        assert_eq!(replayed.encode_state(), live.encode_state());
        assert_eq!(
            replayed.host(0).error_rate.to_bits(),
            live.host(0).error_rate.to_bits()
        );
        assert_eq!(replayed.host(0).spot_checks, 1);
    }

    /// A generated check: after any sequence of observations,
    /// spot-checks, switch records and snapshot round trips, the kept
    /// trusted count equals a full scan of the ledger.
    #[test]
    fn trusted_count_matches_a_full_scan() {
        // splitmix64: a fixed, dependency-free stream of test cases.
        let mut state = 0x7ab3_0c11_u64;
        let mut next = move |n: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        };
        for _case in 0..200 {
            let mut l = TrustLedger::new(TrustConfig::enabled());
            for _step in 0..60 {
                let h = next(8) as u32;
                match next(10) {
                    0..=5 => {
                        let outcome = [
                            Outcome::Agree,
                            Outcome::Agree,
                            Outcome::Mismatch,
                            Outcome::Error,
                        ];
                        l.raw_observe(h, outcome[next(4) as usize]);
                    }
                    6 => l.raw_spot_check(h),
                    7 | 8 => {
                        // The switch record leaves every standing alone.
                        let change = StateChange::TrustConfigured {
                            enabled: next(2) == 0,
                        };
                        assert!(l.apply_change(&change).unwrap());
                    }
                    _ => l = TrustLedger::decode_state(&l.encode_state()).unwrap(),
                }
                let scan = l.hosts.values().filter(|t| t.trusted()).count() as u64;
                assert_eq!(l.trusted_count(), scan);
                assert_eq!(
                    (0..8).filter(|&h| l.is_trusted(h)).count() as u64,
                    scan,
                    "every host lies in 0..8"
                );
            }
        }
    }

    #[test]
    fn snapshot_round_trip_is_canonical() {
        let mut l = TrustLedger::new(TrustConfig::enabled());
        l.observe(9, Outcome::Agree);
        l.observe(1, Outcome::Mismatch);
        l.record_spot_check(9);
        let enc = l.encode_state();
        let back = TrustLedger::decode_state(&enc).unwrap();
        assert_eq!(back.encode_state(), enc);
        assert!(back.config().enabled);
        assert_eq!(back.host(9).spot_checks, 1);
        assert_eq!(
            back.host(1).error_rate.to_bits(),
            l.host(1).error_rate.to_bits()
        );
    }

    #[test]
    fn outcome_wire_round_trips() {
        for o in [Outcome::Agree, Outcome::Mismatch, Outcome::Error] {
            assert_eq!(Outcome::from_wire(o.to_wire()).unwrap(), o);
        }
        assert!(Outcome::from_wire(9).is_err());
    }
}
