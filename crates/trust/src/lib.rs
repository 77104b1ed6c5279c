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

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use vmr_durable::{Dec, Enc, Journal, StateChange, WireError};

/// Tunables of the reputation estimator and the replication policy.
///
/// Defaults keep the subsystem *disabled*: the engine then behaves
/// bit-identically to the fixed-quorum baseline (no ledger mutations,
/// no WAL records, no rng draws).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrustConfig {
    /// Master switch. Off = fixed-quorum behaviour, bit-identical to an
    /// engine built before this subsystem existed.
    pub enabled: bool,
    /// A host is trusted once its error-rate estimate falls to this
    /// value or below (and probation is served).
    pub trust_threshold: f64,
    /// Error-rate estimate assigned to a host before any observation
    /// (BOINC's mildly-distrusting prior).
    pub init_error_rate: f64,
    /// Multiplier applied to the estimate on each agreement
    /// (exponential decay toward 0).
    pub decay: f64,
    /// Punishment weight on mismatch/error: the estimate jumps to
    /// `1 - punish * (1 - err)` — reliability is multiplied by
    /// `punish`, so a single bad result from a trusted host instantly
    /// exceeds any reasonable threshold.
    pub punish: f64,
    /// Validated results a host must accumulate before it is eligible
    /// for trust (probation for new hosts).
    pub probation_results: u64,
    /// Probability that a grant to a trusted host keeps full
    /// replication anyway, as a randomized audit of its honesty.
    pub spot_check_rate: f64,
}

impl Default for TrustConfig {
    fn default() -> Self {
        TrustConfig {
            enabled: false,
            trust_threshold: 0.05,
            init_error_rate: 0.1,
            decay: 0.5,
            punish: 0.5,
            probation_results: 3,
            spot_check_rate: 0.05,
        }
    }
}

impl TrustConfig {
    /// An enabled config with the default estimator constants.
    pub fn enabled() -> Self {
        TrustConfig {
            enabled: true,
            ..TrustConfig::default()
        }
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
    fn fresh(init_error_rate: f64) -> Self {
        HostTrust {
            error_rate: init_error_rate,
            validated: 0,
            mismatches: 0,
            errors: 0,
            spot_checks: 0,
        }
    }
}

/// Per-host reputation ledger, WAL-journaled like the credit ledger.
/// Snapshots iterate in sorted id order, so equal ledgers encode to
/// identical bytes whatever order the map hashes them in.
#[derive(Debug)]
pub struct TrustLedger {
    cfg: TrustConfig,
    hosts: HashMap<u32, HostTrust>,
    /// WAL handle (disabled by default).
    journal: Journal,
}

impl TrustLedger {
    /// An empty ledger under `cfg`.
    pub fn new(cfg: TrustConfig) -> Self {
        TrustLedger {
            cfg,
            hosts: HashMap::new(),
            journal: Journal::disabled(),
        }
    }

    /// The estimator/policy configuration.
    pub fn config(&self) -> &TrustConfig {
        &self.cfg
    }

    /// Attaches the engine's WAL handle; subsequent observations append
    /// change records. An *enabled* config is itself journaled first,
    /// so a crash before the first snapshot still replays the ledger
    /// from genesis with this run's estimator constants (a disabled
    /// config appends nothing — the WAL stays byte-identical to the
    /// fixed-quorum baseline).
    pub fn set_journal(&mut self, journal: Journal) {
        self.journal = journal;
        if self.cfg.enabled {
            self.journal.append(&StateChange::TrustConfigured {
                enabled: self.cfg.enabled,
                threshold_bits: self.cfg.trust_threshold.to_bits(),
                init_bits: self.cfg.init_error_rate.to_bits(),
                decay_bits: self.cfg.decay.to_bits(),
                punish_bits: self.cfg.punish.to_bits(),
                probation: self.cfg.probation_results,
                spot_bits: self.cfg.spot_check_rate.to_bits(),
            });
        }
    }

    /// The record of `h` (a fresh prior when never observed).
    pub fn host(&self, h: u32) -> HostTrust {
        self.hosts
            .get(&h)
            .cloned()
            .unwrap_or_else(|| HostTrust::fresh(self.cfg.init_error_rate))
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

    fn entry(&mut self, h: u32) -> &mut HostTrust {
        let init = self.cfg.init_error_rate;
        self.hosts
            .entry(h)
            .or_insert_with(|| HostTrust::fresh(init))
    }

    fn raw_observe(&mut self, h: u32, outcome: Outcome) {
        let (decay, punish) = (self.cfg.decay, self.cfg.punish);
        let t = self.entry(h);
        match outcome {
            Outcome::Agree => {
                t.error_rate *= decay;
                t.validated += 1;
            }
            Outcome::Mismatch => {
                t.error_rate = 1.0 - punish * (1.0 - t.error_rate);
                t.mismatches += 1;
            }
            Outcome::Error => {
                t.error_rate = 1.0 - punish * (1.0 - t.error_rate);
                t.errors += 1;
            }
        }
    }

    fn raw_spot_check(&mut self, h: u32) {
        self.entry(h).spot_checks += 1;
    }

    /// Whether `h` has served probation and sits at or below the trust
    /// threshold. Pure trust math — callers gate on
    /// [`TrustConfig::enabled`].
    pub fn is_trusted(&self, h: u32) -> bool {
        match self.hosts.get(&h) {
            Some(t) => {
                t.validated >= self.cfg.probation_results
                    && t.error_rate <= self.cfg.trust_threshold
            }
            None => false,
        }
    }

    /// Reliability of `h` (1 − error-rate estimate, clamped to [0, 1]) —
    /// the pro-rata credit scale for unreplicated results.
    pub fn reliability(&self, h: u32) -> f64 {
        (1.0 - self.host(h).error_rate).clamp(0.0, 1.0)
    }

    /// Number of currently-trusted hosts.
    pub fn trusted_count(&self) -> u64 {
        self.hosts.keys().filter(|&&h| self.is_trusted(h)).count() as u64
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
            StateChange::TrustConfigured {
                enabled,
                threshold_bits,
                init_bits,
                decay_bits,
                punish_bits,
                probation,
                spot_bits,
            } => {
                self.cfg = TrustConfig {
                    enabled: *enabled,
                    trust_threshold: f64::from_bits(*threshold_bits),
                    init_error_rate: f64::from_bits(*init_bits),
                    decay: f64::from_bits(*decay_bits),
                    punish: f64::from_bits(*punish_bits),
                    probation_results: *probation,
                    spot_check_rate: f64::from_bits(*spot_bits),
                };
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Canonical snapshot: the config constants first (so a recovered
    /// ledger replays with identical estimator math), then hosts sorted
    /// by id with the estimate as raw f64 bits — equal ledgers encode
    /// to byte-identical vectors.
    pub fn encode_state(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(64 + self.hosts.len() * 44);
        self.encode_state_into(&mut e);
        e.into_vec()
    }

    /// Appends [`TrustLedger::encode_state`]'s bytes to `e`.
    pub fn encode_state_into(&self, e: &mut Enc) {
        let mut ids: Vec<u32> = self.hosts.keys().copied().collect();
        ids.sort_unstable();
        e.bool(self.cfg.enabled);
        e.f64(self.cfg.trust_threshold);
        e.f64(self.cfg.init_error_rate);
        e.f64(self.cfg.decay);
        e.f64(self.cfg.punish);
        e.u64(self.cfg.probation_results);
        e.f64(self.cfg.spot_check_rate);
        e.u32(ids.len() as u32);
        for h in ids {
            let t = &self.hosts[&h];
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
        let cfg = TrustConfig {
            enabled: d.bool()?,
            trust_threshold: d.f64()?,
            init_error_rate: d.f64()?,
            decay: d.f64()?,
            punish: d.f64()?,
            probation_results: d.u64()?,
            spot_check_rate: d.f64()?,
        };
        let n = d.u32()? as usize;
        let mut hosts = HashMap::with_capacity(n.min(1 << 16));
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
    /// is `trusted`. `draw` is called with the spot-check probability
    /// only when the host is trusted, so untrusted grants consume no
    /// randomness (a determinism guarantee the disabled path relies
    /// on).
    pub fn decide(&self, trusted: bool, draw: impl FnOnce(f64) -> bool) -> ReplicationDecision {
        if !self.cfg.enabled || !trusted {
            return ReplicationDecision::Full;
        }
        if draw(self.cfg.spot_check_rate) {
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
        assert!((l.host(0).error_rate - 0.1).abs() < 1e-12);
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
        assert_eq!(pol.decide(true, |_| true), ReplicationDecision::SpotCheck);
        assert_eq!(pol.decide(true, |_| false), ReplicationDecision::Single);
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
