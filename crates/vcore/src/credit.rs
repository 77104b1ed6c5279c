//! Credit accounting and host reputation.
//!
//! BOINC's volunteer incentive is *credit*, granted only for results
//! that participate in a validated quorum — the same mechanism §III.B
//! leans on for byzantine tolerance: a corrupted output never matches
//! the canonical fingerprint, so the cheater earns nothing, while the
//! agreeing replicas split the granted credit.
//!
//! The error-rate ledger mirrors BOINC's adaptive host punishment: a
//! host whose results keep failing validation sees its reliability
//! score decay, which real projects use to steer replication.

use crate::types::ClientId;
use std::collections::HashMap;
use vmr_durable::{Dec, Enc, Journal, StateChange, WireError};

/// Credit and reliability ledger for the volunteer population.
///
/// Every aggregate view (`encode_state`, `leaderboard`,
/// `total_granted`) iterates in sorted client order, so equal ledgers
/// are byte-identical whatever order the map hashes them in.
#[derive(Debug, Default)]
pub struct CreditLedger {
    accounts: HashMap<ClientId, HostAccount>,
    /// WAL handle (disabled by default).
    journal: Journal,
}

/// One volunteer's record.
#[derive(Debug, Clone, Default)]
pub struct HostAccount {
    /// Total granted credit (cobblestones).
    pub granted: f64,
    /// Results that validated (were part of a quorum).
    pub valid_results: u64,
    /// Successful-looking results that *failed* validation (dissenting
    /// fingerprints — byzantine or faulty hardware).
    pub invalid_results: u64,
    /// Client-side errors and deadline misses.
    pub errors: u64,
}

impl HostAccount {
    /// BOINC-style error rate estimate, biased optimistic for new hosts
    /// (starts at 0.1, decays with validated work, grows with failures).
    pub fn error_rate(&self) -> f64 {
        let total = (self.valid_results + self.invalid_results + self.errors) as f64;
        let bad = (self.invalid_results + self.errors) as f64;
        (bad + 0.1) / (total + 1.0)
    }
}

/// Credit claimed for a task of `flops` floating-point operations, in
/// BOINC cobblestones (100 cobblestones ≈ 864 000 GFLOP-seconds of the
/// reference machine; we keep the historical formula's shape).
pub fn claimed_credit(flops: f64) -> f64 {
    flops / 1e9 * (100.0 / 864.0)
}

impl CreditLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        CreditLedger::default()
    }

    /// Attaches the engine's WAL handle; subsequent grants and error
    /// marks append change records.
    pub fn set_journal(&mut self, journal: Journal) {
        self.journal = journal;
    }

    /// The account of `c` (created on first touch).
    pub fn account(&self, c: ClientId) -> HostAccount {
        self.accounts.get(&c).cloned().unwrap_or_default()
    }

    fn entry(&mut self, c: ClientId) -> &mut HostAccount {
        self.accounts.entry(c).or_default()
    }

    /// A work unit validated: the agreeing replicas each receive the
    /// granted credit (BOINC grants the *same* amount to every member
    /// of the quorum — typically the median/min of the claims; with
    /// identical task sizes the claim itself).
    pub fn on_wu_validated(&mut self, agreeing: &[ClientId], dissenting: &[ClientId], flops: f64) {
        // The record owns its id lists: built only for a live log.
        if self.journal.enabled() {
            self.journal.append(&StateChange::CreditGranted {
                agreeing: agreeing.iter().map(|c| c.0).collect(),
                dissenting: dissenting.iter().map(|c| c.0).collect(),
                flops_bits: flops.to_bits(),
            });
        }
        self.raw_on_wu_validated(agreeing, dissenting, flops);
    }

    /// An *unreplicated* work unit validated under the trust policy:
    /// the claimed credit is granted pro-rata to the host's reliability
    /// (`scale` in `[0, 1]`) — BOINC's coupling of credit to trust, so
    /// a host cannot earn full credit faster by skipping replication.
    pub fn on_wu_validated_scaled(
        &mut self,
        agreeing: &[ClientId],
        dissenting: &[ClientId],
        flops: f64,
        scale: f64,
    ) {
        if self.journal.enabled() {
            self.journal.append(&StateChange::CreditGrantedScaled {
                agreeing: agreeing.iter().map(|c| c.0).collect(),
                dissenting: dissenting.iter().map(|c| c.0).collect(),
                flops_bits: flops.to_bits(),
                scale_bits: scale.to_bits(),
            });
        }
        self.raw_on_wu_validated_scaled(agreeing, dissenting, flops, scale);
    }

    /// A result errored client-side or missed its deadline.
    pub fn on_error(&mut self, c: ClientId) {
        self.journal
            .append(&StateChange::CreditError { client: c.0 });
        self.entry(c).errors += 1;
    }

    fn raw_on_wu_validated(&mut self, agreeing: &[ClientId], dissenting: &[ClientId], flops: f64) {
        let grant = claimed_credit(flops);
        for &c in agreeing {
            let a = self.entry(c);
            a.granted += grant;
            a.valid_results += 1;
        }
        for &c in dissenting {
            let a = self.entry(c);
            a.invalid_results += 1;
        }
    }

    fn raw_on_wu_validated_scaled(
        &mut self,
        agreeing: &[ClientId],
        dissenting: &[ClientId],
        flops: f64,
        scale: f64,
    ) {
        let grant = claimed_credit(flops) * scale;
        for &c in agreeing {
            let a = self.entry(c);
            a.granted += grant;
            a.valid_results += 1;
        }
        for &c in dissenting {
            let a = self.entry(c);
            a.invalid_results += 1;
        }
    }

    /// Applies one replayed change record; `Ok(false)` when the record
    /// belongs to another subsystem.
    pub fn apply_change(&mut self, c: &StateChange) -> Result<bool, WireError> {
        match c {
            StateChange::CreditGranted {
                agreeing,
                dissenting,
                flops_bits,
            } => {
                let agreeing: Vec<ClientId> = agreeing.iter().copied().map(ClientId).collect();
                let dissenting: Vec<ClientId> = dissenting.iter().copied().map(ClientId).collect();
                self.raw_on_wu_validated(&agreeing, &dissenting, f64::from_bits(*flops_bits));
            }
            StateChange::CreditError { client } => {
                self.entry(ClientId(*client)).errors += 1;
            }
            StateChange::CreditGrantedScaled {
                agreeing,
                dissenting,
                flops_bits,
                scale_bits,
            } => {
                let agreeing: Vec<ClientId> = agreeing.iter().copied().map(ClientId).collect();
                let dissenting: Vec<ClientId> = dissenting.iter().copied().map(ClientId).collect();
                self.raw_on_wu_validated_scaled(
                    &agreeing,
                    &dissenting,
                    f64::from_bits(*flops_bits),
                    f64::from_bits(*scale_bits),
                );
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Canonical snapshot: accounts sorted by client id, credit as raw
    /// f64 bits, so equal ledgers encode to byte-identical vectors.
    pub fn encode_state(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(16 + self.accounts.len() * 40);
        self.encode_state_into(&mut e);
        e.into_vec()
    }

    /// Appends [`CreditLedger::encode_state`]'s bytes to `e`.
    pub fn encode_state_into(&self, e: &mut Enc) {
        let mut ids: Vec<ClientId> = self.accounts.keys().copied().collect();
        ids.sort_unstable();
        e.u32(ids.len() as u32);
        for c in ids {
            let a = &self.accounts[&c];
            e.u32(c.0);
            e.f64(a.granted);
            e.u64(a.valid_results);
            e.u64(a.invalid_results);
            e.u64(a.errors);
        }
    }

    /// Rebuilds a ledger from an [`CreditLedger::encode_state`]
    /// snapshot section. The journal handle starts disabled.
    pub fn decode_state(b: &[u8]) -> Result<CreditLedger, WireError> {
        let mut d = Dec::new(b);
        let n = d.u32()? as usize;
        let mut accounts = HashMap::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let c = ClientId(d.u32()?);
            accounts.insert(
                c,
                HostAccount {
                    granted: d.f64()?,
                    valid_results: d.u64()?,
                    invalid_results: d.u64()?,
                    errors: d.u64()?,
                },
            );
        }
        d.finish()?;
        Ok(CreditLedger {
            accounts,
            journal: Journal::disabled(),
        })
    }

    /// Total credit granted across all hosts. Summed in sorted client
    /// order so the f64 accumulation does not depend on hash order.
    pub fn total_granted(&self) -> f64 {
        let mut v: Vec<(ClientId, f64)> =
            self.accounts.iter().map(|(&c, a)| (c, a.granted)).collect();
        v.sort_unstable_by_key(|&(c, _)| c);
        v.into_iter().map(|(_, g)| g).sum()
    }

    /// Hosts ordered by granted credit, descending (the leaderboard
    /// every BOINC project publishes).
    pub fn leaderboard(&self) -> Vec<(ClientId, f64)> {
        let mut v: Vec<(ClientId, f64)> =
            self.accounts.iter().map(|(&c, a)| (c, a.granted)).collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_members_split_nothing_they_each_get_full_grant() {
        let mut l = CreditLedger::new();
        l.on_wu_validated(&[ClientId(0), ClientId(1)], &[], 864e9);
        let a0 = l.account(ClientId(0));
        let a1 = l.account(ClientId(1));
        assert!((a0.granted - 100.0).abs() < 1e-9, "{}", a0.granted);
        assert_eq!(a0.granted, a1.granted);
        assert_eq!(a0.valid_results, 1);
        assert!((l.total_granted() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn dissenters_earn_nothing_and_lose_reliability() {
        let mut l = CreditLedger::new();
        for _ in 0..10 {
            l.on_wu_validated(&[ClientId(0)], &[ClientId(7)], 1e9);
        }
        let honest = l.account(ClientId(0));
        let cheat = l.account(ClientId(7));
        assert_eq!(cheat.granted, 0.0);
        assert_eq!(cheat.invalid_results, 10);
        assert!(cheat.error_rate() > 0.9);
        assert!(honest.error_rate() < 0.05);
    }

    #[test]
    fn new_hosts_start_mildly_distrusted() {
        let a = HostAccount::default();
        assert!((a.error_rate() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn errors_count_against_reliability() {
        let mut l = CreditLedger::new();
        l.on_error(ClientId(3));
        l.on_error(ClientId(3));
        assert_eq!(l.account(ClientId(3)).errors, 2);
        assert!(l.account(ClientId(3)).error_rate() > 0.5);
    }

    #[test]
    fn leaderboard_sorted_desc() {
        let mut l = CreditLedger::new();
        l.on_wu_validated(&[ClientId(2)], &[], 5e9);
        l.on_wu_validated(&[ClientId(1)], &[], 9e9);
        l.on_wu_validated(&[ClientId(0)], &[], 1e9);
        let board = l.leaderboard();
        assert_eq!(board[0].0, ClientId(1));
        assert_eq!(board[2].0, ClientId(0));
        assert!(board[0].1 > board[1].1);
    }

    #[test]
    fn claimed_credit_is_linear_in_flops() {
        assert!((claimed_credit(2.0 * 864e9) - 200.0).abs() < 1e-9);
        assert_eq!(claimed_credit(0.0), 0.0);
    }

    #[test]
    fn scaled_grant_is_pro_rata() {
        let mut l = CreditLedger::new();
        l.on_wu_validated_scaled(&[ClientId(0)], &[], 864e9, 0.9);
        let a = l.account(ClientId(0));
        assert!((a.granted - 90.0).abs() < 1e-9, "{}", a.granted);
        assert_eq!(a.valid_results, 1);
    }

    #[test]
    fn wal_replay_reproduces_ledger_bit_for_bit() {
        use vmr_durable::{recover, DurabilityPlan};
        let j = Journal::new(&DurabilityPlan::new(0.0)).unwrap();
        let mut live = CreditLedger::new();
        live.set_journal(j.clone());
        // Irrational-ish flops so f64 accumulation order matters.
        live.on_wu_validated(&[ClientId(0), ClientId(2)], &[ClientId(5)], 1.1e9);
        live.on_wu_validated(&[ClientId(2)], &[], 0.3e9);
        live.on_error(ClientId(0));
        live.on_wu_validated_scaled(&[ClientId(2)], &[], 1.7e9, 0.987_654_321);
        live.on_wu_validated(&[ClientId(0)], &[ClientId(2)], 2.7e9);
        j.commit();
        let r = recover(&j.log_bytes()).unwrap();
        let mut replayed = CreditLedger::new();
        for c in &r.tail {
            assert!(replayed.apply_change(c).unwrap(), "unhandled {c:?}");
        }
        assert_eq!(replayed.encode_state(), live.encode_state());
        assert_eq!(
            replayed.account(ClientId(2)).granted.to_bits(),
            live.account(ClientId(2)).granted.to_bits()
        );
    }

    #[test]
    fn snapshot_round_trip_is_canonical() {
        let mut l = CreditLedger::new();
        l.on_wu_validated(&[ClientId(3), ClientId(1)], &[ClientId(9)], 1.23e9);
        l.on_error(ClientId(1));
        let enc = l.encode_state();
        let back = CreditLedger::decode_state(&enc).unwrap();
        assert_eq!(back.encode_state(), enc);
        assert_eq!(back.account(ClientId(1)).errors, 1);
        assert_eq!(
            back.account(ClientId(3)).granted.to_bits(),
            l.account(ClientId(3)).granted.to_bits()
        );
    }
}
