//! The typed change vocabulary of the write-ahead log.
//!
//! One [`StateChange`] is one durable mutation of server state. The
//! variants mirror — exactly — the mutation points in `vcore` (project
//! database, credit ledger, assimilator) and `core` (the MapReduce
//! `JobTracker`): replaying the sequence against a snapshot must
//! reproduce the live server state bit for bit, so each variant carries
//! precisely the inputs of the corresponding mutator and nothing
//! derived. Ids are raw `u32` (the newtypes live upstream in `vcore`;
//! `vmr-durable` stays a leaf crate), times are sim-microseconds, and
//! crate-specific payloads (`WorkUnitSpec`, the MR job config) travel
//! as opaque blobs encoded by their owning crate with [`crate::wire`].

use crate::wire::{Dec, Enc, WireError};

/// One durable mutation of server state.
#[derive(Clone, Debug, PartialEq)]
pub enum StateChange {
    /// A work unit row was inserted (`Db::insert_workunit`). Does not
    /// imply its initial replicas — each is a separate
    /// [`StateChange::ResultCreated`] that follows in the log.
    WuInserted {
        /// New work-unit id (must equal the next row index on replay).
        wu: u32,
        /// Insertion sim-time, microseconds.
        at_us: u64,
        /// Opaque `WorkUnitSpec` encoding (owned by `vcore`).
        spec: Vec<u8>,
    },
    /// A result instance was created (`Db::create_result`).
    ResultCreated {
        /// New result id (must equal the next row index on replay).
        rid: u32,
        /// Owning work unit.
        wu: u32,
    },
    /// A result was handed to a client (`Db::mark_sent`).
    ResultSent {
        /// Result id.
        rid: u32,
        /// Receiving client.
        client: u32,
        /// Send sim-time, microseconds.
        at_us: u64,
        /// Report deadline, microseconds.
        deadline_us: u64,
    },
    /// A client report (or deadline timeout) was recorded
    /// (`Db::mark_reported` / `Db::mark_timed_out`).
    ResultReported {
        /// Result id.
        rid: u32,
        /// `ResultOutcome` discriminant (owned by `vcore`).
        outcome: u8,
        /// Output fingerprint when the outcome carried one.
        fingerprint: Option<u64>,
        /// Report sim-time, microseconds.
        at_us: u64,
    },
    /// An unsent result was cancelled (`Db::cancel_unsent`).
    ResultCancelled {
        /// Result id.
        rid: u32,
    },
    /// Quorum reached: the WU validated (`Db::mark_wu_validated`).
    WuValidated {
        /// Work-unit id.
        wu: u32,
        /// Canonical output fingerprint.
        canonical: u64,
        /// Validation sim-time, microseconds.
        at_us: u64,
    },
    /// Result budget exhausted: the WU failed (`Db::mark_wu_failed`).
    WuFailed {
        /// Work-unit id.
        wu: u32,
        /// Failure sim-time, microseconds.
        at_us: u64,
    },
    /// Credit granted to a quorum (`CreditLedger::on_wu_validated`).
    CreditGranted {
        /// Clients whose fingerprint matched the canonical one.
        agreeing: Vec<u32>,
        /// Clients that disagreed (charged an invalid result).
        dissenting: Vec<u32>,
        /// Claimed FLOPs, as `f64` bits.
        flops_bits: u64,
    },
    /// An error outcome was charged (`CreditLedger::on_error`).
    CreditError {
        /// Charged client.
        client: u32,
    },
    /// A validated WU's output registration (`Assimilator::assimilate`).
    /// Name/app/canonical are re-derived from the recovered database.
    Assimilated {
        /// Work-unit id.
        wu: u32,
        /// Clients holding the canonical output.
        holders: Vec<u32>,
        /// Assimilation sim-time, microseconds.
        at_us: u64,
    },
    /// A MapReduce job was submitted (`MrPolicy::submit_job`).
    MrJobSubmitted {
        /// New job index (must equal the next job index on replay).
        job: u32,
        /// Opaque `MrJobConfig` encoding (owned by `core`).
        cfg: Vec<u8>,
    },
    /// A WU was registered in the JobTracker index.
    MrWuIndexed {
        /// Work-unit id.
        wu: u32,
        /// Owning job index.
        job: u32,
        /// False = map task, true = reduce task.
        reduce: bool,
        /// Task index within its phase (must be the next slot on replay).
        idx: u32,
    },
    /// A map task validated; its output holders were registered.
    MrMapValidated {
        /// Job index.
        job: u32,
        /// Map task index.
        m: u32,
        /// Clients holding the map output.
        holders: Vec<u32>,
        /// Validation sim-time, microseconds (feeds `last_validated_map`).
        at_us: u64,
    },
    /// A reduce task validated.
    MrReduceValidated {
        /// Job index.
        job: u32,
    },
    /// The job entered a new phase. Discriminant as in
    /// `core::jobtracker::Phase`: 0 Map, 1 Reduce, 2 Done, 3 Failed.
    MrPhase {
        /// Job index.
        job: u32,
        /// Phase discriminant.
        phase: u8,
        /// Transition sim-time, microseconds.
        at_us: u64,
    },
    /// A phase-timing stamp. `which`: 0 `first_map_assign` (set-once),
    /// 1 `last_map_report` (max), 2 `first_reduce_assign` (set-once),
    /// 3 `last_reduce_report` (max), 4 `map_phase_validated_at` (set).
    MrStamp {
        /// Job index.
        job: u32,
        /// Stamp selector (see above).
        which: u8,
        /// Stamp sim-time, microseconds.
        at_us: u64,
    },
    /// A validation outcome was fed to the trust ledger
    /// (`TrustLedger::observe`). `outcome`: 0 agree, 1 mismatch,
    /// 2 error/timeout.
    TrustObserved {
        /// Observed host.
        client: u32,
        /// Outcome discriminant (see above).
        outcome: u8,
    },
    /// A spot-check was drawn for a trusted host
    /// (`TrustLedger::record_spot_check`).
    TrustSpotCheck {
        /// Spot-checked host.
        client: u32,
    },
    /// The effective quorum of a WU was overridden (or the override
    /// cleared) by the replication policy (`Db::set_quorum_override`).
    WuQuorumOverride {
        /// Work-unit id.
        wu: u32,
        /// New override; `None` restores the spec's `min_quorum`.
        quorum: Option<u32>,
    },
    /// Credit granted pro-rata to trust on an unreplicated validation
    /// (`CreditLedger::on_wu_validated_scaled`).
    CreditGrantedScaled {
        /// Clients whose fingerprint matched the canonical one.
        agreeing: Vec<u32>,
        /// Clients that disagreed (charged an invalid result).
        dissenting: Vec<u32>,
        /// Claimed FLOPs, as `f64` bits.
        flops_bits: u64,
        /// Grant scale in `[0, 1]`, as `f64` bits.
        scale_bits: u64,
    },
    /// An enabled trust configuration attached to the WAL
    /// (`TrustLedger::set_journal`). Written once at startup so a
    /// ledger recovered before the first snapshot knows the subsystem
    /// was on; the estimator's constants are not journaled.
    TrustConfigured {
        /// `TrustConfig::enabled`.
        enabled: bool,
    },
    /// The shuffle plan of a job was fixed at the map→reduce
    /// transition (`MrPolicy::create_reduce_wus`): which strategy
    /// distributes the map outputs and, for coded placement, the
    /// reducer group size the fetch shares were derived from. Only
    /// appended for non-baseline strategies, so default-configured runs
    /// keep their pre-shuffle WAL byte stream.
    MrShufflePlanned {
        /// Job index.
        job: u32,
        /// `vmr_shuffle::StrategyKind::wire_tag()`.
        strategy: u8,
        /// Coded reducer group size (1 = no grouping).
        group: u32,
    },
}

// Variant tags on the wire. Append-only: never renumber.
const T_WU_INSERTED: u8 = 0;
const T_RESULT_CREATED: u8 = 1;
const T_RESULT_SENT: u8 = 2;
const T_RESULT_REPORTED: u8 = 3;
const T_RESULT_CANCELLED: u8 = 4;
const T_WU_VALIDATED: u8 = 5;
const T_WU_FAILED: u8 = 6;
const T_CREDIT_GRANTED: u8 = 7;
const T_CREDIT_ERROR: u8 = 8;
const T_ASSIMILATED: u8 = 9;
const T_MR_JOB_SUBMITTED: u8 = 10;
const T_MR_WU_INDEXED: u8 = 11;
const T_MR_MAP_VALIDATED: u8 = 12;
const T_MR_REDUCE_VALIDATED: u8 = 13;
const T_MR_PHASE: u8 = 14;
const T_MR_STAMP: u8 = 15;
const T_TRUST_OBSERVED: u8 = 16;
const T_TRUST_SPOT_CHECK: u8 = 17;
const T_WU_QUORUM_OVERRIDE: u8 = 18;
const T_CREDIT_GRANTED_SCALED: u8 = 19;
const T_TRUST_CONFIGURED: u8 = 20;
const T_MR_SHUFFLE_PLANNED: u8 = 21;

impl StateChange {
    /// Append the wire form to `e`.
    pub fn encode(&self, e: &mut Enc) {
        match self {
            StateChange::WuInserted { wu, at_us, spec } => {
                e.u8(T_WU_INSERTED);
                e.u32(*wu);
                e.u64(*at_us);
                e.bytes(spec);
            }
            StateChange::ResultCreated { rid, wu } => {
                e.u8(T_RESULT_CREATED);
                e.u32(*rid);
                e.u32(*wu);
            }
            StateChange::ResultSent {
                rid,
                client,
                at_us,
                deadline_us,
            } => {
                e.u8(T_RESULT_SENT);
                e.u32(*rid);
                e.u32(*client);
                e.u64(*at_us);
                e.u64(*deadline_us);
            }
            StateChange::ResultReported {
                rid,
                outcome,
                fingerprint,
                at_us,
            } => {
                e.u8(T_RESULT_REPORTED);
                e.u32(*rid);
                e.u8(*outcome);
                e.opt_u64(*fingerprint);
                e.u64(*at_us);
            }
            StateChange::ResultCancelled { rid } => {
                e.u8(T_RESULT_CANCELLED);
                e.u32(*rid);
            }
            StateChange::WuValidated {
                wu,
                canonical,
                at_us,
            } => {
                e.u8(T_WU_VALIDATED);
                e.u32(*wu);
                e.u64(*canonical);
                e.u64(*at_us);
            }
            StateChange::WuFailed { wu, at_us } => {
                e.u8(T_WU_FAILED);
                e.u32(*wu);
                e.u64(*at_us);
            }
            StateChange::CreditGranted {
                agreeing,
                dissenting,
                flops_bits,
            } => {
                e.u8(T_CREDIT_GRANTED);
                e.vec_u32(agreeing);
                e.vec_u32(dissenting);
                e.u64(*flops_bits);
            }
            StateChange::CreditError { client } => {
                e.u8(T_CREDIT_ERROR);
                e.u32(*client);
            }
            StateChange::Assimilated { wu, holders, at_us } => {
                e.u8(T_ASSIMILATED);
                e.u32(*wu);
                e.vec_u32(holders);
                e.u64(*at_us);
            }
            StateChange::MrJobSubmitted { job, cfg } => {
                e.u8(T_MR_JOB_SUBMITTED);
                e.u32(*job);
                e.bytes(cfg);
            }
            StateChange::MrWuIndexed {
                wu,
                job,
                reduce,
                idx,
            } => {
                e.u8(T_MR_WU_INDEXED);
                e.u32(*wu);
                e.u32(*job);
                e.bool(*reduce);
                e.u32(*idx);
            }
            StateChange::MrMapValidated {
                job,
                m,
                holders,
                at_us,
            } => {
                e.u8(T_MR_MAP_VALIDATED);
                e.u32(*job);
                e.u32(*m);
                e.vec_u32(holders);
                e.u64(*at_us);
            }
            StateChange::MrReduceValidated { job } => {
                e.u8(T_MR_REDUCE_VALIDATED);
                e.u32(*job);
            }
            StateChange::MrPhase { job, phase, at_us } => {
                e.u8(T_MR_PHASE);
                e.u32(*job);
                e.u8(*phase);
                e.u64(*at_us);
            }
            StateChange::MrStamp { job, which, at_us } => {
                e.u8(T_MR_STAMP);
                e.u32(*job);
                e.u8(*which);
                e.u64(*at_us);
            }
            StateChange::TrustObserved { client, outcome } => {
                e.u8(T_TRUST_OBSERVED);
                e.u32(*client);
                e.u8(*outcome);
            }
            StateChange::TrustSpotCheck { client } => {
                e.u8(T_TRUST_SPOT_CHECK);
                e.u32(*client);
            }
            StateChange::WuQuorumOverride { wu, quorum } => {
                e.u8(T_WU_QUORUM_OVERRIDE);
                e.u32(*wu);
                e.opt_u32(*quorum);
            }
            StateChange::CreditGrantedScaled {
                agreeing,
                dissenting,
                flops_bits,
                scale_bits,
            } => {
                e.u8(T_CREDIT_GRANTED_SCALED);
                e.vec_u32(agreeing);
                e.vec_u32(dissenting);
                e.u64(*flops_bits);
                e.u64(*scale_bits);
            }
            StateChange::TrustConfigured { enabled } => {
                e.u8(T_TRUST_CONFIGURED);
                e.bool(*enabled);
            }
            StateChange::MrShufflePlanned {
                job,
                strategy,
                group,
            } => {
                e.u8(T_MR_SHUFFLE_PLANNED);
                e.u32(*job);
                e.u8(*strategy);
                e.u32(*group);
            }
        }
    }

    /// The wire form as a standalone byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(32);
        self.encode(&mut e);
        e.into_vec()
    }

    /// Decode one change from the cursor.
    pub fn decode(d: &mut Dec<'_>) -> Result<Self, WireError> {
        let tag = d.u8()?;
        Ok(match tag {
            T_WU_INSERTED => StateChange::WuInserted {
                wu: d.u32()?,
                at_us: d.u64()?,
                spec: d.bytes()?,
            },
            T_RESULT_CREATED => StateChange::ResultCreated {
                rid: d.u32()?,
                wu: d.u32()?,
            },
            T_RESULT_SENT => StateChange::ResultSent {
                rid: d.u32()?,
                client: d.u32()?,
                at_us: d.u64()?,
                deadline_us: d.u64()?,
            },
            T_RESULT_REPORTED => StateChange::ResultReported {
                rid: d.u32()?,
                outcome: d.u8()?,
                fingerprint: d.opt_u64()?,
                at_us: d.u64()?,
            },
            T_RESULT_CANCELLED => StateChange::ResultCancelled { rid: d.u32()? },
            T_WU_VALIDATED => StateChange::WuValidated {
                wu: d.u32()?,
                canonical: d.u64()?,
                at_us: d.u64()?,
            },
            T_WU_FAILED => StateChange::WuFailed {
                wu: d.u32()?,
                at_us: d.u64()?,
            },
            T_CREDIT_GRANTED => StateChange::CreditGranted {
                agreeing: d.vec_u32()?,
                dissenting: d.vec_u32()?,
                flops_bits: d.u64()?,
            },
            T_CREDIT_ERROR => StateChange::CreditError { client: d.u32()? },
            T_ASSIMILATED => StateChange::Assimilated {
                wu: d.u32()?,
                holders: d.vec_u32()?,
                at_us: d.u64()?,
            },
            T_MR_JOB_SUBMITTED => StateChange::MrJobSubmitted {
                job: d.u32()?,
                cfg: d.bytes()?,
            },
            T_MR_WU_INDEXED => StateChange::MrWuIndexed {
                wu: d.u32()?,
                job: d.u32()?,
                reduce: d.bool()?,
                idx: d.u32()?,
            },
            T_MR_MAP_VALIDATED => StateChange::MrMapValidated {
                job: d.u32()?,
                m: d.u32()?,
                holders: d.vec_u32()?,
                at_us: d.u64()?,
            },
            T_MR_REDUCE_VALIDATED => StateChange::MrReduceValidated { job: d.u32()? },
            T_MR_PHASE => StateChange::MrPhase {
                job: d.u32()?,
                phase: d.u8()?,
                at_us: d.u64()?,
            },
            T_MR_STAMP => StateChange::MrStamp {
                job: d.u32()?,
                which: d.u8()?,
                at_us: d.u64()?,
            },
            T_TRUST_OBSERVED => StateChange::TrustObserved {
                client: d.u32()?,
                outcome: d.u8()?,
            },
            T_TRUST_SPOT_CHECK => StateChange::TrustSpotCheck { client: d.u32()? },
            T_WU_QUORUM_OVERRIDE => StateChange::WuQuorumOverride {
                wu: d.u32()?,
                quorum: d.opt_u32()?,
            },
            T_CREDIT_GRANTED_SCALED => StateChange::CreditGrantedScaled {
                agreeing: d.vec_u32()?,
                dissenting: d.vec_u32()?,
                flops_bits: d.u64()?,
                scale_bits: d.u64()?,
            },
            T_TRUST_CONFIGURED => StateChange::TrustConfigured { enabled: d.bool()? },
            T_MR_SHUFFLE_PLANNED => StateChange::MrShufflePlanned {
                job: d.u32()?,
                strategy: d.u8()?,
                group: d.u32()?,
            },
            t => return Err(WireError::BadTag(t)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<StateChange> {
        vec![
            StateChange::WuInserted {
                wu: 0,
                at_us: 1,
                spec: vec![1, 2, 3],
            },
            StateChange::ResultCreated { rid: 5, wu: 0 },
            StateChange::ResultSent {
                rid: 5,
                client: 2,
                at_us: 10,
                deadline_us: 20,
            },
            StateChange::ResultReported {
                rid: 5,
                outcome: 0,
                fingerprint: Some(0xFEED),
                at_us: 15,
            },
            StateChange::ResultCancelled { rid: 6 },
            StateChange::WuValidated {
                wu: 0,
                canonical: 0xFEED,
                at_us: 16,
            },
            StateChange::WuFailed { wu: 1, at_us: 30 },
            StateChange::CreditGranted {
                agreeing: vec![1, 2],
                dissenting: vec![],
                flops_bits: 1e9f64.to_bits(),
            },
            StateChange::CreditError { client: 3 },
            StateChange::Assimilated {
                wu: 0,
                holders: vec![1, 2],
                at_us: 16,
            },
            StateChange::MrJobSubmitted {
                job: 0,
                cfg: vec![9],
            },
            StateChange::MrWuIndexed {
                wu: 0,
                job: 0,
                reduce: false,
                idx: 0,
            },
            StateChange::MrMapValidated {
                job: 0,
                m: 0,
                holders: vec![1],
                at_us: 16,
            },
            StateChange::MrReduceValidated { job: 0 },
            StateChange::MrPhase {
                job: 0,
                phase: 1,
                at_us: 17,
            },
            StateChange::MrStamp {
                job: 0,
                which: 1,
                at_us: 18,
            },
            StateChange::TrustObserved {
                client: 2,
                outcome: 1,
            },
            StateChange::TrustSpotCheck { client: 2 },
            StateChange::WuQuorumOverride {
                wu: 0,
                quorum: Some(1),
            },
            StateChange::CreditGrantedScaled {
                agreeing: vec![2],
                dissenting: vec![],
                flops_bits: 1e9f64.to_bits(),
                scale_bits: 0.75f64.to_bits(),
            },
            StateChange::TrustConfigured { enabled: true },
            StateChange::MrShufflePlanned {
                job: 0,
                strategy: 2,
                group: 2,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for c in all_variants() {
            let v = c.to_bytes();
            let mut d = Dec::new(&v);
            assert_eq!(StateChange::decode(&mut d).unwrap(), c);
            d.finish().unwrap();
        }
    }

    #[test]
    fn unknown_tag_is_an_error() {
        let mut d = Dec::new(&[0xFF]);
        assert_eq!(StateChange::decode(&mut d), Err(WireError::BadTag(0xFF)));
    }
}
