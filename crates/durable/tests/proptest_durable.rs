//! Property tests for mirror compaction and the frame writer.
//!
//! **Differential compaction**: for any scripted journal run,
//! `compact(image)` recovers to exactly the same state as the
//! uncompacted image — same sections, same replay tail, same commit
//! boundary — and compaction is idempotent. Two mirrored twins of the
//! run check the file mirror against the sinkless image: an
//! append-only mirror holds its committed prefix byte for byte, and
//! one compacted inline recovers to the same state.
//!
//! **Differential frame writer**: the journal encodes every frame in
//! place at the end of its log; for any script of changes (every
//! variant), commits and snapshots the log equals, byte for byte, what
//! the writer it replaced produced — body built apart, then copied
//! behind its header — which this file keeps as the model.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use vmr_durable::crc::Crc32;
use vmr_durable::frame::{FRAME_CHANGE, FRAME_COMMIT, FRAME_SNAPSHOT, MAGIC};
use vmr_durable::{
    compact, recover, section, CompactionPolicy, DurabilityPlan, Enc, Journal, Recovered, Sections,
    StateChange,
};

/// One scripted journal operation.
#[derive(Clone, Debug)]
enum Op {
    /// Append a state change.
    Change(StateChange),
    /// Commit the open transaction.
    Commit,
    /// Write a snapshot + commit.
    Snapshot,
}

/// Maps a raw `(kind, a, b)` triple to an op. Changes cover four state
/// sections; recovery does not re-apply them to live state, so ids
/// need not be replay-valid.
fn op(kind: u8, a: u32, b: u32) -> Op {
    match kind {
        0 => Op::Change(StateChange::ResultCreated { rid: a, wu: b }),
        1 => Op::Change(StateChange::ResultSent {
            rid: a,
            client: b,
            at_us: u64::from(a) * 7,
            deadline_us: 1_000_000,
        }),
        2 => Op::Change(StateChange::WuValidated {
            wu: a,
            canonical: u64::from(b) << 3,
            at_us: u64::from(a),
        }),
        3 => Op::Change(StateChange::CreditGranted {
            agreeing: vec![a, b],
            dissenting: vec![],
            flops_bits: f64::from(a).to_bits(),
        }),
        4 => Op::Change(StateChange::CreditError { client: a }),
        5 => Op::Change(StateChange::Assimilated {
            wu: a,
            holders: vec![b],
            at_us: u64::from(a) * 3,
        }),
        6 => Op::Change(StateChange::MrReduceValidated { job: a }),
        7 => Op::Change(StateChange::MrStamp {
            job: a,
            which: (b % 5) as u8,
            at_us: u64::from(b),
        }),
        8 => Op::Commit,
        _ => Op::Snapshot,
    }
}

/// Drives one journal through the script. Section payloads are a
/// deterministic function of the step index.
fn drive(j: &Journal, ops: &[Op]) {
    for (step, o) in ops.iter().enumerate() {
        j.advance_to(step as u64 * 11);
        match o {
            Op::Change(c) => j.append(c),
            Op::Commit => j.commit(),
            Op::Snapshot => {
                let mut s = Sections::new();
                for (i, name) in section::NAMES.iter().enumerate() {
                    s.push(name, vec![step as u8, i as u8, 0xA5]);
                }
                j.write_snapshot(&s);
                j.commit();
            }
        }
    }
}

/// Sections, replay tail, commit seq, commit sim-time, seeded.
type Digest = (Vec<(String, Vec<u8>)>, Vec<StateChange>, u64, u64, bool);

/// The recovery-observable state of an image that is invariant under
/// compaction: sections, replay tail and the commit boundary identity.
/// (`committed_records`/`committed_frames`/`committed_bytes` are *not*
/// included — they count what the image physically holds, which
/// compaction legitimately shrinks.)
fn digest(r: &Recovered) -> Digest {
    (
        r.sections.entries.clone(),
        r.tail.clone(),
        r.committed_seq,
        r.committed_at_us,
        r.from_snapshot,
    )
}

/// A mirror path no other case of this process uses.
fn mirror_path(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("vmr-proptest-{tag}-{}-{n}.wal", std::process::id()))
}

proptest! {
    /// A compacted image recovers byte-identically to the original and
    /// `compact` is a fixpoint; an append-only mirror holds the
    /// image's committed prefix and one compacted inline recovers to
    /// the same state.
    #[test]
    fn compacted_image_recovers_identically(
        raw in proptest::collection::vec((0u8..10, 0u32..40, 0u32..40), 1..80),
    ) {
        let ops: Vec<Op> = raw.into_iter().map(|(k, a, b)| op(k, a, b)).collect();
        let j = Journal::new(&DurabilityPlan::new(0.0)).unwrap();
        drive(&j, &ops);
        let image = j.log_bytes();

        let compacted = compact(&image).unwrap();
        prop_assert!(compacted.len() <= image.len());
        let a = recover(&image).unwrap();
        let b = recover(&compacted).unwrap();
        prop_assert_eq!(digest(&a), digest(&b));
        // Idempotence: compacting a compacted image changes nothing.
        prop_assert_eq!(&compact(&compacted).unwrap(), &compacted);

        let (plain, inline) = (mirror_path("plain"), mirror_path("inline"));
        let appending = Journal::new(&DurabilityPlan::new(0.0).with_sink(&plain)).unwrap();
        let compacting = Journal::new(
            &DurabilityPlan::new(0.0)
                .with_sink(&inline)
                .with_compaction(CompactionPolicy::max_mirror_bytes(256)),
        )
        .unwrap();
        drive(&appending, &ops);
        drive(&compacting, &ops);
        let on_disk = std::fs::read(&plain);
        let appended = appending.log_bytes();
        let compacted_disk = std::fs::read(&inline);
        std::fs::remove_file(&plain).ok();
        std::fs::remove_file(&inline).ok();
        prop_assert_eq!(&on_disk.unwrap()[..], &image[..a.committed_bytes]);
        prop_assert_eq!(&appended, &image);
        prop_assert_eq!(appending.log_len(), image.len());
        prop_assert_eq!(compacting.log_len(), image.len());
        let c = recover(&compacted_disk.unwrap()).unwrap();
        prop_assert_eq!(digest(&c), digest(&a));
    }
}

/// The frame writer as it was before frames were encoded in place: the
/// finished body is checksummed behind its kind byte, then copied into
/// the log after the header.
fn model_append_frame(log: &mut Vec<u8>, kind: u8, body: &[u8]) {
    let mut crc = Crc32::new();
    crc.update(&[kind]);
    crc.update(body);
    log.extend_from_slice(&(1 + body.len() as u32).to_be_bytes());
    log.extend_from_slice(&crc.finish().to_be_bytes());
    log.push(kind);
    log.extend_from_slice(body);
}

/// The snapshot body as `Sections::to_bytes` built it: count, then each
/// name and its bytes as a length-prefixed blob.
fn model_sections(s: &Sections) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(s.entries.len() as u32);
    for (name, bytes) in &s.entries {
        e.str(name);
        e.bytes(bytes);
    }
    e.into_vec()
}

/// The log the old route leaves for a script the journal ran: one
/// scratch body per frame, sequence numbers as the journal counts them.
#[derive(Default)]
struct ModelLog {
    bytes: Vec<u8>,
    records: u64,
    commits: u64,
    pending: bool,
}

impl ModelLog {
    fn new() -> Self {
        ModelLog {
            bytes: MAGIC.to_vec(),
            ..ModelLog::default()
        }
    }

    fn change(&mut self, c: &StateChange) {
        self.records += 1;
        let mut body = Enc::new();
        body.u64(self.records);
        c.encode(&mut body);
        model_append_frame(&mut self.bytes, FRAME_CHANGE, &body.into_vec());
        self.pending = true;
    }

    fn commit(&mut self, now_us: u64) {
        if !std::mem::take(&mut self.pending) {
            return;
        }
        self.commits += 1;
        let mut body = now_us.to_be_bytes().to_vec();
        body.extend_from_slice(&self.commits.to_be_bytes());
        model_append_frame(&mut self.bytes, FRAME_COMMIT, &body);
    }

    /// Returns the body length — what `write_snapshot` reports.
    fn snapshot(&mut self, s: &Sections) -> usize {
        let body = model_sections(s);
        model_append_frame(&mut self.bytes, FRAME_SNAPSHOT, &body);
        self.pending = true;
        body.len()
    }
}

/// A `StateChange` of variant `tag` (all 22), its fields drawn from the
/// raw inputs.
fn any_change(tag: u8, a: u32, b: u32, t: u64, ids: &[u32], blob: &[u8]) -> StateChange {
    let opt = |x: u32| (x & 3 != 0).then_some(x);
    match tag % 22 {
        0 => StateChange::WuInserted {
            wu: a,
            at_us: t,
            spec: blob.to_vec(),
        },
        1 => StateChange::ResultCreated { rid: a, wu: b },
        2 => StateChange::ResultSent {
            rid: a,
            client: b,
            at_us: t,
            deadline_us: t.wrapping_add(u64::from(b)),
        },
        3 => StateChange::ResultReported {
            rid: a,
            outcome: b as u8,
            fingerprint: opt(b).map(u64::from),
            at_us: t,
        },
        4 => StateChange::ResultCancelled { rid: a },
        5 => StateChange::WuValidated {
            wu: a,
            canonical: t,
            at_us: u64::from(b),
        },
        6 => StateChange::WuFailed { wu: a, at_us: t },
        7 => StateChange::CreditGranted {
            agreeing: ids.to_vec(),
            dissenting: vec![a, b],
            flops_bits: t,
        },
        8 => StateChange::CreditError { client: a },
        9 => StateChange::Assimilated {
            wu: a,
            holders: ids.to_vec(),
            at_us: t,
        },
        10 => StateChange::MrJobSubmitted {
            job: a,
            cfg: blob.to_vec(),
        },
        11 => StateChange::MrWuIndexed {
            wu: a,
            job: b,
            reduce: t % 2 == 1,
            idx: b,
        },
        12 => StateChange::MrMapValidated {
            job: a,
            m: b,
            holders: ids.to_vec(),
            at_us: t,
        },
        13 => StateChange::MrReduceValidated { job: a },
        14 => StateChange::MrPhase {
            job: a,
            phase: b as u8,
            at_us: t,
        },
        15 => StateChange::MrStamp {
            job: a,
            which: b as u8,
            at_us: t,
        },
        16 => StateChange::TrustObserved {
            client: a,
            outcome: b as u8,
        },
        17 => StateChange::TrustSpotCheck { client: a },
        18 => StateChange::WuQuorumOverride {
            wu: a,
            quorum: opt(b),
        },
        19 => StateChange::CreditGrantedScaled {
            agreeing: vec![a],
            dissenting: ids.to_vec(),
            flops_bits: t,
            scale_bits: u64::from(b),
        },
        20 => StateChange::TrustConfigured {
            enabled: (a ^ b) & 1 == 0,
        },
        _ => StateChange::MrShufflePlanned {
            job: a,
            strategy: b as u8,
            group: a ^ b,
        },
    }
}

/// `any_change` reaches every variant: the match below has no wildcard,
/// so a variant added to the vocabulary fails to compile here until the
/// generator (and its `% 22`) learns it.
#[test]
fn generator_covers_every_variant() {
    use StateChange::*;
    let mut seen = [false; 22];
    for tag in 0..22u8 {
        let i = match any_change(tag, 1, 2, 3, &[4], &[5]) {
            WuInserted { .. } => 0,
            ResultCreated { .. } => 1,
            ResultSent { .. } => 2,
            ResultReported { .. } => 3,
            ResultCancelled { .. } => 4,
            WuValidated { .. } => 5,
            WuFailed { .. } => 6,
            CreditGranted { .. } => 7,
            CreditError { .. } => 8,
            Assimilated { .. } => 9,
            MrJobSubmitted { .. } => 10,
            MrWuIndexed { .. } => 11,
            MrMapValidated { .. } => 12,
            MrReduceValidated { .. } => 13,
            MrPhase { .. } => 14,
            MrStamp { .. } => 15,
            TrustObserved { .. } => 16,
            TrustSpotCheck { .. } => 17,
            WuQuorumOverride { .. } => 18,
            CreditGrantedScaled { .. } => 19,
            TrustConfigured { .. } => 20,
            MrShufflePlanned { .. } => 21,
        };
        seen[i] = true;
    }
    assert_eq!(seen, [true; 22]);
}

/// Runs one snapshot through both writers and compares logs and the
/// reported body length.
fn assert_snapshot_matches(j: &Journal, model: &mut ModelLog, s: &Sections) {
    let got = j.write_snapshot(s).expect("a live journal writes");
    assert_eq!(got, model.snapshot(s));
    assert_eq!(j.log_bytes(), model.bytes);
}

/// Snapshot frames over the section sizes that matter to a length
/// patch: none, empty, one byte, and several MB.
#[test]
fn snapshot_frames_match_the_copying_writer_at_every_size() {
    let j = Journal::new(&DurabilityPlan::new(0.0)).unwrap();
    let mut model = ModelLog::new();
    let big: Vec<u8> = (0..3_000_001u32).map(|i| ((i * 31) >> 3) as u8).collect();
    let mut mixed = Sections::new();
    mixed.push("db", big);
    mixed.push("credit", vec![]);
    mixed.push("assim", vec![0xA5]);
    let mut empty_only = Sections::new();
    empty_only.push("trust", vec![]);
    for s in [Sections::new(), empty_only, mixed] {
        assert_snapshot_matches(&j, &mut model, &s);
        j.advance_to(7);
        j.commit();
        model.commit(7);
        assert_eq!(j.log_bytes(), model.bytes);
    }
    // And the same sections written through a section writer, each
    // encoded in place, frame to the same bytes again.
    let s = {
        let mut s = Sections::new();
        s.push("db", vec![1, 2, 3]);
        s.push("tracker", vec![]);
        s
    };
    let got = j
        .write_snapshot_with(|w| {
            w.section("db", |e| {
                e.u8(1);
                e.u16(0x0203);
            });
            w.section("tracker", |_| ());
        })
        .unwrap();
    assert_eq!(got, model.snapshot(&s));
    assert_eq!(j.log_bytes(), model.bytes);
}

proptest! {
    /// Whatever the script, the in-place writer's log is the copying
    /// writer's log.
    #[test]
    fn in_place_frames_equal_the_copying_writer(
        raw in proptest::collection::vec(
            (
                0u8..26,
                any::<u32>(),
                any::<u32>(),
                any::<u64>(),
                proptest::collection::vec(any::<u32>(), 0..5),
                proptest::collection::vec(any::<u8>(), 0..70),
            ),
            1..60,
        ),
    ) {
        let j = Journal::new(&DurabilityPlan::new(0.0)).unwrap();
        let mut model = ModelLog::new();
        for (step, (tag, a, b, t, ids, blob)) in raw.iter().enumerate() {
            let now = step as u64 * 13;
            j.advance_to(now);
            match tag {
                0..=21 => {
                    let c = any_change(*tag, *a, *b, *t, ids, blob);
                    j.append(&c);
                    model.change(&c);
                }
                22 | 23 => {
                    j.commit();
                    model.commit(now);
                }
                _ => {
                    let mut s = Sections::new();
                    for (i, name) in section::NAMES.iter().enumerate() {
                        s.push(name, blob[..blob.len().min(i * 17)].to_vec());
                    }
                    prop_assert_eq!(j.write_snapshot(&s), Some(model.snapshot(&s)));
                }
            }
            prop_assert_eq!(j.log_len(), model.bytes.len());
        }
        prop_assert_eq!(j.log_bytes(), model.bytes);
    }

    /// A nested blob is the length-prefixed copy of what its body
    /// encodes, at any depth and after any prefix.
    #[test]
    fn nested_blob_equals_bytes_of_the_inner_encoding(
        prefix in proptest::collection::vec(any::<u8>(), 0..9),
        inner in proptest::collection::vec(any::<u8>(), 0..300),
        word in any::<u64>(),
    ) {
        let encode_inner = |e: &mut Enc| {
            e.u64(word);
            e.bytes(&inner);
            e.str("w7");
        };
        let mut apart = Enc::new();
        encode_inner(&mut apart);
        let apart = apart.into_vec();

        let mut want = Enc::new();
        want.raw(&prefix);
        want.bytes(&apart);
        let mut outer = Enc::new();
        outer.bytes(&apart);
        want.bytes(&outer.into_vec());

        let mut got = Enc::new();
        got.raw(&prefix);
        got.nested(encode_inner);
        got.nested(|e| e.nested(encode_inner));
        prop_assert_eq!(got.into_vec(), want.into_vec());
    }
}
