//! WAL torture harness: a deterministic, seeded corruption fuzzer over
//! journals recorded from real (small) Table I style experiment runs.
//!
//! Every assault asserts the same contract: recovery either succeeds
//! at a valid commit boundary (`committed_seq` no later than the
//! intact image's) or returns a typed [`RecoverError`] — it must
//! *never* panic, and the recovered state must feed cleanly into the
//! full server-state materializer (`RecoveredServerState::from_log`).
//!
//! Assault classes:
//! 1. truncation at every byte offset (a strided sample under
//!    `TORTURE_SMOKE=1`),
//! 2. single-bit flips in headers, payloads and CRCs,
//! 3. duplicated / reordered / transplanted CRC-valid frames.
//!
//! A hand-built corpus of *retired* formats (the sharded bundle, the
//! incremental-snapshot frame kind) must come back as typed errors
//! from every entry point.
//!
//! The fuzzer RNG is a fixed-seed xorshift, so a failure reproduces
//! exactly by rerunning the test.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use vmr_core::config::MrMode;
use vmr_core::experiment::{run_experiment, ExperimentConfig};
use vmr_core::recover::RecoveredServerState;
use vmr_durable::frame::{append_frame, scan, FRAME_COMMIT, FRAME_SNAPSHOT};
use vmr_durable::{compact, recover, CompactionPolicy, DurabilityPlan, RecoverError, Sections};

/// xorshift64*: deterministic, dependency-free fuzzing RNG.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// `TORTURE_SMOKE=1` bounds the budget for CI smoke runs.
fn smoke() -> bool {
    std::env::var_os("TORTURE_SMOKE").is_some()
}

/// Records one WAL image from a quick experiment run under `plan`.
fn quick_wal(plan: DurabilityPlan) -> Vec<u8> {
    let mut cfg = ExperimentConfig::table1(4, 2, 1, MrMode::InterClient);
    cfg.input_bytes = 4 << 20; // tiny job: a rich log, a quick run
    cfg.durable = plan;
    let out = run_experiment(&cfg).expect("valid experiment config");
    assert!(out.all_done && !out.crashed, "seed run must finish");
    out.wal.expect("durability was enabled")
}

/// The corpus: real journals with and without snapshots, their
/// compacted images, and a mirror the journal's own `CompactionPolicy`
/// rewrote mid-run. Recorded once per test binary.
fn corpus() -> &'static Vec<(&'static str, Vec<u8>)> {
    static CORPUS: OnceLock<Vec<(&'static str, Vec<u8>)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let single = quick_wal(DurabilityPlan::new(0.0));
        let snapshots = quick_wal(DurabilityPlan::new(45.0));
        let single_compacted = compact(&single).expect("intact image compacts");
        let snapshots_compacted = compact(&snapshots).expect("intact image compacts");
        let sink = std::env::temp_dir().join(format!("vmr-torture-{}.wal", std::process::id()));
        quick_wal(
            DurabilityPlan::new(45.0)
                .with_sink(&sink)
                .with_compaction(CompactionPolicy::max_mirror_bytes(4096)),
        );
        let mirror = std::fs::read(&sink).expect("the run mirrored its WAL");
        std::fs::remove_file(&sink).ok();
        assert!(
            mirror.len() < snapshots.len(),
            "the policy must have rewritten the mirror"
        );
        vec![
            ("single", single),
            ("snapshots", snapshots),
            ("single-compacted", single_compacted),
            ("snapshots-compacted", snapshots_compacted),
            ("policy-compacted-mirror", mirror),
        ]
    })
}

/// One assault verdict: recovery must not panic; on success the
/// boundary must be one the intact image had already committed; on
/// failure the error must be typed (and therefore displayable).
fn assert_survives(name: &str, image: &[u8], baseline_seq: u64, ctx: &str) {
    let recovered = catch_unwind(AssertUnwindSafe(|| recover(image)))
        .unwrap_or_else(|_| panic!("{name}: recover panicked ({ctx})"));
    match recovered {
        Ok(r) => assert!(
            r.committed_seq <= baseline_seq,
            "{name}: corrupt image advanced the boundary past the \
             intact one ({} > {baseline_seq}) ({ctx})",
            r.committed_seq
        ),
        Err(e) => {
            // Typed and displayable — corruption is a result, never
            // an abort.
            let _ = format!("{e}");
        }
    }
    // The full materializer (snapshot decode + tail replay through the
    // real appliers) must hold the same never-panic contract.
    let applied = catch_unwind(AssertUnwindSafe(|| RecoveredServerState::from_log(image)));
    assert!(applied.is_ok(), "{name}: from_log panicked ({ctx})");
}

#[test]
fn truncation_at_every_byte_offset() {
    for (name, image) in corpus() {
        let baseline = recover(image).expect("intact image recovers");
        assert!(baseline.committed_seq > 0, "{name}: trivial corpus image");
        // Full mode cuts at every byte; smoke strides (coprime with
        // typical frame sizes so cuts land on every alignment class).
        let stride = if smoke() { 37 } else { 1 };
        let mut cut = 0;
        while cut <= image.len() {
            assert_survives(name, &image[..cut], baseline.committed_seq, "truncation");
            cut += stride;
        }
        // The boundary cuts (empty, magic-only, full) always run.
        for cut in [0, 8.min(image.len()), image.len()] {
            assert_survives(name, &image[..cut], baseline.committed_seq, "truncation");
        }
    }
}

#[test]
fn single_bit_flips_never_panic() {
    let mut rng = XorShift::new(0x7031_7031);
    for (name, image) in corpus() {
        let baseline = recover(image).expect("intact image recovers");
        let flips = if smoke() { 200 } else { 2_000 };
        let mut mutated = image.clone();
        for _ in 0..flips {
            let byte = rng.below(mutated.len());
            let bit = 1u8 << rng.below(8);
            mutated[byte] ^= bit;
            assert_survives(
                name,
                &mutated,
                baseline.committed_seq,
                &format!("bit flip at byte {byte}"),
            );
            mutated[byte] ^= bit; // restore: flips are independent
        }
        // Pair of simultaneous flips: header + payload interplay.
        for _ in 0..flips / 4 {
            let (b1, b2) = (rng.below(mutated.len()), rng.below(mutated.len()));
            let (m1, m2) = (1u8 << rng.below(8), 1u8 << rng.below(8));
            mutated[b1] ^= m1;
            mutated[b2] ^= m2;
            assert_survives(name, &mutated, baseline.committed_seq, "double flip");
            mutated[b2] ^= m2;
            mutated[b1] ^= m1;
        }
        assert_eq!(&mutated, image, "restore discipline broke");
    }
}

/// Byte ranges of an intact log's change and commit frames. Snapshot
/// frames are left out of the surgery: a snapshot does not record its
/// own log position, so one displaced among CRC-valid frames cannot be
/// told from a genuine one by any check short of a format change.
fn tamperable_frames(log: &[u8]) -> Vec<(usize, usize)> {
    scan(log)
        .expect("intact log scans")
        .frames
        .iter()
        .filter(|f| f.kind != FRAME_SNAPSHOT)
        .map(|f| (f.start(), f.end))
        .collect()
}

#[test]
fn duplicated_reordered_and_transplanted_frames() {
    let mut rng = XorShift::new(0x5EED_CAFE);
    for (name, image) in corpus() {
        let baseline = recover(image).expect("intact image recovers");
        let frames = tamperable_frames(image);
        let cases = if smoke() { 60 } else { 600 };
        for case in 0..cases {
            let mutated = match case % 3 {
                0 => {
                    // Duplicate a frame onto the tail.
                    let (s, e) = frames[rng.below(frames.len())];
                    let mut out = image.clone();
                    out.extend_from_slice(&image[s..e]);
                    out
                }
                1 => {
                    // Reorder: swap two frames.
                    let (a, b) = (rng.below(frames.len()), rng.below(frames.len()));
                    let (fa, fb) = (frames[a.min(b)], frames[a.max(b)]);
                    if fa == fb {
                        continue;
                    }
                    let mut out = image[..fa.0].to_vec();
                    out.extend_from_slice(&image[fb.0..fb.1]);
                    out.extend_from_slice(&image[fa.1..fb.0]);
                    out.extend_from_slice(&image[fa.0..fa.1]);
                    out.extend_from_slice(&image[fb.1..]);
                    out
                }
                _ => {
                    // Transplant: plant a copy of one frame at another
                    // frame's boundary, mid-log.
                    let (s, e) = frames[rng.below(frames.len())];
                    let at = frames[rng.below(frames.len())].1;
                    let mut out = image[..at].to_vec();
                    out.extend_from_slice(&image[s..e]);
                    out.extend_from_slice(&image[at..]);
                    out
                }
            };
            // A repeated or out-of-place record or commit breaks its
            // sequence (`CorruptSequence`); what still recovers stops at
            // a boundary the intact image had committed.
            assert_survives(name, &mutated, baseline.committed_seq, "frame tamper");
        }
    }
}

/// Images in formats this version no longer reads, built by hand the
/// way their writers laid them out.
fn retired_corpus() -> Vec<(&'static str, Vec<u8>, RecoverError)> {
    let (_, single) = &corpus()[0];
    // `VMRSHRD1`: magic, u32 shard count, then (name, log) pairs.
    let mut bundle = b"VMRSHRD1".to_vec();
    bundle.extend_from_slice(&1u32.to_be_bytes());
    bundle.extend_from_slice(&2u32.to_be_bytes());
    bundle.extend_from_slice(b"db");
    bundle.extend_from_slice(&(single.len() as u32).to_be_bytes());
    bundle.extend_from_slice(single);
    // A log whose committed prefix holds a kind-3
    // (incremental snapshot) frame.
    let intact = recover(single).expect("intact image recovers");
    let mut inc = bytes::BytesMut::from(&single[..intact.committed_bytes]);
    let mut sections = Sections::new();
    sections.push("db", vec![1, 2, 3]);
    append_frame(&mut inc, 3, &sections.to_bytes());
    let mut commit = [0u8; 16];
    commit[..8].copy_from_slice(&(intact.committed_at_us + 1).to_be_bytes());
    commit[8..].copy_from_slice(&(intact.committed_seq + 1).to_be_bytes());
    append_frame(&mut inc, FRAME_COMMIT, &commit);
    vec![
        ("retired-bundle", bundle, RecoverError::BadMagic),
        (
            "retired-incremental",
            inc.to_vec(),
            RecoverError::UnknownFrameKind {
                frame: intact.committed_frames,
                kind: 3,
            },
        ),
    ]
}

#[test]
fn retired_formats_are_typed_errors_everywhere() {
    for (name, image, want) in retired_corpus() {
        assert_eq!(recover(&image).unwrap_err(), want, "{name}: recover");
        assert_eq!(compact(&image).unwrap_err(), want, "{name}: compact");
        match RecoveredServerState::from_log(&image) {
            Err(vmr_core::recover::RecoveryError::Log(e)) => assert_eq!(e, want, "{name}"),
            Err(e) => panic!("{name}: from_log returned {e}, expected {want}"),
            Ok(_) => panic!("{name}: from_log accepted a retired format"),
        }
        // And under truncation they stay typed or torn, never a panic.
        for cut in (0..image.len()).step_by(97) {
            assert_survives(name, &image[..cut], u64::MAX, "retired truncation");
        }
    }
}

/// Sanity anchor for the whole harness: the intact corpus images all
/// recover to their own full boundary and materialize cleanly.
#[test]
fn intact_corpus_recovers_to_its_own_boundary() {
    for (name, image) in corpus() {
        let r = recover(image).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(r.committed_seq > 0, "{name}");
        let state = RecoveredServerState::from_log(image).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(state.committed_seq, r.committed_seq, "{name}");
        assert_eq!(state.tracker.jobs.len(), 1, "{name}");
    }
}
