//! The write-ahead log handle.
//!
//! A [`Journal`] is a cheaply clonable handle to one shared log; the
//! `Engine` owns the master copy and hands clones to the project
//! database, credit ledger and assimilator so each mutator appends its
//! own [`StateChange`] at the point of mutation (write-ahead: the
//! record is framed into the log before the in-memory state changes).
//!
//! **Time.** The engine calls [`Journal::advance_to`] once per
//! dispatched event; every record appended while that event runs
//! shares its sim-time, so mutators never thread a timestamp just for
//! the log.
//!
//! **Transactions.** The simulation mutates state only while
//! dispatching one event, so the natural atomicity unit is the event:
//! the engine calls [`Journal::commit`] after each dispatched event
//! that appended records, which writes a `FRAME_COMMIT` boundary
//! carrying the event's sim-time plus a monotonic *commit sequence*.
//! Recovery discards any records after the last commit frame — a
//! crash mid-event can never expose a half-applied transition.
//!
//! **Snapshots.** [`Journal::write_snapshot_with`] frames the whole
//! server state into the log at the plan's cadence, each section
//! encoded by its owner straight into the frame
//! ([`Journal::write_snapshot`] takes sections that already exist as
//! bytes). Once the commit after it lands, recovery starts from that
//! snapshot and replays only the records behind it.
//!
//! **One copy.** The log is an [`Enc`]: every frame — change, commit,
//! snapshot — is encoded at its end by [`frame::write_frame`], so a
//! byte is written once and checksummed once on its way in. A journal
//! with a file mirror keeps only the bytes the file does not hold yet:
//! once a commit's `write(2)` succeeds and no uncommitted tail follows,
//! the buffer is emptied and its start, `Log::base`, moves to the end
//! of the log. Between commits it holds the open transaction; after the
//! commit that mirrors a snapshot the snapshot-sized buffer is freed,
//! not kept for reuse. Every stored offset is a log offset, so
//! dropping the mirrored prefix moves none of them. A journal without
//! a sink keeps the whole log in memory.
//!
//! **The file mirror.** With [`DurabilityPlan::sink`] set, every commit
//! appends the bytes it just committed to that file with one
//! `write(2)`. There is no `fsync`: when `commit` returns the bytes
//! are in the kernel's page cache, which outlives this process but not
//! a power loss. Uncommitted bytes never reach the file. A failed
//! write drops nothing: the file is cut back to the bytes it held
//! before (a write can fail partway), and the bytes stay in memory
//! until [`Journal::flush_sink`] or a later commit writes them. Since
//! the file is then the only copy of the mirrored prefix, a mirror
//! that cannot be read back makes [`Journal::log_bytes`] panic.
//!
//! **Compaction.** A committed snapshot supersedes every earlier
//! frame; when the [`CompactionPolicy`] triggers, the commit that
//! notices rewrites the mirror (temp file + atomic rename) to start at
//! that snapshot, copying the frames it keeps from the old file. A
//! sinkless journal is never compacted: its log stays the
//! authoritative, append-only image (`log_bytes` of a resumed run must
//! reproduce the original bytes bit-for-bit).
//!
//! **Crash injection.** A [`CrashPlan`] deterministically kills the
//! log: after the Nth change record, or at the first event boundary
//! at-or-after a sim-time. Once crashed the journal accepts nothing
//! further, exactly as if the server process died — the in-memory
//! engine may keep running, but that state is what a real crash would
//! have lost. It composes with `vcore::FaultPlan` (client-side faults)
//! without interaction: one kills volunteers, the other the server.
//!
//! A disabled journal (the default) is a `None` and every call is a
//! single branch — experiments that do not opt in pay nothing.

use crate::frame;
use crate::record::StateChange;
use crate::snapshot::{SectionWriter, Sections};
use crate::wire::Enc;
use parking_lot::Mutex;
use std::io::{Read as _, Seek as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use vmr_obs::{Counter, Histo, Obs, Scope};

/// Deterministic crash point for the durability layer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CrashPlan {
    /// Kill the log immediately after the Nth change record (1-based).
    pub after_records: Option<u64>,
    /// Kill the log at the first event boundary at-or-after this
    /// sim-time (microseconds).
    pub at_us: Option<u64>,
}

impl CrashPlan {
    /// No crash.
    pub fn none() -> Self {
        CrashPlan::default()
    }

    /// Crash after the Nth change record.
    pub fn after_records(n: u64) -> Self {
        CrashPlan {
            after_records: Some(n),
            at_us: None,
        }
    }

    /// Crash at a sim-time (microseconds).
    pub fn at_us(t: u64) -> Self {
        CrashPlan {
            after_records: None,
            at_us: Some(t),
        }
    }
}

/// When to rewrite the file mirror so frames superseded by a committed
/// snapshot are dropped. The default (no trigger set) keeps the mirror
/// append-only.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CompactionPolicy {
    /// Rewrite when the mirror file reaches this many bytes.
    pub max_mirror_bytes: Option<u64>,
}

impl CompactionPolicy {
    /// Compact when the mirror reaches `n` bytes.
    pub fn max_mirror_bytes(n: u64) -> Self {
        CompactionPolicy {
            max_mirror_bytes: Some(n),
        }
    }

    /// True when no trigger is configured.
    pub fn is_never(&self) -> bool {
        self.max_mirror_bytes.is_none()
    }

    fn triggered(&self, mirror_bytes: u64) -> bool {
        self.max_mirror_bytes.is_some_and(|n| mirror_bytes >= n)
    }
}

/// Configuration for one journaled run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DurabilityPlan {
    /// Master switch; a disabled plan builds a no-op [`Journal`].
    pub enabled: bool,
    /// Snapshot cadence in sim-seconds; `<= 0` disables snapshots
    /// (recovery then replays the whole log).
    pub snapshot_every_s: f64,
    /// Mirror-rewrite policy; no trigger by default.
    pub compaction: CompactionPolicy,
    /// Deterministic crash point, if any.
    pub crash: CrashPlan,
    /// Optional file mirror: every commit appends the bytes it
    /// committed to this file, and the journal then keeps only the
    /// bytes the file does not hold. A restarted server reads it back
    /// and hands it to [`crate::recover`].
    pub sink: Option<PathBuf>,
}

impl DurabilityPlan {
    /// Durability off (the default).
    pub fn disabled() -> Self {
        DurabilityPlan::default()
    }

    /// Durability on with the given snapshot cadence (sim-seconds).
    pub fn new(snapshot_every_s: f64) -> Self {
        DurabilityPlan {
            enabled: true,
            snapshot_every_s,
            ..DurabilityPlan::default()
        }
    }

    /// Adds a crash point.
    pub fn with_crash(mut self, crash: CrashPlan) -> Self {
        self.crash = crash;
        self
    }

    /// Adds a file mirror for committed bytes.
    pub fn with_sink(mut self, path: impl Into<PathBuf>) -> Self {
        self.sink = Some(path.into());
        self
    }

    /// Sets the mirror compaction policy.
    pub fn with_compaction(mut self, policy: CompactionPolicy) -> Self {
        self.compaction = policy;
        self
    }
}

/// Pre-resolved metric handles.
struct DurObs {
    wal_records: Counter,
    wal_bytes: Counter,
    snapshot_us: Histo,
    compactions: Counter,
    compact_reclaimed: Counter,
    /// `prof` scope: encoding and framing one snapshot.
    snapshot_scope: Scope,
    /// `prof` scope: the `write(2)` that mirrors one commit.
    mirror_write_scope: Scope,
}

/// Log position of the last commit frame.
#[derive(Clone, Copy, Debug, Default)]
struct Watermark {
    bytes: usize,
    frames: u64,
    records: u64,
}

/// The file mirror of the committed log: `MAGIC + log[from..pos]`
/// once anything is mirrored.
struct Mirror {
    file: std::fs::File,
    path: PathBuf,
    /// Log offset mirrored so far.
    pos: usize,
    /// Log offset where the file's content (after its magic) begins;
    /// grows at each compaction.
    from: usize,
    /// File length the log accounts for; a failed write may have left
    /// bytes past it until [`Mirror::rewind`] cuts them off.
    len: u64,
    /// A write failed and the rewind after it did too: the file may
    /// end past `len`, or its cursor may not sit at `len`.
    torn: bool,
}

impl Mirror {
    fn create(path: &Path) -> std::io::Result<Self> {
        Ok(Mirror {
            file: std::fs::File::create(path)?,
            path: path.to_path_buf(),
            pos: 0,
            from: frame::MAGIC.len(),
            len: 0,
            torn: false,
        })
    }

    /// Appends `buf` to the file. A write that fails can still have
    /// written part of `buf` (a disk that fills mid-write), so the file
    /// is cut back to `len` before the error returns.
    fn append(&mut self, buf: &[u8]) -> std::io::Result<()> {
        if self.torn {
            self.rewind()?;
        }
        let written = self.write_all(buf);
        if written.is_err() {
            self.torn = self.rewind().is_err();
        }
        written
    }

    #[cfg(not(test))]
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.file.write_all(buf)
    }

    /// [`std::io::Write::write_all`], or, when a test has set
    /// [`tests::FAIL_AFTER`], a write that stops after that many bytes
    /// with an error.
    #[cfg(test)]
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        match tests::FAIL_AFTER.take() {
            None => self.file.write_all(buf),
            Some(n) => {
                self.file.write_all(&buf[..n.min(buf.len())])?;
                Err(std::io::ErrorKind::WriteZero.into())
            }
        }
    }

    /// Cuts the file back to `len` and puts the cursor there (the
    /// handle from [`Mirror::create`] does not append), so the next
    /// write lands at the log offset `pos`.
    fn rewind(&mut self) -> std::io::Result<()> {
        self.file.set_len(self.len)?;
        self.file.seek(std::io::SeekFrom::Start(self.len))?;
        self.torn = false;
        Ok(())
    }
}

/// The log and everything that moves with it, behind one lock. Every
/// offset here is a log offset: `base` plus a position in `bytes`.
struct Log {
    /// The log from `base` on; frames are encoded at its end, in place.
    bytes: Enc,
    /// Log offset of `bytes`' first byte. Everything before it is in
    /// the mirror file; 0 without a sink.
    base: usize,
    /// Frames appended (changes + snapshots + commits).
    frames: u64,
    /// Change records appended — also the last record sequence number.
    records: u64,
    /// Last commit sequence written (0 = nothing committed yet).
    commit_seq: u64,
    next_snapshot_us: u64,
    committed: Watermark,
    /// Offset of the frame the committed log is self-contained from:
    /// the last committed snapshot, else the magic header.
    chain_start: usize,
    /// Offset of the snapshot frame written but not yet committed.
    pending_snap: Option<usize>,
    mirror: Option<Mirror>,
}

impl Log {
    /// Total bytes appended: the log offset one past the last byte.
    fn end(&self) -> usize {
        self.base + self.bytes.len()
    }

    fn write_frame(&mut self, kind: u8, body: impl FnOnce(&mut Enc)) -> usize {
        let n = frame::write_frame(&mut self.bytes, kind, body);
        self.frames += 1;
        n
    }

    /// Appends everything committed-but-unmirrored to the mirror file,
    /// then drops the mirrored bytes from memory unless an uncommitted
    /// tail follows them. Mirror failure is non-fatal: a failed write
    /// drops nothing and leaves the file as it was, so the bytes stay
    /// until a later write succeeds.
    fn mirror_committed(&mut self, obs: Option<&DurObs>) {
        let Log {
            bytes,
            base,
            committed,
            chain_start,
            mirror: Some(m),
            ..
        } = self
        else {
            return;
        };
        let end = committed.bytes;
        if end <= m.pos {
            return;
        }
        let _write = obs.map(|o| o.mirror_write_scope.enter());
        // The one syscall per commit is the `write(2)` inside `append`.
        if m.append(&bytes.as_slice()[m.pos - *base..end - *base])
            .is_err()
        {
            return;
        }
        m.len += (end - m.pos) as u64;
        m.pos = end;
        if end == *base + bytes.len() {
            // Bytes that held the committed snapshot grew the buffer to
            // its size; give that back rather than keep it for the
            // small frames that follow.
            if *chain_start >= *base {
                *bytes = Enc::new();
            } else {
                bytes.clear();
            }
            *base = end;
        }
    }

    /// If the compaction policy triggers and the mirrored prefix
    /// already contains the last committed snapshot, rewrites the
    /// mirror as `MAGIC + log[chain_start..pos]` via a temp file and
    /// atomic rename, then reopens it for appending. The kept frames
    /// are copied from the old file; a failed read or write leaves the
    /// mirror as it was.
    fn maybe_compact(&mut self, policy: &CompactionPolicy, obs: Option<&DurObs>) {
        let Log {
            chain_start,
            mirror: Some(m),
            ..
        } = self
        else {
            return;
        };
        let due = *chain_start > m.from && m.pos >= *chain_start && policy.triggered(m.len);
        if !due {
            return;
        }
        let keep = (m.pos - *chain_start) as u64;
        let tmp = {
            let mut os = m.path.clone().into_os_string();
            os.push(".tmp");
            PathBuf::from(os)
        };
        let rewritten = (|| {
            let mut old = std::fs::File::open(&m.path)?;
            old.seek(std::io::SeekFrom::Start(
                (frame::MAGIC.len() + *chain_start - m.from) as u64,
            ))?;
            let mut new = std::fs::File::create(&tmp)?;
            new.write_all(frame::MAGIC)?;
            if std::io::copy(&mut old.take(keep), &mut new)? != keep {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            std::fs::rename(&tmp, &m.path)?;
            std::fs::OpenOptions::new().append(true).open(&m.path)
        })();
        match rewritten {
            Ok(f) => {
                let len = frame::MAGIC.len() as u64 + keep;
                let reclaimed = m.len.saturating_sub(len);
                m.len = len;
                m.from = *chain_start;
                m.file = f;
                m.torn = false;
                if let Some(o) = obs {
                    o.compactions.inc();
                    o.compact_reclaimed.add(reclaimed);
                }
            }
            Err(_) => {
                std::fs::remove_file(&tmp).ok();
            }
        }
    }
}

struct Core {
    /// Snapshot cadence, microseconds; 0 = never.
    snapshot_every_us: u64,
    compaction: CompactionPolicy,
    crash_after: Option<u64>,
    crash_at: Option<u64>,
    /// Sim-time of the event being dispatched, microseconds.
    now_us: AtomicU64,
    crashed: AtomicBool,
    /// Anything appended (records or snapshots) since the last commit.
    any_pending: AtomicBool,
    log: Mutex<Log>,
    obs: OnceLock<DurObs>,
}

/// Handle to one shared write-ahead log; clones append to the same log.
#[derive(Clone, Default)]
pub struct Journal(Option<Arc<Core>>);

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => write!(f, "Journal(disabled)"),
            Some(core) => write!(
                f,
                "Journal(frames={}, records={}, bytes={}, crashed={})",
                self.frames(),
                self.records(),
                self.log_len(),
                core.crashed.load(Ordering::Acquire)
            ),
        }
    }
}

impl Journal {
    /// A no-op journal: every call is a single branch.
    pub fn disabled() -> Self {
        Journal(None)
    }

    /// Builds a journal from a plan. A disabled plan yields the no-op
    /// handle; an enabled one starts a fresh log (and file mirror).
    pub fn new(plan: &DurabilityPlan) -> std::io::Result<Self> {
        if !plan.enabled {
            return Ok(Journal(None));
        }
        let every_us = if plan.snapshot_every_s > 0.0 {
            (plan.snapshot_every_s * 1e6) as u64
        } else {
            0
        };
        let mut bytes = Enc::with_capacity(4096);
        bytes.raw(frame::MAGIC);
        let mirror = plan.sink.as_deref().map(Mirror::create).transpose()?;
        Ok(Journal(Some(Arc::new(Core {
            snapshot_every_us: every_us,
            compaction: plan.compaction,
            crash_after: plan.crash.after_records,
            crash_at: plan.crash.at_us,
            now_us: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            any_pending: AtomicBool::new(false),
            log: Mutex::new(Log {
                bytes,
                base: 0,
                frames: 0,
                records: 0,
                commit_seq: 0,
                next_snapshot_us: every_us,
                committed: Watermark::default(),
                chain_start: frame::MAGIC.len(),
                pending_snap: None,
                mirror,
            }),
            obs: OnceLock::new(),
        }))))
    }

    /// Resolves the `dur.*` metric handles against `obs`.
    pub fn attach_obs(&self, obs: &Obs) {
        if let Some(core) = &self.0 {
            let _ = core.obs.set(DurObs {
                wal_records: obs.counter("dur.wal_records"),
                wal_bytes: obs.counter("dur.wal_bytes"),
                snapshot_us: obs.histogram("dur.snapshot_us"),
                compactions: obs.counter("dur.compactions"),
                compact_reclaimed: obs.counter("dur.compact_reclaimed_bytes"),
                snapshot_scope: obs.scope("durable.snapshot"),
                mirror_write_scope: obs.scope("durable.mirror_write"),
            });
        }
    }

    /// True when this handle appends to a live log.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Advances the journal's sim-clock to the event being dispatched
    /// and trips a time-based crash at that boundary.
    pub fn advance_to(&self, now_us: u64) {
        let Some(core) = &self.0 else { return };
        core.now_us.store(now_us, Ordering::Release);
        if matches!(core.crash_at, Some(t) if now_us >= t) {
            core.crashed.store(true, Ordering::Release);
        }
    }

    /// Appends one change record at the current event's sim-time.
    /// No-op when disabled or crashed; flips to crashed per the
    /// [`CrashPlan`].
    pub fn append(&self, change: &StateChange) {
        let Some(core) = &self.0 else { return };
        if core.crashed.load(Ordering::Acquire) {
            return;
        }
        let mut log = core.log.lock();
        let seq = log.records + 1;
        let n = log.write_frame(frame::FRAME_CHANGE, |e| {
            e.u64(seq);
            change.encode(e);
        });
        log.records = seq;
        drop(log);
        if let Some(o) = core.obs.get() {
            o.wal_records.inc();
            o.wal_bytes.add(n as u64);
        }
        core.any_pending.store(true, Ordering::Release);
        if core.crash_after == Some(seq) {
            core.crashed.store(true, Ordering::Release);
        }
    }

    /// Writes a commit frame closing the current transaction (the
    /// event being dispatched), mirrors the committed bytes and, when
    /// the policy says so, compacts the mirror. No-op when nothing is
    /// pending.
    pub fn commit(&self) {
        let Some(core) = &self.0 else { return };
        if core.crashed.load(Ordering::Acquire) {
            return;
        }
        if !core.any_pending.swap(false, Ordering::AcqRel) {
            return;
        }
        let mut log = core.log.lock();
        log.commit_seq += 1;
        let (now_us, seq) = (core.now_us.load(Ordering::Acquire), log.commit_seq);
        let n = log.write_frame(frame::FRAME_COMMIT, |e| {
            e.u64(now_us);
            e.u64(seq);
        });
        if let Some(o) = core.obs.get() {
            o.wal_bytes.add(n as u64);
        }
        if let Some(off) = log.pending_snap.take() {
            log.chain_start = off;
        }
        log.committed = Watermark {
            bytes: log.end(),
            frames: log.frames,
            records: log.records,
        };
        log.mirror_committed(core.obs.get());
        log.maybe_compact(&core.compaction, core.obs.get());
    }

    /// Retries mirroring whatever an earlier failed write left
    /// committed but unmirrored; with a healthy sink every commit has
    /// already written its bytes and this does nothing. Called at clean
    /// run end; no-op when disabled or crashed — a crashed journal's
    /// mirror must stay exactly what the "dead server" left behind.
    pub fn flush_sink(&self) {
        let Some(core) = &self.0 else { return };
        if core.crashed.load(Ordering::Acquire) {
            return;
        }
        core.log.lock().mirror_committed(core.obs.get());
    }

    /// True when a snapshot is due at the current event's sim-time.
    pub fn snapshot_due(&self) -> bool {
        let Some(core) = &self.0 else { return false };
        if core.crashed.load(Ordering::Acquire) || core.snapshot_every_us == 0 {
            return false;
        }
        core.now_us.load(Ordering::Acquire) >= core.log.lock().next_snapshot_us
    }

    /// Frames `sections` into the log as a snapshot and schedules the
    /// next one. `None` when disabled or crashed; otherwise the encoded
    /// snapshot size.
    pub fn write_snapshot(&self, sections: &Sections) -> Option<usize> {
        self.write_snapshot_with(|w| sections.write(w))
    }

    /// [`Journal::write_snapshot`] of the sections `write` encodes,
    /// straight into the snapshot frame. `write` runs under the log's
    /// lock (and not at all when disabled or crashed): it must not call
    /// back into this journal.
    pub fn write_snapshot_with(&self, write: impl FnOnce(&mut SectionWriter<'_>)) -> Option<usize> {
        let core = self.0.as_ref()?;
        if core.crashed.load(Ordering::Acquire) {
            return None;
        }
        let t0 = std::time::Instant::now();
        let _snapshot = core.obs.get().map(|o| o.snapshot_scope.enter());
        let mut log = core.log.lock();
        if core.snapshot_every_us > 0 {
            let now = core.now_us.load(Ordering::Acquire);
            while log.next_snapshot_us <= now {
                log.next_snapshot_us += core.snapshot_every_us;
            }
        }
        let off = log.end();
        let n = log.write_frame(frame::FRAME_SNAPSHOT, |e| write(&mut SectionWriter::new(e)));
        log.pending_snap = Some(off);
        drop(log);
        core.any_pending.store(true, Ordering::Release);
        if let Some(o) = core.obs.get() {
            o.wal_bytes.add(n as u64);
            o.snapshot_us.record(t0.elapsed().as_micros() as f64);
        }
        Some(n - frame::HEADER - 1)
    }

    /// True once the crash plan has fired.
    pub fn crashed(&self) -> bool {
        self.0
            .as_ref()
            .is_some_and(|c| c.crashed.load(Ordering::Acquire))
    }

    /// The sim-time (µs) of the plan's time-based crash while it has not
    /// fired: the first event boundary at or after it kills the log.
    #[inline]
    pub fn pending_crash_at_us(&self) -> Option<u64> {
        let core = self.0.as_ref()?;
        core.crash_at
            .filter(|_| !core.crashed.load(Ordering::Acquire))
    }

    /// Frames appended so far.
    pub fn frames(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.log.lock().frames)
    }

    /// Change records appended so far.
    pub fn records(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.log.lock().records)
    }

    /// Frames up to and including the last commit frame.
    pub fn committed_frames(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.log.lock().committed.frames)
    }

    /// Change records covered by the last commit frame.
    pub fn committed_records(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.log.lock().committed.records)
    }

    /// Sequence number of the last commit (0 = nothing committed).
    /// Unlike frame or byte counts this is invariant under compaction,
    /// which is why resume targets it.
    pub fn committed_seq(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.log.lock().commit_seq)
    }

    /// Total bytes appended (including any uncommitted tail), whether
    /// they are still in memory or only in the mirror file. Equals
    /// `log_bytes().len()` while the mirror has not been compacted.
    pub fn log_len(&self) -> usize {
        self.0.as_ref().map_or(0, |c| c.log.lock().end())
    }

    /// The log image, including any uncommitted tail — what a crashed
    /// server's disk would hold. Without a sink that is the whole log,
    /// from memory. With one it is the mirror file's content followed
    /// by the bytes not mirrored yet: the log itself until the mirror
    /// is first compacted, the compacted image after.
    ///
    /// # Panics
    ///
    /// With a sink, if the mirror file cannot be read back in full:
    /// the file is the only copy of the mirrored bytes, and an image
    /// without them would recover as a shorter, valid log.
    pub fn log_bytes(&self) -> Vec<u8> {
        let Some(core) = &self.0 else {
            return Vec::new();
        };
        let log = core.log.lock();
        let Some(m) = log.mirror.as_ref() else {
            return log.bytes.as_slice().to_vec();
        };
        let tail = &log.bytes.as_slice()[m.pos - log.base..];
        let mut image = Vec::with_capacity(m.len as usize + tail.len());
        let read = std::fs::File::open(&m.path).and_then(|f| f.take(m.len).read_to_end(&mut image));
        match read {
            Ok(n) if n as u64 == m.len => {}
            Ok(n) => panic!(
                "WAL mirror {} holds {n} of its {} bytes",
                m.path.display(),
                m.len
            ),
            Err(e) => panic!("WAL mirror {} unreadable: {e}", m.path.display()),
        }
        image.extend_from_slice(tail);
        image
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recover::recover;
    use crate::section;

    thread_local! {
        /// When set, the next mirror write on this thread stops after
        /// this many bytes with an error.
        pub(super) static FAIL_AFTER: std::cell::Cell<Option<usize>> =
            const { std::cell::Cell::new(None) };
    }

    fn change(rid: u32) -> StateChange {
        StateChange::ResultCreated { rid, wu: 0 }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vmr-durable-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn disabled_journal_is_inert() {
        let j = Journal::disabled();
        j.advance_to(1);
        j.append(&change(0));
        j.commit();
        assert!(!j.enabled());
        assert_eq!(j.records(), 0);
        assert_eq!(j.committed_seq(), 0);
        assert!(j.log_bytes().is_empty());
        assert!(!j.snapshot_due());
    }

    #[test]
    fn append_commit_watermarks() {
        let j = Journal::new(&DurabilityPlan::new(0.0)).unwrap();
        j.advance_to(5);
        j.append(&change(0));
        j.append(&change(1));
        assert_eq!(j.records(), 2);
        assert_eq!(j.committed_records(), 0);
        assert_eq!(j.committed_seq(), 0);
        j.commit();
        assert_eq!(j.committed_records(), 2);
        assert_eq!(j.committed_frames(), 3);
        assert_eq!(j.committed_seq(), 1);
        // Idle commit writes nothing.
        let frames = j.frames();
        j.commit();
        assert_eq!(j.frames(), frames);
        assert_eq!(j.committed_seq(), 1);
    }

    #[test]
    fn crash_after_nth_record_stops_the_log() {
        let plan = DurabilityPlan::new(0.0).with_crash(CrashPlan::after_records(2));
        let j = Journal::new(&plan).unwrap();
        j.append(&change(0));
        assert!(!j.crashed());
        j.append(&change(1));
        assert!(j.crashed());
        let len = j.log_len();
        j.append(&change(2));
        j.commit();
        assert_eq!(j.log_len(), len);
        assert_eq!(j.records(), 2);
        assert_eq!(j.committed_records(), 0); // the tail never committed
    }

    #[test]
    fn crash_at_time_trips_on_the_first_late_boundary() {
        let plan = DurabilityPlan::new(0.0).with_crash(CrashPlan::at_us(100));
        let j = Journal::new(&plan).unwrap();
        j.advance_to(99);
        j.append(&change(0));
        j.commit();
        assert!(!j.crashed());
        j.advance_to(100);
        assert!(j.crashed());
        j.append(&change(1));
        assert_eq!(j.records(), 1);
    }

    #[test]
    fn snapshot_cadence_schedules_forward() {
        let j = Journal::new(&DurabilityPlan::new(10.0)).unwrap();
        j.advance_to(9_999_999);
        assert!(!j.snapshot_due());
        j.advance_to(10_000_000);
        assert!(j.snapshot_due());
        assert!(j.write_snapshot(&Sections::new()).is_some());
        assert!(!j.snapshot_due());
        j.advance_to(19_999_999);
        assert!(!j.snapshot_due());
        j.advance_to(20_000_000);
        assert!(j.snapshot_due());
    }

    #[test]
    fn sink_mirrors_committed_bytes_only() {
        let dir = temp_dir("sink");
        let path = dir.join("wal.bin");
        let plan = DurabilityPlan::new(0.0).with_sink(&path);
        let j = Journal::new(&plan).unwrap();
        j.advance_to(1);
        j.append(&change(0));
        assert_eq!(std::fs::read(&path).unwrap().len(), 0);
        j.commit();
        let mirrored = std::fs::read(&path).unwrap();
        assert_eq!(mirrored.len(), j.log_len());
        j.append(&change(1)); // uncommitted → not mirrored
        assert_eq!(std::fs::read(&path).unwrap().len(), mirrored.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn all_sections(tag: u8) -> Sections {
        let mut s = Sections::new();
        for name in section::NAMES {
            s.push(name, vec![tag]);
        }
        s
    }

    #[test]
    fn compaction_shrinks_the_mirror_and_preserves_recovery() {
        let dir = temp_dir("compact");
        let path = dir.join("wal.bin");
        const TRIGGER: u64 = 128;
        let plan = DurabilityPlan::new(0.0)
            .with_sink(&path)
            .with_compaction(CompactionPolicy::max_mirror_bytes(TRIGGER));
        let j = Journal::new(&plan).unwrap();
        // The uncompacted log, which the mirrored journal does not keep.
        let sinkless = Journal::new(&DurabilityPlan::new(0.0)).unwrap();
        for i in 0..6u32 {
            for j in [&j, &sinkless] {
                j.advance_to(i as u64 + 1);
                j.append(&change(i));
                j.commit();
            }
        }
        // Past the trigger, but no committed snapshot to compact to yet.
        let uncompacted = std::fs::read(&path).unwrap();
        assert!(uncompacted.len() as u64 >= TRIGGER);
        assert_eq!(uncompacted.len(), j.log_len());
        // A committed snapshot supersedes the 6 records → compaction.
        for j in [&j, &sinkless] {
            j.write_snapshot(&all_sections(9)).unwrap();
            j.commit();
        }
        let compacted = std::fs::read(&path).unwrap();
        assert!(
            compacted.len() < j.log_len(),
            "mirror {} vs log {}",
            compacted.len(),
            j.log_len()
        );
        assert_eq!(j.log_bytes(), compacted);
        // Both images recover to the same state and boundary.
        let a = recover(&compacted).unwrap();
        let b = recover(&sinkless.log_bytes()).unwrap();
        assert_eq!(a.sections, b.sections);
        assert_eq!(a.tail, b.tail);
        assert_eq!(a.committed_seq, b.committed_seq);
        assert_eq!(a.committed_at_us, b.committed_at_us);
        // Appends after compaction land in the rewritten mirror.
        for j in [&j, &sinkless] {
            j.advance_to(100);
            j.append(&change(99));
            j.commit();
        }
        let grown = std::fs::read(&path).unwrap();
        assert!(grown.len() > compacted.len());
        let a2 = recover(&grown).unwrap();
        assert_eq!(a2.tail, vec![change(99)]);
        assert_eq!(
            a2.committed_seq,
            recover(&sinkless.log_bytes()).unwrap().committed_seq
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The log behind an enabled journal.
    fn log_of(j: &Journal) -> parking_lot::MutexGuard<'_, Log> {
        j.0.as_ref().unwrap().log.lock()
    }

    #[test]
    fn a_mirrored_journal_holds_only_its_open_transaction() {
        const SECTION: usize = 1 << 14;
        let dir = temp_dir("open-txn");
        let path = dir.join("wal.bin");
        let mirrored = Journal::new(&DurabilityPlan::new(0.0).with_sink(&path)).unwrap();
        let sinkless = Journal::new(&DurabilityPlan::new(0.0)).unwrap();
        let mut big = Sections::new();
        for name in section::NAMES {
            big.push(name, vec![7; SECTION]);
        }
        for i in 0..8u32 {
            for j in [&mirrored, &sinkless] {
                j.advance_to(u64::from(i) + 1);
                j.append(&change(i));
                if i == 4 {
                    j.write_snapshot(&big).unwrap();
                }
            }
            assert!(!log_of(&mirrored).bytes.is_empty(), "the open transaction");
            for j in [&mirrored, &sinkless] {
                j.commit();
            }
            let len = mirrored.log_len();
            assert_eq!(len, sinkless.log_len());
            let log = log_of(&mirrored);
            assert!(log.bytes.is_empty(), "commit {i} left bytes in memory");
            assert_eq!(log.base, len);
            if i == 4 {
                assert!(
                    log.bytes.capacity() < SECTION,
                    "the snapshot's buffer outlived its commit"
                );
            }
            drop(log);
            assert_eq!(mirrored.log_bytes(), sinkless.log_bytes());
        }

        // A write that fails keeps the committed bytes; the flush that
        // writes them later keeps the uncommitted tail behind them.
        let file = std::fs::File::open(&path).unwrap(); // read-only: writes fail
        let healthy = std::mem::replace(&mut log_of(&mirrored).mirror.as_mut().unwrap().file, file);
        for j in [&mirrored, &sinkless] {
            j.advance_to(10);
            j.append(&change(10));
            j.commit();
        }
        let committed = sinkless.log_len();
        for j in [&mirrored, &sinkless] {
            j.append(&change(11));
        }
        assert_eq!(mirrored.log_bytes(), sinkless.log_bytes());
        log_of(&mirrored).mirror.as_mut().unwrap().file = healthy;
        mirrored.flush_sink();
        assert_eq!(std::fs::read(&path).unwrap().len(), committed);
        assert_eq!(mirrored.log_bytes(), sinkless.log_bytes());
        assert_eq!(mirrored.log_len(), sinkless.log_len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_failing_mirror_keeps_every_byte() {
        // Every write to /dev/full fails with ENOSPC.
        let mirrored = Journal::new(&DurabilityPlan::new(0.0).with_sink("/dev/full")).unwrap();
        let sinkless = Journal::new(&DurabilityPlan::new(0.0)).unwrap();
        for j in [&mirrored, &sinkless] {
            for i in 0..6u32 {
                j.advance_to(u64::from(i) + 1);
                j.append(&change(i));
                if i == 3 {
                    j.write_snapshot(&all_sections(3)).unwrap();
                }
                j.commit();
            }
            j.flush_sink();
            j.append(&change(6));
        }
        assert_eq!(log_of(&mirrored).base, 0);
        assert_eq!(mirrored.log_bytes(), sinkless.log_bytes());
        assert!(recover(&mirrored.log_bytes()).is_ok());
    }

    #[test]
    fn a_write_that_fails_partway_leaves_no_bytes_behind() {
        let dir = temp_dir("partial");
        let policies = [
            CompactionPolicy::default(),
            CompactionPolicy::max_mirror_bytes(64),
        ];
        for (k, policy) in policies.into_iter().enumerate() {
            let path = dir.join(format!("wal-{k}.bin"));
            let plan = DurabilityPlan::new(0.0)
                .with_sink(&path)
                .with_compaction(policy);
            let mirrored = Journal::new(&plan).unwrap();
            let sinkless = Journal::new(&DurabilityPlan::new(0.0)).unwrap();
            for i in 0..12u32 {
                for j in [&mirrored, &sinkless] {
                    j.advance_to(u64::from(i) + 1);
                    j.append(&change(i));
                    if i % 4 == 2 {
                        j.write_snapshot(&all_sections(i as u8)).unwrap();
                    }
                }
                // Every third commit's write stops 5 bytes in.
                if i % 3 == 1 {
                    FAIL_AFTER.set(Some(5));
                }
                for j in [&mirrored, &sinkless] {
                    j.commit();
                }
                let held = log_of(&mirrored).mirror.as_ref().unwrap().len;
                assert_eq!(std::fs::metadata(&path).unwrap().len(), held, "commit {i}");
                if policy.is_never() {
                    assert_eq!(mirrored.log_bytes(), sinkless.log_bytes(), "commit {i}");
                }
            }
            let image = mirrored.log_bytes();
            assert_eq!(image, std::fs::read(&path).unwrap());
            if !policy.is_never() {
                assert!(
                    image.len() < mirrored.log_len(),
                    "the mirror was never compacted"
                );
            }
            let (a, b) = (
                recover(&image).unwrap(),
                recover(&sinkless.log_bytes()).unwrap(),
            );
            assert_eq!(a.sections, b.sections);
            assert_eq!(a.tail, b.tail);
            assert_eq!(a.committed_seq, b.committed_seq);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "WAL mirror")]
    fn a_lost_mirror_is_not_an_empty_log() {
        let dir = temp_dir("lost");
        let j = Journal::new(&DurabilityPlan::new(0.0).with_sink(dir.join("wal.bin"))).unwrap();
        j.advance_to(1);
        j.append(&change(0));
        j.commit();
        std::fs::remove_dir_all(&dir).unwrap();
        j.log_bytes();
    }

    #[test]
    fn crashed_journal_never_touches_the_sink_again() {
        let dir = temp_dir("sink-crash");
        let path = dir.join("wal.bin");
        let plan = DurabilityPlan::new(0.0)
            .with_sink(&path)
            .with_crash(CrashPlan::after_records(2));
        let j = Journal::new(&plan).unwrap();
        j.advance_to(1);
        j.append(&change(0));
        j.commit();
        let committed = j.log_len();
        j.append(&change(1)); // trips the crash
        assert!(j.crashed());
        j.commit();
        j.flush_sink();
        // The open transaction died with the "server": the mirror holds
        // exactly what a real crashed process would have left.
        assert_eq!(
            std::fs::read(&path).unwrap(),
            j.log_bytes()[..committed].to_vec()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
