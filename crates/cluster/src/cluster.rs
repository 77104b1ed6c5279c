//! The coordinator (project server) and the volunteer threads.

use bytes::Bytes;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vmr_desim::SimTime;
use vmr_durable::{DurabilityPlan, Journal};
use vmr_mapreduce::{
    decode_partition, run_map_task, run_reduce_task, sha256, split_input, HashPartitioner, JobSpec,
    MapReduceApp,
};
use vmr_rtnet::{fetch_with_fallback, OutputStore, PollServer, PollServerConfig};
use vmr_vcore::config::{MAX_SERVING_CONNECTIONS, PEER_RETRY_LIMIT};
use vmr_vcore::sched::{pick_results, WorkRequest};
use vmr_vcore::transition::{transition_wu, Transition};
use vmr_vcore::{
    ClientId, Db, OutputFingerprint, ResultId, ResultOutcome, ResultState, WorkUnitSpec, WuId,
    WuState,
};

/// Cluster parameters.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Volunteer worker threads.
    pub n_workers: usize,
    /// Job geometry.
    pub job: JobSpec,
    /// Replicas per task, and the quorum that validates it (1 = no
    /// validation; 2 = the paper's setup).
    pub replication: u32,
    /// Workers whose outputs are corrupted (byzantine injection).
    pub byzantine: Vec<usize>,
    /// Workers whose stored map outputs are wiped right after the map
    /// phase (forces the reducer fall-back path).
    pub kill_after_map: Vec<usize>,
}

impl ClusterConfig {
    /// A sane default: `n_workers` volunteers, replication 2.
    pub fn new(n_workers: usize, job: JobSpec) -> Self {
        ClusterConfig {
            n_workers,
            job,
            replication: 2,
            byzantine: Vec::new(),
            kill_after_map: Vec::new(),
        }
    }
}

/// Outcome of a cluster run. Its transfer and validation counts are
/// in the registry [`run_cluster_with_obs`] records into.
pub struct ClusterReport<A: MapReduceApp> {
    /// Merged final output (all reduce partitions).
    pub output: BTreeMap<A::K, A::V>,
    /// The coordinator's write-ahead log: the `StateChange` records a
    /// journaled simulator run writes. Decode it with
    /// `vmr_durable::recover`.
    pub wal: Vec<u8>,
}

/// Why a cluster run stopped without an output.
#[derive(Debug)]
pub enum ClusterError {
    /// The named work unit can never validate: its retry budget ran
    /// out, or nothing is in progress and every worker already holds
    /// one of its replicas.
    QuorumUnreachable {
        /// The work unit's name, e.g. `wc_map_0`.
        wu: String,
    },
    /// The coordinator's data server or journal failed to start.
    Io(std::io::Error),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::QuorumUnreachable { wu } => write!(f, "quorum unreachable for {wu}"),
            ClusterError::Io(e) => write!(f, "coordinator start failed: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// A job's (partial) output.
type Output<A> = BTreeMap<<A as MapReduceApp>::K, <A as MapReduceApp>::V>;

enum Assignment {
    /// Run map task `m` as this result.
    Map(ResultId, usize),
    /// Run reduce task `r` as this result; map `m`'s partition is
    /// served at the addresses in `holders[m]`.
    Reduce(ResultId, usize, Vec<Vec<SocketAddr>>),
    Wait,
    Done,
}

enum ToCoord<A: MapReduceApp> {
    /// A worker's serving address and store, sent once, first.
    Register(usize, SocketAddr, Arc<OutputStore>),
    /// A work request from this worker.
    Request(usize),
    /// A finished result: the SHA-256 of its output (`None` when the
    /// task failed) and, for a reduce, the output itself.
    Report(ResultId, Option<[u8; 32]>, Option<Output<A>>),
    /// A worker thread is unwinding; `run_cluster` re-raises its panic.
    Panicked,
}

/// Runs a full MapReduce job on a real loopback TCP cluster.
///
/// # Errors
/// [`ClusterError::QuorumUnreachable`] when some work unit can never
/// validate (e.g. more byzantine workers than honest ones, or fewer
/// workers than `replication`).
///
/// # Panics
/// When a worker thread panics (its panic is re-raised).
pub fn run_cluster<A>(
    app: Arc<A>,
    data: Arc<Vec<u8>>,
    cfg: &ClusterConfig,
) -> Result<ClusterReport<A>, ClusterError>
where
    A: MapReduceApp<K = String> + 'static,
{
    run_cluster_with_obs(app, data, cfg, &vmr_obs::Obs::detached())
}

/// [`run_cluster`] recording transfer counters and serving timings into
/// a shared observability bundle (the peer servers, the coordinator's
/// data server and the reducer fetch path all report into it):
/// `rtnet.{map_execs, reduce_execs, quorum_retries}` from the
/// coordinator, `rtnet.{local_reads, peer_fetches, fallback_fetches,
/// fetch_retries}` per reduce input.
pub fn run_cluster_with_obs<A>(
    app: Arc<A>,
    data: Arc<Vec<u8>>,
    cfg: &ClusterConfig,
    obs: &vmr_obs::Obs,
) -> Result<ClusterReport<A>, ClusterError>
where
    A: MapReduceApp<K = String> + 'static,
{
    // The coordinator's fall-back store + server (the "data server").
    let server_store = Arc::new(OutputStore::new());
    let server = PollServer::start_with_obs(server_store.clone(), PollServerConfig::new(64), obs)
        .map_err(ClusterError::Io)?;
    let mut coord = Coordinator::new(cfg, obs).map_err(ClusterError::Io)?;
    let ranges = Arc::new(split_input(app.as_ref(), &data, cfg.job.n_maps));
    let (to_coord, rx) = channel();
    let mut replies = Vec::new();
    let mut workers = Vec::new();
    for id in 0..cfg.n_workers {
        let (reply_tx, reply) = channel();
        replies.push(reply_tx);
        let worker = Worker {
            id,
            app: app.clone(),
            data: data.clone(),
            ranges: ranges.clone(),
            job: cfg.job.clone(),
            to_coord: to_coord.clone(),
            reply,
            byzantine: cfg.byzantine.contains(&id),
            store: Arc::new(OutputStore::new()),
            server_addr: server.addr(),
            server_store: server_store.clone(),
            obs: obs.clone(),
        };
        workers.push(std::thread::spawn(move || worker.run()));
    }
    drop(to_coord);

    let output = coord.run(&rx, &replies);
    // Tell every worker to exit (answers its pending or next request).
    for tx in &replies {
        let _ = tx.send(Assignment::Done);
    }
    for w in workers {
        if let Err(panic) = w.join() {
            std::panic::resume_unwind(panic);
        }
    }
    server.shutdown();
    Ok(ClusterReport {
        output: output?,
        wal: coord.journal.log_bytes(),
    })
}

/// The project server: vcore's database and transitioner, driven by
/// worker messages, with wall time since start as its clock.
struct Coordinator<'a, A: MapReduceApp> {
    cfg: &'a ClusterConfig,
    db: Db,
    journal: Journal,
    start: Instant,
    /// Per worker: its serving address and store, from `Register`.
    workers: Vec<Option<(SocketAddr, Arc<OutputStore>)>>,
    /// Per map task: where the outputs that formed its quorum are served.
    holders: Vec<Vec<SocketAddr>>,
    /// Reported reduce outputs awaiting their work unit's validation.
    pending: BTreeMap<ResultId, Output<A>>,
    output: Output<A>,
    obs: vmr_obs::Obs,
}

impl<'a, A: MapReduceApp> Coordinator<'a, A> {
    fn new(cfg: &'a ClusterConfig, obs: &vmr_obs::Obs) -> std::io::Result<Self> {
        let journal = Journal::new(&DurabilityPlan::new(0.0))?;
        let mut db = Db::new();
        db.set_journal(journal.clone());
        let mut c = Coordinator {
            cfg,
            db,
            journal,
            start: Instant::now(),
            workers: vec![None; cfg.n_workers],
            holders: vec![Vec::new(); cfg.job.n_maps],
            pending: BTreeMap::new(),
            output: BTreeMap::new(),
            obs: obs.clone(),
        };
        for m in 0..cfg.job.n_maps {
            c.insert(format!("{}_map_{m}", cfg.job.name), m);
        }
        Ok(c)
    }

    /// Inserts one work unit with `MrPolicy`'s replication budget.
    fn insert(&mut self, name: String, task: usize) {
        let mut spec = WorkUnitSpec::basic(name, self.cfg.job.name.clone(), 0.0);
        spec.target_nresults = self.cfg.replication;
        spec.min_quorum = self.cfg.replication;
        spec.max_total_results = self.cfg.replication * 4;
        spec.payload = task as u64;
        let now = self.now();
        self.db.insert_workunit(spec, now);
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.start.elapsed().as_micros() as u64)
    }

    /// Serves messages until every work unit is terminal; returns the
    /// merged output. Commits the journal after each message.
    fn run(
        &mut self,
        rx: &Receiver<ToCoord<A>>,
        replies: &[Sender<Assignment>],
    ) -> Result<Output<A>, ClusterError> {
        let result = loop {
            self.journal.commit();
            if self.db.all_wus_terminal() {
                break Ok(std::mem::take(&mut self.output));
            }
            if let Some(wu) = self.stranded() {
                break Err(self.quorum_unreachable(wu));
            }
            // An error here means every worker thread is gone, which
            // only a panic does; `run_cluster` re-raises it.
            let Ok(msg) = rx.recv() else {
                break Ok(BTreeMap::new());
            };
            self.journal.advance_to(self.now().as_micros());
            match msg {
                ToCoord::Register(worker, addr, store) => {
                    self.workers[worker] = Some((addr, store))
                }
                ToCoord::Request(worker) => {
                    let _ = replies[worker].send(self.grant(worker));
                }
                ToCoord::Report(rid, digest, out) => {
                    if let Err(e) = self.report(rid, digest, out) {
                        break Err(e);
                    }
                }
                ToCoord::Panicked => break Ok(BTreeMap::new()),
            }
        };
        self.journal.commit();
        result
    }

    fn request(worker: usize) -> WorkRequest {
        WorkRequest {
            client: ClientId(worker as u32),
            slots_wanted: 1,
        }
    }

    /// The active work unit no event can move any more: nothing is in
    /// progress and no worker may take any unsent result. With a fixed
    /// pool, that state is final.
    fn stranded(&self) -> Option<WuId> {
        let sent = |r: &ResultId| self.db.result(*r).state == ResultState::InProgress;
        let in_progress = self
            .db
            .wu_ids()
            .any(|wu| self.db.results_of(wu).iter().any(sent));
        let idle = !in_progress
            && (0..self.cfg.n_workers).all(|w| {
                pick_results(&self.db, self.db.unsent_results(), Self::request(w), 1).is_empty()
            });
        let active = |&wu: &WuId| self.db.wu(wu).state == WuState::Active;
        idle.then(|| self.db.wu_ids().find(active)).flatten()
    }

    fn quorum_unreachable(&self, wu: WuId) -> ClusterError {
        let wu = self.db.wu(wu).spec.name.clone();
        ClusterError::QuorumUnreachable { wu }
    }

    fn is_map(&self, wu: WuId) -> bool {
        (wu.0 as usize) < self.cfg.job.n_maps
    }

    /// Answers one work request: at most one result, by vcore's rule.
    fn grant(&mut self, worker: usize) -> Assignment {
        let req = Self::request(worker);
        let Some(&rid) = pick_results(&self.db, self.db.unsent_results(), req, 1).first() else {
            return Assignment::Wait;
        };
        let (now, wu) = (self.now(), self.db.result(rid).wu);
        // Recorded, never enforced: no real worker vanishes.
        let deadline = now + self.db.wu(wu).spec.delay_bound;
        self.db.mark_sent(rid, req.client, now, deadline);
        let task = self.db.wu(wu).spec.payload as usize;
        if self.is_map(wu) {
            return Assignment::Map(rid, task);
        }
        // "the scheduler appends to each reduce result the address (IP
        // and port) of mappers holding output for the same job"
        Assignment::Reduce(rid, task, self.holders.clone())
    }

    /// Records a report and runs the transitioner on its work unit.
    fn report(
        &mut self,
        rid: ResultId,
        digest: Option<[u8; 32]>,
        out: Option<Output<A>>,
    ) -> Result<(), ClusterError> {
        let (now, wu) = (self.now(), self.db.result(rid).wu);
        let execs = if self.is_map(wu) {
            "rtnet.map_execs"
        } else {
            "rtnet.reduce_execs"
        };
        self.obs.counter(execs).inc();
        // The validator compares a u64: the digest's first 8 bytes.
        let fp = digest.map(|d| {
            let head = [d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]];
            OutputFingerprint(u64::from_le_bytes(head))
        });
        let outcome = match fp {
            Some(_) => ResultOutcome::Success,
            None => ResultOutcome::Error,
        };
        self.db.mark_reported(rid, outcome, fp, now);
        if let Some(out) = out {
            self.pending.insert(rid, out);
        }
        match transition_wu(&mut self.db, wu, now) {
            Transition::None => {}
            Transition::Retried { new_results } => {
                let retries = self.obs.counter("rtnet.quorum_retries");
                retries.add(new_results.len() as u64);
            }
            Transition::Failed => return Err(self.quorum_unreachable(wu)),
            Transition::Validated { agreeing, .. } if self.is_map(wu) => {
                let m = self.db.wu(wu).spec.payload as usize;
                let served = |r: &ResultId| {
                    let w = self.db.result(*r).client?.0 as usize;
                    self.workers[w].as_ref().map(|(addr, _)| *addr)
                };
                self.holders[m] = agreeing.iter().filter_map(served).collect();
                // Only map work units exist until the last one validates.
                if self.db.count_state(WuState::Validated) == self.cfg.job.n_maps {
                    self.start_reduce_phase();
                }
            }
            Transition::Validated { agreeing, .. } => {
                if let Some(out) = self.pending.remove(&agreeing[0]) {
                    self.output.extend(out);
                }
            }
        }
        Ok(())
    }

    /// Every map validated: apply the §III.C fault injection (wipe the
    /// chosen mappers' stores) and insert the reduce work units.
    fn start_reduce_phase(&mut self) {
        for &k in &self.cfg.kill_after_map {
            if let Some(Some((_, store))) = self.workers.get(k) {
                store.clear();
            }
        }
        for r in 0..self.cfg.job.n_reduces {
            self.insert(format!("{}_red_{r}", self.cfg.job.name), r);
        }
    }
}

/// One volunteer thread: its own serving endpoint and a pull loop.
struct Worker<A: MapReduceApp> {
    id: usize,
    app: Arc<A>,
    data: Arc<Vec<u8>>,
    ranges: Arc<Vec<Range<usize>>>,
    job: JobSpec,
    to_coord: Sender<ToCoord<A>>,
    reply: Receiver<Assignment>,
    byzantine: bool,
    store: Arc<OutputStore>,
    server_addr: SocketAddr,
    server_store: Arc<OutputStore>,
    obs: vmr_obs::Obs,
}

/// Tells the coordinator when a worker thread unwinds, so the panic
/// surfaces instead of leaving its result in progress forever.
impl<A: MapReduceApp> Drop for Worker<A> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.to_coord.send(ToCoord::Panicked);
        }
    }
}

impl<A: MapReduceApp<K = String>> Worker<A> {
    fn run(&self) {
        let cfg = PollServerConfig::new(MAX_SERVING_CONNECTIONS as usize);
        let server =
            PollServer::start_with_obs(self.store.clone(), cfg, &self.obs).expect("peer server");
        // "Communication always starts from the client": the volunteer
        // announces its serving endpoint in its first message.
        let (worker, addr) = (self.id, server.addr());
        let _ = self
            .to_coord
            .send(ToCoord::Register(worker, addr, self.store.clone()));
        // Pull loop with a small client-side backoff on Wait.
        let mut wait = Duration::from_millis(1);
        while self.to_coord.send(ToCoord::Request(worker)).is_ok() {
            let (rid, digest, out) = match self.reply.recv() {
                Ok(Assignment::Map(rid, m)) => (rid, Some(self.map(m)), None),
                Ok(Assignment::Reduce(rid, r, holders)) => {
                    let (digest, out) = self.reduce(addr, r, &holders).unzip();
                    (rid, digest, out)
                }
                Ok(Assignment::Wait) => {
                    std::thread::sleep(wait);
                    // Client-side exponential backoff, like the real thing.
                    wait = (wait * 2).min(Duration::from_millis(20));
                    continue;
                }
                Ok(Assignment::Done) | Err(_) => break,
            };
            wait = Duration::from_millis(1);
            let _ = self.to_coord.send(ToCoord::Report(rid, digest, out));
        }
        server.shutdown();
    }

    /// Runs map task `m`, serves its partitions, and returns the digest
    /// the worker reports: the SHA-256 of its partitions' digests.
    fn map(&self, m: usize) -> [u8; 32] {
        let part = HashPartitioner::new(self.job.n_reduces);
        let chunk = &self.data[self.ranges[m].clone()];
        let mo = run_map_task(self.app.as_ref(), chunk, &part, |k| k.as_bytes().to_vec());
        let mut digests = Vec::with_capacity(self.job.n_reduces * 32);
        for r in 0..self.job.n_reduces {
            let mut text = mo.encode_partition(self.app.as_ref(), r).into_bytes();
            if self.byzantine {
                // Corrupt the payload — quorum must catch this.
                text.extend_from_slice(b"corrupted-by-byzantine-worker\n");
            }
            let name = self.job.partition_file(m, r);
            let data = Bytes::from(text);
            self.store.put(&name, data.clone());
            // The digest reported is the one this file is served under
            // (§III.C): computed once, here, and cached for every peer
            // that fetches it.
            let (_, digest) = self
                .store
                .get_with_digest(&name)
                .expect("a file put without a window is served");
            digests.extend_from_slice(&digest);
            // "map outputs … always returned to the server" (fall-back
            // copies). First honest copy wins.
            if !self.byzantine && self.server_store.get(&name).is_none() {
                self.server_store.put(&name, data);
            }
        }
        sha256(&digests)
    }

    /// Runs reduce task `r` over the holders' partitions; `None` when an
    /// input could be fetched from no holder and not from the server.
    fn reduce(
        &self,
        my_addr: SocketAddr,
        r: usize,
        holders: &[Vec<SocketAddr>],
    ) -> Option<([u8; 32], Output<A>)> {
        let server = Some(self.server_addr);
        let mut inputs = Vec::with_capacity(holders.len());
        for (m, peers) in holders.iter().enumerate() {
            let name = self.job.partition_file(m, r);
            // Holder locality: serve from our own store first.
            let local = self.store.get(&name).filter(|_| peers.contains(&my_addr));
            if local.is_some() {
                self.obs.counter("rtnet.local_reads").inc();
            }
            let bytes = match local {
                Some(b) => b,
                None => {
                    fetch_with_fallback(&name, peers, PEER_RETRY_LIMIT, server, &self.obs).ok()?
                }
            };
            let text = String::from_utf8_lossy(&bytes);
            inputs.push(decode_partition(self.app.as_ref(), &text));
        }
        let out = run_reduce_task(self.app.as_ref(), inputs);
        let mut enc = String::new();
        for (k, v) in &out {
            self.app.encode(k, v, &mut enc);
        }
        Some((sha256(enc.as_bytes()), out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmr_mapreduce::apps::WordCount;
    use vmr_mapreduce::run_sequential;

    /// Runs `cfg` against the sequential oracle; returns the run's
    /// `rtnet.*` counter of each name in `keys`.
    fn run_checked<const N: usize>(cfg: &ClusterConfig, keys: [&str; N]) -> [u64; N] {
        let data = corpus();
        let obs = vmr_obs::Obs::new();
        let report = run_cluster_with_obs(Arc::new(WordCount), data.clone(), cfg, &obs)
            .expect("the job completes");
        let oracle = run_sequential(&WordCount, &[&data[..]]);
        assert_eq!(
            report.output, oracle,
            "cluster output must equal the oracle"
        );
        let snap = obs.snapshot();
        keys.map(|k| snap.counter(&format!("rtnet.{k}")))
    }

    fn corpus() -> Arc<Vec<u8>> {
        let mut gen = vmr_mapreduce::CorpusGen::new(&vmr_mapreduce::CorpusSpec {
            vocabulary: 500,
            exponent: 1.0,
            seed: 42,
        });
        Arc::new(gen.generate(200_000))
    }

    #[test]
    fn cluster_matches_oracle_replication_1() {
        let mut cfg = ClusterConfig::new(4, JobSpec::new("wc", 6, 3));
        cfg.replication = 1;
        let [maps, reduces] = run_checked(&cfg, ["map_execs", "reduce_execs"]);
        assert_eq!((maps, reduces), (6, 3));
    }

    #[test]
    fn cluster_matches_oracle_replication_2() {
        let cfg = ClusterConfig::new(5, JobSpec::new("wc", 4, 2));
        let [maps, reduces, peer, local, fallback] = run_checked(
            &cfg,
            [
                "map_execs",
                "reduce_execs",
                "peer_fetches",
                "local_reads",
                "fallback_fetches",
            ],
        );
        // Replication 2: every task executed (at least) twice.
        assert!(maps >= 8);
        assert!(reduces >= 4);
        // Transfers actually happened over TCP (or locally for holders).
        let moved = peer + local + fallback;
        assert_eq!(moved, 4 * 2 * 2, "4 maps × 2 reduce replicas × 2 reducers");
    }

    #[test]
    fn byzantine_mapper_outvoted() {
        let mut cfg = ClusterConfig::new(5, JobSpec::new("wc", 3, 2));
        cfg.byzantine = vec![0];
        // The oracle check inside is the point: the byzantine worker
        // must not corrupt the output.
        let [retries] = run_checked(&cfg, ["quorum_retries"]);
        assert!(retries > 0, "every map worker 0 ran needed a new replica");
    }

    #[test]
    fn killed_mappers_force_fallback() {
        let mut cfg = ClusterConfig::new(4, JobSpec::new("wc", 3, 2));
        cfg.replication = 1;
        // Wipe every mapper's store after the map phase: every peer
        // attempt fails, and after §III.C's n attempts each reducer
        // falls back to the coordinator.
        cfg.kill_after_map = vec![0, 1, 2, 3];
        let [retries, fallback, peer, local] = run_checked(
            &cfg,
            [
                "fetch_retries",
                "fallback_fetches",
                "peer_fetches",
                "local_reads",
            ],
        );
        assert_eq!(fallback, 3 * 2, "3 maps × 2 reducers, all from the server");
        assert_eq!(retries, PEER_RETRY_LIMIT as u64 * fallback);
        assert_eq!((peer, local), (0, 0));
    }

    /// Two workers, one byzantine: the retry replica of each map can go
    /// to no one, which used to hang the coordinator.
    #[test]
    fn unreachable_quorum_returns_an_error() {
        let (tx, rx) = channel();
        let run = std::thread::spawn(move || {
            let mut cfg = ClusterConfig::new(2, JobSpec::new("wc", 2, 1));
            cfg.byzantine = vec![0];
            let _ = tx.send(run_cluster(Arc::new(WordCount), corpus(), &cfg).err());
        });
        let err = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("run_cluster returns within 30 s");
        run.join().expect("the run thread exits");
        assert!(
            matches!(&err, Some(ClusterError::QuorumUnreachable { wu }) if wu.starts_with("wc_map_")),
            "{err:?}"
        );
    }
}
