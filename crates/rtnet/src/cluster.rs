//! A real pull-model MapReduce cluster on loopback TCP.
//!
//! Every element of BOINC-MR's §III design is exercised for real here,
//! not simulated: volunteers *pull* assignments from the coordinator
//! (communication is always worker-initiated), map outputs are
//! partitioned and served from per-volunteer TCP servers, reducers
//! download their slices from the mappers (with retry and server
//! fall-back), outputs are validated by replication + quorum over
//! SHA-256 fingerprints, and byzantine workers are outvoted.
//!
//! The coordinator plays the BOINC project server: it holds the input
//! chunks, the JobTracker state, and the fall-back copies of map
//! outputs ("this requires map outputs to be always returned to the
//! server").

use crate::fetch::{fetch_with_fallback_obs, FetchObs, FetchPolicy};
use crate::pollserver::{PollServer, PollServerConfig};
use crate::store::OutputStore;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;
use vmr_mapreduce::{
    decode_partition, run_map_task, run_reduce_task, sha256, split_input, HashPartitioner, JobSpec,
    MapReduceApp,
};

/// Cluster parameters.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Volunteer worker threads.
    pub n_workers: usize,
    /// Job geometry.
    pub job: JobSpec,
    /// Replicas per task (1 = no validation; 2 = the paper's setup).
    pub replication: u32,
    /// Mapper-side concurrent serving threshold.
    pub max_serving_connections: usize,
    /// Download retry/fall-back policy.
    pub fetch: FetchPolicy,
    /// Workers whose outputs are corrupted (byzantine injection).
    pub byzantine: Vec<usize>,
    /// Workers whose peer servers are killed right after the map phase
    /// (forces the reducer fall-back path).
    pub kill_after_map: Vec<usize>,
    /// Whether mappers also push outputs to the coordinator (the
    /// fall-back copy). Must be true if `kill_after_map` is non-empty.
    pub map_outputs_to_server: bool,
}

impl ClusterConfig {
    /// A sane default: `n_workers` volunteers, replication 2.
    pub fn new(n_workers: usize, job: JobSpec) -> Self {
        ClusterConfig {
            n_workers,
            job,
            replication: 2,
            max_serving_connections: 6,
            fetch: FetchPolicy::default(),
            byzantine: Vec::new(),
            kill_after_map: Vec::new(),
            map_outputs_to_server: true,
        }
    }
}

/// Outcome of a cluster run. Its transfer and validation counts are
/// in the registry [`run_cluster_with_obs`] records into.
pub struct ClusterReport<A: MapReduceApp> {
    /// Merged final output (all reduce partitions).
    pub output: BTreeMap<A::K, A::V>,
}

enum Assignment {
    Map {
        m: usize,
        range: std::ops::Range<usize>,
    },
    Reduce {
        r: usize,
        holders: Vec<Vec<SocketAddr>>,
    },
    Wait,
    Done,
}

enum ToCoord<A: MapReduceApp> {
    Register {
        worker: usize,
        addr: SocketAddr,
    },
    Request {
        worker: usize,
    },
    MapDone {
        worker: usize,
        m: usize,
        hashes: Vec<[u8; 32]>,
    },
    ReduceDone {
        worker: usize,
        r: usize,
        hash: [u8; 32],
        out: BTreeMap<A::K, A::V>,
    },
}

struct TaskTable {
    /// Per task: workers assigned so far.
    assigned: Vec<Vec<usize>>,
    /// Per task: `(worker, fingerprint)` of completed replicas.
    reported: Vec<Vec<(usize, [u8; 32])>>,
    /// Per task: validated holder workers (agreeing replicas).
    holders: Vec<Vec<usize>>,
    replication: u32,
}

impl TaskTable {
    fn new(n: usize, replication: u32) -> Self {
        TaskTable {
            assigned: vec![Vec::new(); n],
            reported: vec![Vec::new(); n],
            holders: vec![Vec::new(); n],
            replication,
        }
    }

    /// Picks a task needing another replica that `worker` has not run.
    fn pick(&mut self, worker: usize) -> Option<usize> {
        for t in 0..self.assigned.len() {
            if !self.holders[t].is_empty() {
                continue;
            }
            let outstanding = self.assigned[t].len() - self.reported[t].len();
            let needed = self.needed(t);
            if outstanding < needed && !self.assigned[t].contains(&worker) {
                self.assigned[t].push(worker);
                return Some(t);
            }
        }
        None
    }

    /// Replicas still required to possibly reach quorum.
    fn needed(&self, t: usize) -> usize {
        let q = self.replication as usize;
        let best_group = self.reported[t]
            .iter()
            .map(|(_, h)| self.reported[t].iter().filter(|(_, g)| g == h).count())
            .max()
            .unwrap_or(0);
        q.saturating_sub(best_group)
    }

    /// Records a completion; returns the holders if quorum was reached.
    fn report(&mut self, t: usize, worker: usize, hash: [u8; 32]) -> Option<Vec<usize>> {
        self.reported[t].push((worker, hash));
        let group: Vec<usize> = self.reported[t]
            .iter()
            .filter(|(_, h)| *h == hash)
            .map(|(w, _)| *w)
            .collect();
        if group.len() >= self.replication as usize {
            self.holders[t] = group.clone();
            Some(group)
        } else {
            None
        }
    }

    fn all_valid(&self) -> bool {
        self.holders.iter().all(|h| !h.is_empty())
    }
}

/// Runs a full MapReduce job on a real loopback TCP cluster.
///
/// # Panics
/// On unrecoverable protocol errors (worker thread panics) or if quorum
/// becomes impossible (more byzantine workers than honest ones).
pub fn run_cluster<A>(app: Arc<A>, data: Arc<Vec<u8>>, cfg: &ClusterConfig) -> ClusterReport<A>
where
    A: MapReduceApp<K = String> + 'static,
{
    run_cluster_with_obs(app, data, cfg, &vmr_obs::Obs::detached())
}

/// [`run_cluster`] recording transfer counters and serving timings into
/// a shared observability bundle (the peer servers, the coordinator's
/// data server and the reducer fetch path all report into it):
/// `rtnet.{map_execs, reduce_execs, quorum_retries}` from the
/// coordinator, `rtnet.{local_reads, peer_fetches, fallback_fetches}`
/// per reduce input.
pub fn run_cluster_with_obs<A>(
    app: Arc<A>,
    data: Arc<Vec<u8>>,
    cfg: &ClusterConfig,
    obs: &vmr_obs::Obs,
) -> ClusterReport<A>
where
    A: MapReduceApp<K = String> + 'static,
{
    assert!(
        cfg.n_workers as u32 >= cfg.replication,
        "not enough workers"
    );
    if !cfg.kill_after_map.is_empty() {
        assert!(cfg.map_outputs_to_server, "fall-back needs server copies");
    }
    let ranges = split_input(app.as_ref(), &data, cfg.job.n_maps);
    let cobs = ClusterObs::attach(obs);

    // The coordinator's fall-back store + server (the "data server").
    let server_store = Arc::new(OutputStore::new());
    let server = PollServer::start_with_obs(server_store.clone(), PollServerConfig::new(64), obs)
        .expect("server start");
    let server_addr = server.addr();

    let (to_coord_tx, to_coord_rx): (Sender<ToCoord<A>>, Receiver<ToCoord<A>>) = unbounded();
    let mut reply_txs = Vec::new();
    let mut workers = Vec::new();
    for w in 0..cfg.n_workers {
        let (reply_tx, reply_rx) = unbounded::<Assignment>();
        reply_txs.push(reply_tx);
        let ctx = WorkerCtx {
            id: w,
            app: app.clone(),
            data: data.clone(),
            job: cfg.job.clone(),
            to_coord: to_coord_tx.clone(),
            reply: reply_rx,
            fetch: cfg.fetch,
            byzantine: cfg.byzantine.contains(&w),
            server_addr,
            server_store: cfg.map_outputs_to_server.then(|| server_store.clone()),
            max_serving: cfg.max_serving_connections,
            obs: obs.clone(),
            cobs: cobs.clone(),
        };
        workers.push(std::thread::spawn(move || worker_main(ctx)));
    }
    drop(to_coord_tx);

    let output = coordinator(cfg, &ranges, to_coord_rx, &reply_txs, &cobs);

    for w in workers {
        w.join().expect("worker panicked");
    }
    server.shutdown();
    ClusterReport { output }
}

/// The pull-model coordinator loop (the "project server").
fn coordinator<A: MapReduceApp<K = String>>(
    cfg: &ClusterConfig,
    ranges: &[std::ops::Range<usize>],
    rx: Receiver<ToCoord<A>>,
    replies: &[Sender<Assignment>],
    cobs: &ClusterObs,
) -> BTreeMap<A::K, A::V> {
    let n_maps = cfg.job.n_maps;
    let n_reduces = cfg.job.n_reduces;
    let mut maps = TaskTable::new(n_maps, cfg.replication);
    let mut reduces = TaskTable::new(n_reduces, cfg.replication);
    // Mapper serving addresses, reported with MapDone.
    let mut worker_addrs: Vec<Option<SocketAddr>> = vec![None; cfg.n_workers];
    let mut reduce_outputs: Vec<Option<BTreeMap<A::K, A::V>>> = vec![None; n_reduces];
    let mut killed: Vec<usize> = Vec::new();

    while !(maps.all_valid() && reduces.all_valid()) {
        let msg = rx.recv().expect("all workers died");
        match msg {
            ToCoord::Register { worker, addr } => {
                worker_addrs[worker] = Some(addr);
            }
            ToCoord::Request { worker } => {
                let assignment = if !maps.all_valid() {
                    match maps.pick(worker) {
                        Some(m) => Assignment::Map {
                            m,
                            range: ranges[m].clone(),
                        },
                        None => Assignment::Wait,
                    }
                } else {
                    match reduces.pick(worker) {
                        Some(r) => {
                            // "the scheduler appends to each reduce
                            // result the address (IP and port) of
                            // mappers holding output for the same job"
                            let holders: Vec<Vec<SocketAddr>> = (0..n_maps)
                                .map(|m| {
                                    maps.holders[m]
                                        .iter()
                                        .filter(|w| !killed.contains(w))
                                        .filter_map(|&w| worker_addrs[w])
                                        .collect()
                                })
                                .collect();
                            Assignment::Reduce { r, holders }
                        }
                        None => Assignment::Wait,
                    }
                };
                let _ = replies[worker].send(assignment);
            }
            ToCoord::MapDone { worker, m, hashes } => {
                cobs.map_execs.inc();
                // Fingerprint of the whole partition vector.
                let mut concat = Vec::with_capacity(hashes.len() * 32);
                for h in &hashes {
                    concat.extend_from_slice(h);
                }
                let fp = sha256(&concat);
                let before = maps.holders[m].is_empty();
                if maps.report(m, worker, fp).is_some() && before {
                    // Quorum reached. If this completes the map phase,
                    // simulate the §III.C fault injection: kill the
                    // chosen mappers' servers.
                    if maps.all_valid() {
                        for &k in &cfg.kill_after_map {
                            killed.push(k);
                        }
                    }
                } else if maps.holders[m].is_empty() && maps.needed(m) > 0 {
                    cobs.quorum_retries.inc();
                }
            }
            ToCoord::ReduceDone {
                worker,
                r,
                hash,
                out,
            } => {
                cobs.reduce_execs.inc();
                let newly = reduces.report(r, worker, hash);
                if newly.is_some() && reduce_outputs[r].is_none() {
                    reduce_outputs[r] = Some(out);
                }
            }
        }
    }

    // Tell every worker to exit (answer pending + future requests).
    for tx in replies {
        let _ = tx.send(Assignment::Done);
    }
    // Drain remaining messages so senders never block (unbounded: no-op)
    // and merge the reduce outputs.
    let mut merged = BTreeMap::new();
    for out in reduce_outputs.into_iter().flatten() {
        merged.extend(out);
    }
    merged
}

/// The coordinator's and the reducers' `rtnet.*` counters.
#[derive(Clone)]
struct ClusterObs {
    local_reads: vmr_obs::Counter,
    map_execs: vmr_obs::Counter,
    reduce_execs: vmr_obs::Counter,
    quorum_retries: vmr_obs::Counter,
    fetch: FetchObs,
}

impl ClusterObs {
    fn attach(obs: &vmr_obs::Obs) -> Self {
        ClusterObs {
            local_reads: obs.counter("rtnet.local_reads"),
            map_execs: obs.counter("rtnet.map_execs"),
            reduce_execs: obs.counter("rtnet.reduce_execs"),
            quorum_retries: obs.counter("rtnet.quorum_retries"),
            fetch: FetchObs::attach(obs),
        }
    }
}

struct WorkerCtx<A: MapReduceApp> {
    id: usize,
    app: Arc<A>,
    data: Arc<Vec<u8>>,
    job: JobSpec,
    to_coord: Sender<ToCoord<A>>,
    reply: Receiver<Assignment>,
    fetch: FetchPolicy,
    byzantine: bool,
    server_addr: SocketAddr,
    server_store: Option<Arc<OutputStore>>,
    max_serving: usize,
    obs: vmr_obs::Obs,
    cobs: ClusterObs,
}

fn worker_main<A: MapReduceApp<K = String>>(ctx: WorkerCtx<A>) {
    // Each volunteer runs its own serving endpoint.
    let store = Arc::new(OutputStore::new());
    let server = PollServer::start_with_obs(
        store.clone(),
        PollServerConfig::new(ctx.max_serving),
        &ctx.obs,
    )
    .expect("peer server");
    // "Communication always starts from the client": the volunteer
    // announces its serving endpoint in its first message.
    let _ = ctx.to_coord.send(ToCoord::Register {
        worker: ctx.id,
        addr: server.addr(),
    });
    let part = HashPartitioner::new(ctx.job.n_reduces);
    // Pull loop with a small client-side backoff on Wait.
    let mut wait = Duration::from_millis(1);
    loop {
        if ctx
            .to_coord
            .send(ToCoord::Request { worker: ctx.id })
            .is_err()
        {
            break;
        }
        match ctx.reply.recv() {
            Ok(Assignment::Map { m, range }) => {
                wait = Duration::from_millis(1);
                let chunk = &ctx.data[range];
                let mo = run_map_task(ctx.app.as_ref(), chunk, &part, |k| k.as_bytes().to_vec());
                let mut hashes = Vec::with_capacity(ctx.job.n_reduces);
                for r in 0..ctx.job.n_reduces {
                    let mut text = mo.encode_partition(ctx.app.as_ref(), r).into_bytes();
                    if ctx.byzantine {
                        // Corrupt the payload — quorum must catch this.
                        text.extend_from_slice(b"corrupted-by-byzantine-worker\n");
                    }
                    let name = ctx.job.partition_file(m, r);
                    let data = Bytes::from(text);
                    store.put(&name, data.clone());
                    // The hash MapDone reports is the digest this file
                    // is served under (§III.C): computed once, here,
                    // and cached for every peer that fetches it.
                    let (_, digest) = store
                        .get_with_digest(&name)
                        .expect("a file put without a window is served");
                    hashes.push(digest);
                    if let Some(srv) = &ctx.server_store {
                        // "map outputs … always returned to the server"
                        // (fall-back copies). First honest copy wins.
                        if !ctx.byzantine && srv.get(&name).is_none() {
                            srv.put(&name, data);
                        }
                    }
                }
                let _ = ctx.to_coord.send(ToCoord::MapDone {
                    worker: ctx.id,
                    m,
                    hashes,
                });
            }
            Ok(Assignment::Reduce { r, holders }) => {
                wait = Duration::from_millis(1);
                let my_addr = server.addr();
                let mut inputs = Vec::with_capacity(ctx.job.n_maps);
                for (m, peer_addrs) in holders.iter().enumerate() {
                    let name = ctx.job.partition_file(m, r);
                    // Holder locality: serve from our own store first.
                    if peer_addrs.contains(&my_addr) {
                        if let Some(local) = store.get(&name) {
                            ctx.cobs.local_reads.inc();
                            let text = String::from_utf8_lossy(&local);
                            inputs.push(decode_partition(ctx.app.as_ref(), &text));
                            continue;
                        }
                    }
                    let (bytes, _) = fetch_with_fallback_obs(
                        &name,
                        peer_addrs,
                        Some(ctx.server_addr),
                        &ctx.fetch,
                        &ctx.cobs.fetch,
                    )
                    .unwrap_or_else(|e| panic!("reduce input {name} unfetchable: {e}"));
                    let text = String::from_utf8_lossy(&bytes);
                    inputs.push(decode_partition(ctx.app.as_ref(), &text));
                }
                let out = run_reduce_task(ctx.app.as_ref(), inputs);
                let mut enc = String::new();
                for (k, v) in &out {
                    ctx.app.encode(k, v, &mut enc);
                }
                let hash = sha256(enc.as_bytes());
                let _ = ctx.to_coord.send(ToCoord::ReduceDone {
                    worker: ctx.id,
                    r,
                    hash,
                    out,
                });
            }
            Ok(Assignment::Wait) => {
                std::thread::sleep(wait);
                // Client-side exponential backoff, like the real thing.
                wait = (wait * 2).min(Duration::from_millis(20));
            }
            Ok(Assignment::Done) | Err(_) => break,
        }
    }
    server.shutdown();
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
        let report = run_cluster_with_obs(Arc::new(WordCount), data.clone(), cfg, &obs);
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
        run_checked(&cfg, []);
    }

    #[test]
    fn killed_mappers_force_fallback() {
        let mut cfg = ClusterConfig::new(4, JobSpec::new("wc", 3, 2));
        cfg.replication = 1;
        // Kill every mapper's server after the map phase: reducers must
        // fall back to the coordinator for everything remote.
        cfg.kill_after_map = vec![0, 1, 2, 3];
        let [fallback] = run_checked(&cfg, ["fallback_fetches"]);
        assert!(
            fallback > 0,
            "some fetches must have used the server fall-back"
        );
    }
}
