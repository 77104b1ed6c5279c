//! The volunteer-side file server.
//!
//! "We open a TCP \[socket\] for listening to incoming connections
//! whenever a map task has finished and its output(s) is available. We
//! dynamically adapt to the number of files being served, and stop
//! accepting connections when there are no more files available … We
//! kept a threshold for a maximum number of inter-client connections,
//! so as to not overload the network." (§III.C)
//!
//! [`PollServer`] implements those serving semantics — the serving
//! switch, the max-inter-client-connection threshold, serving windows,
//! SHA-256-trailed frames — and multiplexes *every* connection on one
//! event loop (BOINC's daemons scale the same way), so neither a
//! volunteer nor the project's fall-back data server is capped at the
//! few hundred peers a thread per connection would allow:
//!
//! * per-connection read/write **state machines** drive the
//!   [`crate::proto`] framing incrementally ([`crate::proto::FrameDecoder`]),
//!   so a peer trickling one byte at a time costs a buffer append, not
//!   a blocked thread;
//! * a **connection pool** with idle-timeout reaping bounds kernel
//!   state held for silent peers;
//! * **backpressure** is explicit: responses queue per connection up to
//!   `WRITE_QUEUE_LIMIT` (8 MiB), and a connection
//!   over its limit is not read from until the queue drains;
//! * a queued `Data` response is a `DataFrame`: its head, the stored
//!   file's body shared with the store, and the store's cached digest,
//!   flushed with vectored writes — no response body is ever copied
//!   into the queue, and no request re-hashes the file;
//! * the §III.C threshold is enforced as post-accept `Busy` replies:
//!   every connection is accepted, and a request beyond
//!   `max_connections` in-flight transfers is told `Busy`;
//! * the loop speaks only the wire protocol: bytes that do not decode
//!   as a request frame close their connection and count as
//!   `rtnet.poll.proto_errors`. What the server measured is read from
//!   the [`vmr_obs::Obs`] it records into.
//!
//! A thread-per-connection server, small enough to audit by eye, is
//! kept in the test tree as the executable spec: the differential suite
//! (`differential_server.rs`) replays identical request schedules
//! against both and demands byte-identical responses and identical
//! counter totals.

use crate::proto::{decode_request, encode_response, DataFrame, FrameDecoder, Request, Response};
use crate::store::OutputStore;
use bytes::BytesMut;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::poll::{fd_of, PollSet};

/// Per-connection response-queue bound in bytes; a connection over the
/// bound is not read from until the queue drains below it.
const WRITE_QUEUE_LIMIT: usize = 8 << 20;
/// Upper bound one loop tick blocks in `poll(2)`.
const POLL_TIMEOUT: Duration = Duration::from_millis(2);
/// Kernel accept backlog hint (raised above std's 128 default so a
/// soak-scale connect storm does not stall on SYN retransmits).
const BACKLOG: i32 = 4096;

/// Tuning knobs of the poll-loop runtime.
#[derive(Clone, Debug)]
pub struct PollServerConfig {
    /// The §III.C max-inter-client-connection threshold: a request
    /// arriving while this many transfers are in flight is answered
    /// `Busy`.
    pub max_connections: usize,
    /// Connections idle longer than this are reaped.
    pub idle_timeout: Duration,
}

impl Default for PollServerConfig {
    fn default() -> Self {
        PollServerConfig {
            max_connections: 64,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

impl PollServerConfig {
    /// Defaults with the given connection threshold.
    pub fn new(max_connections: usize) -> Self {
        PollServerConfig {
            max_connections,
            ..PollServerConfig::default()
        }
    }
}

/// Counters exposed by a running server.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// GET requests answered with data.
    pub served: AtomicU64,
    /// GETs refused: file unknown or outside its serving window.
    pub not_found: AtomicU64,
    /// GETs refused: connection threshold reached.
    pub busy_rejections: AtomicU64,
}

/// Registry handles, resolved once at server start so the per-request
/// cost stays at an atomic add.
struct PollObs {
    served: vmr_obs::Counter,
    not_found: vmr_obs::Counter,
    busy: vmr_obs::Counter,
    gate_rejections: vmr_obs::Counter,
    serve_scope: vmr_obs::Scope,
    accepted: vmr_obs::Counter,
    reaped_idle: vmr_obs::Counter,
    backpressure_stalls: vmr_obs::Counter,
    proto_errors: vmr_obs::Counter,
    active_conns: vmr_obs::Gauge,
    serve_us: vmr_obs::Histo,
}

impl PollObs {
    fn attach(obs: &vmr_obs::Obs) -> Self {
        PollObs {
            served: obs.counter("rtnet.served"),
            not_found: obs.counter("rtnet.not_found"),
            busy: obs.counter("rtnet.busy_rejections"),
            gate_rejections: obs.counter("rtnet.gate_rejections"),
            serve_scope: obs.scope("rtnet.serve"),
            accepted: obs.counter("rtnet.poll.accepted"),
            reaped_idle: obs.counter("rtnet.poll.reaped_idle"),
            backpressure_stalls: obs.counter("rtnet.poll.backpressure_stalls"),
            proto_errors: obs.counter("rtnet.poll.proto_errors"),
            active_conns: obs.gauge("rtnet.poll.active_conns"),
            serve_us: obs.histogram("rtnet.poll.serve_us"),
        }
    }
}

/// A serving endpoint multiplexing every peer on one poll loop.
pub struct PollServer {
    addr: SocketAddr,
    store: Arc<OutputStore>,
    stop: Arc<AtomicBool>,
    accepting: Arc<AtomicBool>,
    open: Arc<AtomicUsize>,
    /// Request counters.
    pub stats: Arc<ServerStats>,
    loop_thread: Option<JoinHandle<()>>,
}

impl PollServer {
    /// Starts the loop on an ephemeral loopback port with a detached
    /// metrics sink.
    pub fn start(store: Arc<OutputStore>, cfg: PollServerConfig) -> io::Result<PollServer> {
        PollServer::start_with_obs(store, cfg, &vmr_obs::Obs::detached())
    }

    /// Like [`PollServer::start`], recording into a shared registry.
    pub fn start_with_obs(
        store: Arc<OutputStore>,
        cfg: PollServerConfig,
        obs: &vmr_obs::Obs,
    ) -> io::Result<PollServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        crate::poll::boost_backlog(&listener, BACKLOG);
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let stop = Arc::new(AtomicBool::new(false));
        let accepting = Arc::new(AtomicBool::new(true));
        let open = Arc::new(AtomicUsize::new(0));
        let stats = Arc::new(ServerStats::default());

        let mut lp = Loop {
            listener,
            store: store.clone(),
            cfg,
            stop: stop.clone(),
            accepting: accepting.clone(),
            open: open.clone(),
            stats: stats.clone(),
            pobs: PollObs::attach(obs),
            conns: Vec::new(),
            free: Vec::new(),
            live: 0,
            serving: 0,
            set: PollSet::new(),
            next_reap: Instant::now(),
        };
        let loop_thread = std::thread::spawn(move || lp.run());

        Ok(PollServer {
            addr,
            store,
            stop,
            accepting,
            open,
            stats,
            loop_thread: Some(loop_thread),
        })
    }

    /// Address peers connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The backing store.
    pub fn store(&self) -> &Arc<OutputStore> {
        &self.store
    }

    /// Gate accepting on/off ("stop accepting connections when there
    /// are no more files available for upload"). Gated `GET`s are
    /// answered `NotFound`.
    pub fn set_accepting(&self, on: bool) {
        self.accepting.store(on, Ordering::SeqCst);
    }

    /// Open peer connections in the pool.
    pub fn open_connections(&self) -> usize {
        self.open.load(Ordering::SeqCst)
    }

    /// Stops the loop and joins it.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.loop_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for PollServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.loop_thread.take() {
            let _ = t.join();
        }
    }
}

/// A queued response's bytes.
enum Wire {
    /// A control frame.
    Owned(Vec<u8>),
    /// A `Data` frame; its body is the stored file's, shared.
    Data(DataFrame),
}

impl Wire {
    /// A control frame (`Pong`, `NotFound`, `Busy`).
    fn control(resp: &Response) -> Wire {
        let mut buf = BytesMut::new();
        encode_response(resp, &mut buf);
        Wire::Owned(buf.into())
    }

    fn len(&self) -> usize {
        match self {
            Wire::Owned(v) => v.len(),
            Wire::Data(d) => d.len(),
        }
    }
}

/// One queued response and its accounting tail.
struct Pending {
    wire: Wire,
    /// Bytes of `wire` already written.
    off: usize,
    /// Armed at request decode for `GET`s past the gates: such a
    /// response counts against the transfer threshold until fully
    /// flushed, and its flush prices the serve latency.
    t0: Option<Instant>,
}

impl Pending {
    /// One write of what is left; advances `off`.
    fn write_to(&mut self, w: &mut impl Write) -> io::Result<usize> {
        let n = match &self.wire {
            Wire::Owned(v) => w.write(&v[self.off..])?,
            Wire::Data(d) => d.write_at(w, self.off)?,
        };
        self.off += n;
        Ok(n)
    }
}

/// A connection's queued responses and their unwritten byte total, the
/// quantity the backpressure bound is checked against.
#[derive(Default)]
struct WriteQueue {
    q: VecDeque<Pending>,
    bytes: usize,
}

impl WriteQueue {
    fn push(&mut self, p: Pending) {
        self.bytes += p.wire.len();
        self.q.push_back(p);
    }

    fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// One write call on the oldest response (the queue must not be
    /// empty). Returns the bytes written — 0 means the peer is gone —
    /// and the response, popped, when that write finished it.
    fn write_front(&mut self, w: &mut impl Write) -> io::Result<(usize, Option<Pending>)> {
        let Some(front) = self.q.front_mut() else {
            return Ok((0, None));
        };
        let n = front.write_to(w)?;
        self.bytes -= n;
        let done = front.off == front.wire.len();
        Ok((n, if done { self.q.pop_front() } else { None }))
    }
}

struct Conn {
    stream: TcpStream,
    dec: FrameDecoder,
    wq: WriteQueue,
    last_activity: Instant,
    close_after_flush: bool,
}

const TOK_LISTENER: u64 = u64::MAX;

struct Loop {
    listener: TcpListener,
    store: Arc<OutputStore>,
    cfg: PollServerConfig,
    stop: Arc<AtomicBool>,
    accepting: Arc<AtomicBool>,
    open: Arc<AtomicUsize>,
    stats: Arc<ServerStats>,
    pobs: PollObs,
    /// Slab of connections; freed slots are recycled via `free`.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Live connections.
    live: usize,
    /// Transfers in flight (queued, unflushed `GET` responses).
    serving: usize,
    set: PollSet,
    next_reap: Instant,
}

impl Loop {
    fn run(&mut self) {
        while !self.stop.load(Ordering::SeqCst) {
            self.tick();
        }
    }

    fn tick(&mut self) {
        self.set.clear();
        self.set
            .register(fd_of(&self.listener), TOK_LISTENER, true, false);
        for (i, slot) in self.conns.iter().enumerate() {
            if let Some(c) = slot {
                let backpressured = c.wq.bytes >= WRITE_QUEUE_LIMIT;
                let readable = !backpressured && !c.close_after_flush;
                let writable = !c.wq.is_empty();
                self.set
                    .register(fd_of(&c.stream), i as u64, readable, writable);
            }
        }

        if self.set.wait(POLL_TIMEOUT).is_err() {
            // EBADF etc. — a reaped fd raced registration; next tick
            // rebuilds the set from live connections only.
            return;
        }

        let ready: Vec<(u64, crate::poll::Readiness)> = self.set.ready().collect();
        for (token, r) in ready {
            match token {
                TOK_LISTENER => self.accept(),
                i => {
                    let i = i as usize;
                    if r.writable || r.closed {
                        self.drive_write(i);
                    }
                    if r.readable || r.closed {
                        self.drive_read(i);
                    }
                }
            }
        }

        let now = Instant::now();
        if now >= self.next_reap {
            self.reap_idle(now);
            self.next_reap = now + self.cfg.idle_timeout.min(Duration::from_millis(100)) / 4;
        }
        self.pobs.active_conns.set(self.live as f64);
    }

    fn insert_conn(&mut self, stream: TcpStream) {
        let conn = Conn {
            stream,
            dec: FrameDecoder::new(),
            wq: WriteQueue::default(),
            last_activity: Instant::now(),
            close_after_flush: false,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.conns[i] = Some(conn);
                i
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        };
        debug_assert!(self.conns[idx].is_some());
        self.live += 1;
        self.open.store(self.live, Ordering::SeqCst);
        self.pobs.accepted.inc();
    }

    fn accept(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    self.insert_conn(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    fn drop_conn(&mut self, i: usize) {
        if let Some(conn) = self.conns[i].take() {
            // Unflushed transfers no longer count against the threshold.
            for p in &conn.wq.q {
                if p.t0.is_some() {
                    self.serving -= 1;
                }
            }
            self.live -= 1;
            self.open.store(self.live, Ordering::SeqCst);
            self.free.push(i);
        }
    }

    /// Reads everything available, drives the framing state machine,
    /// and queues responses until backpressure or exhaustion.
    fn drive_read(&mut self, i: usize) {
        let mut buf = [0u8; 16 << 10];
        loop {
            let Some(conn) = self.conns[i].as_mut() else {
                return;
            };
            if conn.wq.bytes >= WRITE_QUEUE_LIMIT {
                self.pobs.backpressure_stalls.inc();
                return;
            }
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.close_after_flush = true;
                    if conn.wq.is_empty() {
                        self.drop_conn(i);
                    }
                    return;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.dec.push(&buf[..n]);
                    if !self.drain_frames(i) {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    self.drop_conn(i);
                    return;
                }
            }
        }
    }

    /// Decodes and serves buffered frames. Returns false when the
    /// connection died.
    fn drain_frames(&mut self, i: usize) -> bool {
        loop {
            let Some(conn) = self.conns[i].as_mut() else {
                return false;
            };
            if conn.wq.bytes >= WRITE_QUEUE_LIMIT {
                self.pobs.backpressure_stalls.inc();
                return true;
            }
            match conn.dec.next_frame() {
                Ok(Some(frame)) => match decode_request(frame) {
                    Ok(req) => {
                        let pending = self.serve(req);
                        let Some(conn) = self.conns[i].as_mut() else {
                            return false;
                        };
                        if pending.t0.is_some() {
                            self.serving += 1;
                        }
                        conn.wq.push(pending);
                        // Flush opportunistically: in the common
                        // request/response cadence this saves a tick.
                        self.drive_write(i);
                        if self.conns[i].is_none() {
                            return false;
                        }
                    }
                    Err(_) => {
                        self.pobs.proto_errors.inc();
                        self.drop_conn(i);
                        return false;
                    }
                },
                Ok(None) => return true,
                Err(_) => {
                    self.pobs.proto_errors.inc();
                    self.drop_conn(i);
                    return false;
                }
            }
        }
    }

    /// The §III.C serving decision — the same rules, in the same order,
    /// as the threaded spec's in the test tree.
    fn serve(&mut self, req: Request) -> Pending {
        let (wire, t0) = match req {
            Request::Ping => (Wire::control(&Response::Pong), None),
            Request::Get(name) => {
                let t0 = Instant::now();
                if !self.accepting.load(Ordering::SeqCst) {
                    self.stats.not_found.fetch_add(1, Ordering::Relaxed);
                    self.pobs.not_found.inc();
                    self.pobs.gate_rejections.inc();
                    (Wire::control(&Response::NotFound), None)
                } else if self.serving >= self.cfg.max_connections {
                    self.stats.busy_rejections.fetch_add(1, Ordering::Relaxed);
                    self.pobs.busy.inc();
                    (Wire::control(&Response::Busy), None)
                } else {
                    let _serve = self.pobs.serve_scope.enter();
                    let wire = match self.store.get_with_digest(&name) {
                        Some((data, digest)) => {
                            self.stats.served.fetch_add(1, Ordering::Relaxed);
                            self.pobs.served.inc();
                            Wire::Data(DataFrame::new(data, digest))
                        }
                        None => {
                            self.stats.not_found.fetch_add(1, Ordering::Relaxed);
                            self.pobs.not_found.inc();
                            Wire::control(&Response::NotFound)
                        }
                    };
                    (wire, Some(t0))
                }
            }
        };
        Pending { wire, off: 0, t0 }
    }

    /// Flushes the write queue until `WouldBlock` or empty.
    fn drive_write(&mut self, i: usize) {
        loop {
            let Some(conn) = self.conns[i].as_mut() else {
                return;
            };
            if conn.wq.is_empty() {
                if conn.close_after_flush {
                    self.drop_conn(i);
                }
                return;
            }
            match conn.wq.write_front(&mut conn.stream) {
                Ok((0, _)) => {
                    self.drop_conn(i);
                    return;
                }
                Ok((_, done)) => {
                    conn.last_activity = Instant::now();
                    if let Some(t0) = done.and_then(|p| p.t0) {
                        self.serving -= 1;
                        self.pobs.serve_us.record(t0.elapsed().as_micros() as f64);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.drop_conn(i);
                    return;
                }
            }
        }
    }

    fn reap_idle(&mut self, now: Instant) {
        let timeout = self.cfg.idle_timeout;
        for i in 0..self.conns.len() {
            let reap = match &self.conns[i] {
                Some(c) => now.duration_since(c.last_activity) > timeout,
                None => false,
            };
            if reap {
                self.pobs.reaped_idle.inc();
                self.drop_conn(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetch::{fetch_once, FetchError};
    use crate::wait::wait_until;
    use bytes::Bytes;

    fn server_with(files: &[(&str, &[u8])], cfg: PollServerConfig) -> PollServer {
        let store = Arc::new(OutputStore::new());
        for (n, d) in files {
            store.put(*n, Bytes::copy_from_slice(d));
        }
        PollServer::start(store, cfg).unwrap()
    }

    #[test]
    fn serves_stored_file() {
        let srv = server_with(&[("part0", b"the data")], PollServerConfig::new(4));
        let got = fetch_once(srv.addr(), "part0").unwrap();
        assert_eq!(&got[..], b"the data");
        assert_eq!(srv.stats.served.load(Ordering::Relaxed), 1);
        srv.shutdown();
    }

    #[test]
    fn unknown_file_is_notfound_and_gate_blocks() {
        let srv = server_with(&[("f", b"x")], PollServerConfig::new(4));
        assert!(matches!(
            fetch_once(srv.addr(), "ghost"),
            Err(FetchError::NotFound)
        ));
        srv.set_accepting(false);
        assert!(matches!(
            fetch_once(srv.addr(), "f"),
            Err(FetchError::NotFound)
        ));
        srv.set_accepting(true);
        assert!(fetch_once(srv.addr(), "f").is_ok());
        srv.shutdown();
    }

    #[test]
    fn large_file_roundtrip() {
        let big: Vec<u8> = (0..3_000_000u32).map(|i| (i % 251) as u8).collect();
        let srv = server_with(&[("big", &big)], PollServerConfig::new(4));
        let got = fetch_once(srv.addr(), "big").unwrap();
        assert_eq!(&got[..], &big[..]);
        srv.shutdown();
    }

    #[test]
    fn persistent_connection_serves_many_requests() {
        use crate::proto::{encode_request, read_response, write_all};
        let srv = server_with(&[("f", b"payload")], PollServerConfig::new(4));
        let mut stream = TcpStream::connect(srv.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        for _ in 0..5 {
            let mut req = BytesMut::new();
            encode_request(&Request::Get("f".into()), &mut req);
            write_all(&mut stream, &req).unwrap();
            match read_response(&mut stream).unwrap() {
                Response::Data(d) => assert_eq!(&d[..], b"payload"),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(srv.stats.served.load(Ordering::Relaxed), 5);
        srv.shutdown();
    }

    #[test]
    fn threshold_zero_always_busy() {
        let srv = server_with(&[("f", b"x")], PollServerConfig::new(0));
        assert!(matches!(fetch_once(srv.addr(), "f"), Err(FetchError::Busy)));
        assert_eq!(srv.stats.busy_rejections.load(Ordering::Relaxed), 1);
        srv.shutdown();
    }

    #[test]
    fn idle_connections_are_reaped() {
        let cfg = PollServerConfig {
            max_connections: 4,
            idle_timeout: Duration::from_millis(50),
        };
        let srv = server_with(&[], cfg);
        let _conn = TcpStream::connect(srv.addr()).unwrap();
        assert!(wait_until(
            || srv.open_connections() == 1,
            Duration::from_secs(5)
        ));
        assert!(
            wait_until(|| srv.open_connections() == 0, Duration::from_secs(10)),
            "idle connection must be reaped"
        );
        srv.shutdown();
    }

    #[test]
    fn serving_window_enforced() {
        let store = Arc::new(OutputStore::new());
        store.put_with_timeout("f", Bytes::from_static(b"x"), Duration::from_millis(1));
        let srv = PollServer::start(store.clone(), PollServerConfig::new(4)).unwrap();
        assert!(wait_until(
            || matches!(fetch_once(srv.addr(), "f"), Err(FetchError::NotFound)),
            Duration::from_secs(10)
        ));
        store.reset_timeout("f", Some(Duration::from_secs(30)));
        assert!(fetch_once(srv.addr(), "f").is_ok());
        srv.shutdown();
    }

    /// A writer that takes at most `k` bytes per call: across slices
    /// when `vectored`, else from the first non-empty slice only (std's
    /// default `write_vectored`, what a plain `Write` does).
    struct Trickle {
        out: Vec<u8>,
        k: usize,
        vectored: bool,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.k);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
            if !self.vectored {
                return match bufs.iter().find(|b| !b.is_empty()) {
                    Some(b) => self.write(b),
                    None => Ok(0),
                };
            }
            let mut n = 0;
            for b in bufs {
                let take = b.len().min(self.k - n);
                self.out.extend_from_slice(&b[..take]);
                n += take;
            }
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// What `serve` queues for a stored file, drained through writers
    /// that cut it anywhere (head, body, trailer and the frames around
    /// it), is byte for byte the reference encoding, and the queue's
    /// byte count returns to zero.
    #[test]
    fn queued_frames_drain_to_the_reference_encoding() {
        let mut lens = vec![0, 1, 31, 32, 33, 8 << 10, 4 << 20];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..6 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lens.push((x >> 33) as usize % 100_000);
        }
        for len in lens {
            let body: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let body = Bytes::from(body);
            let store = OutputStore::new();
            store.put("f", body.clone());
            let (data, digest) = store.get_with_digest("f").unwrap();
            let mut want = BytesMut::new();
            encode_response(&Response::Pong, &mut want);
            encode_response(&Response::Data(body), &mut want);
            encode_response(&Response::Busy, &mut want);
            for k in [1, 4, 5, 12, 13, 14, 18, 45, 46, 4096, 65_536, 70_000] {
                if len > 1 << 20 && k < 4096 {
                    continue; // a million-call drain proves nothing more
                }
                for vectored in [false, true] {
                    let mut wq = WriteQueue::default();
                    for wire in [
                        Wire::control(&Response::Pong),
                        Wire::Data(DataFrame::new(data.clone(), digest)),
                        Wire::control(&Response::Busy),
                    ] {
                        wq.push(Pending {
                            wire,
                            off: 0,
                            t0: None,
                        });
                    }
                    assert_eq!(wq.bytes, want.len());
                    let mut w = Trickle {
                        out: Vec::new(),
                        k,
                        vectored,
                    };
                    let mut finished = 0;
                    while !wq.is_empty() {
                        let (n, done) = wq.write_front(&mut w).unwrap();
                        assert!(n > 0 && n <= k, "wrote {n} with k = {k}");
                        finished += usize::from(done.is_some());
                        assert_eq!(wq.bytes, want.len() - w.out.len());
                    }
                    assert_eq!(finished, 3);
                    assert_eq!(wq.bytes, 0, "len {len}, k {k}, vectored {vectored}");
                    assert!(w.out == want[..], "len {len}, k {k}, vectored {vectored}");
                }
            }
        }
    }

    /// Bytes that are not a request frame close their connection, each
    /// counted once as a protocol error, and the loop goes on serving:
    /// a stale scraper's `GET /metrics` line (its prefix "GET " reads as
    /// a length past `MAX_FRAME`), a well-sized frame with request tag 9,
    /// and a zero length prefix.
    #[test]
    fn hostile_bytes_close_their_connection_and_count() {
        let obs = vmr_obs::Obs::new();
        let store = Arc::new(OutputStore::new());
        store.put("f", Bytes::from_static(b"still served"));
        let srv = PollServer::start_with_obs(store, PollServerConfig::new(4), &obs).unwrap();
        let errors = || obs.snapshot().counter("rtnet.poll.proto_errors");
        assert!(u32::from_be_bytes(*b"GET ") as usize > crate::proto::MAX_FRAME);
        let hostile: [&[u8]; 3] = [
            b"GET /metrics HTTP/1.0\r\n\r\n",
            &[0, 0, 0, 4, 9, 0, 1, b'f'],
            &[0, 0, 0, 0],
        ];
        for bytes in hostile {
            let mut s = TcpStream::connect(srv.addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s.write_all(bytes).unwrap();
            // No reply: the server closes (EOF, or a reset when it
            // closed over bytes it had not read yet).
            let mut reply = Vec::new();
            match s.read_to_end(&mut reply) {
                Ok(_) => assert!(reply.is_empty(), "answered {reply:?}"),
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::ConnectionReset),
            }
        }
        assert!(wait_until(
            || srv.open_connections() == 0,
            Duration::from_secs(10)
        ));
        assert_eq!(&fetch_once(srv.addr(), "f").unwrap()[..], b"still served");
        assert_eq!(errors(), 3);
        assert_eq!(srv.stats.served.load(Ordering::Relaxed), 1);
        srv.shutdown();
    }

    /// A file re-put under the same name is served under its own digest
    /// (`fetch_once` verifies the trailer, so A's would fail B's body).
    #[test]
    fn a_re_put_file_is_served_under_its_own_digest() {
        let store = Arc::new(OutputStore::new());
        store.put("f", Bytes::from_static(b"version A"));
        let srv = PollServer::start(store.clone(), PollServerConfig::new(4)).unwrap();
        assert_eq!(&fetch_once(srv.addr(), "f").unwrap()[..], b"version A");
        store.put("f", Bytes::from_static(b"version B"));
        assert_eq!(&fetch_once(srv.addr(), "f").unwrap()[..], b"version B");
        store.put("f", Bytes::from_static(b"version A"));
        assert_eq!(&fetch_once(srv.addr(), "f").unwrap()[..], b"version A");
        srv.shutdown();
    }
}
