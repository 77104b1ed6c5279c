//! The thread-per-connection volunteer file server, kept as the
//! executable spec of [`vmr_rtnet::PollServer`].
//!
//! "We open a TCP \[socket\] for listening to incoming connections
//! whenever a map task has finished and its output(s) is available. We
//! dynamically adapt to the number of files being served, and stop
//! accepting connections when there are no more files available … We
//! kept a threshold for a maximum number of inter-client connections,
//! so as to not overload the network." (§III.C)
//!
//! One request per connection, one thread per connection, every
//! response laid out by the public [`encode_response`] — so a diff
//! against the poll runtime also checks its segment writer against the
//! reference encoder.

use bytes::{Bytes, BytesMut};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vmr_rtnet::proto::{
    encode_request, encode_response, read_request, read_response, write_all, Request, Response,
};
use vmr_rtnet::{fetch_once, FetchError, OutputStore, ServerStats};

/// The request-outcome counters, resolved by name under the same
/// `rtnet.*` keys as the poll runtime's.
struct ServeObs {
    served: vmr_obs::Counter,
    not_found: vmr_obs::Counter,
    busy: vmr_obs::Counter,
    gate_rejections: vmr_obs::Counter,
    serve_scope: vmr_obs::Scope,
}

/// What the accept thread shares with every connection thread.
struct Shared {
    store: Arc<OutputStore>,
    accepting: AtomicBool,
    /// Transfers in flight, bounded by `max_connections`.
    active: AtomicUsize,
    max_connections: usize,
    stats: Arc<ServerStats>,
    obs: ServeObs,
}

/// A serving endpoint for one volunteer's map outputs.
pub struct PeerServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    shared: Arc<Shared>,
    /// Statistics.
    pub stats: Arc<ServerStats>,
    accept_thread: Option<JoinHandle<()>>,
}

impl PeerServer {
    /// Starts a server on an ephemeral loopback port, serving `store`,
    /// with at most `max_connections` concurrent transfers, recording
    /// request counters and serving-thread timings into `obs`.
    pub fn start_with_obs(
        store: Arc<OutputStore>,
        max_connections: usize,
        obs: &vmr_obs::Obs,
    ) -> io::Result<PeerServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let shared = Arc::new(Shared {
            store,
            accepting: AtomicBool::new(true),
            active: AtomicUsize::new(0),
            max_connections,
            stats: stats.clone(),
            obs: ServeObs {
                served: obs.counter("rtnet.served"),
                not_found: obs.counter("rtnet.not_found"),
                busy: obs.counter("rtnet.busy_rejections"),
                gate_rejections: obs.counter("rtnet.gate_rejections"),
                serve_scope: obs.scope("rtnet.serve"),
            },
        });
        let (t_stop, t_shared) = (stop.clone(), shared.clone());
        let accept_thread = std::thread::spawn(move || accept_loop(listener, &t_stop, &t_shared));
        Ok(PeerServer {
            addr,
            stop,
            shared,
            stats,
            accept_thread: Some(accept_thread),
        })
    }

    /// Address peers connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Gate accepting on/off ("stop accepting connections when there
    /// are no more files available for upload").
    pub fn set_accepting(&self, on: bool) {
        self.shared.accepting.store(on, Ordering::SeqCst);
    }

    /// Stops the server and joins the accept thread.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for PeerServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: TcpListener, stop: &AtomicBool, shared: &Arc<Shared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                handlers.retain(|h| !h.is_finished());
                let shared = shared.clone();
                handlers.push(std::thread::spawn(move || handle_conn(stream, &shared)));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
    for h in handlers {
        let _ = h.join();
    }
}

fn handle_conn(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_nodelay(true);
    // One request per connection, like the prototype's simple sockets.
    let Ok(req) = read_request(&mut stream) else {
        return;
    };
    let (stats, obs) = (&shared.stats, &shared.obs);
    let mut buf = BytesMut::new();
    match req {
        Request::Ping => encode_response(&Response::Pong, &mut buf),
        Request::Get(name) => {
            if !shared.accepting.load(Ordering::SeqCst) {
                stats.not_found.fetch_add(1, Ordering::Relaxed);
                obs.not_found.inc();
                obs.gate_rejections.inc();
                encode_response(&Response::NotFound, &mut buf)
            } else if shared.active.fetch_add(1, Ordering::SeqCst) >= shared.max_connections {
                shared.active.fetch_sub(1, Ordering::SeqCst);
                stats.busy_rejections.fetch_add(1, Ordering::Relaxed);
                obs.busy.inc();
                encode_response(&Response::Busy, &mut buf)
            } else {
                let _serve = obs.serve_scope.enter();
                match shared.store.get(&name) {
                    Some(data) => {
                        stats.served.fetch_add(1, Ordering::Relaxed);
                        obs.served.inc();
                        encode_response(&Response::Data(data), &mut buf);
                    }
                    None => {
                        stats.not_found.fetch_add(1, Ordering::Relaxed);
                        obs.not_found.inc();
                        encode_response(&Response::NotFound, &mut buf);
                    }
                }
                let _ = write_all(&mut stream, &buf);
                shared.active.fetch_sub(1, Ordering::SeqCst);
                return;
            }
        }
    }
    let _ = write_all(&mut stream, &buf);
}

fn server_with(files: &[(&str, &[u8])], max_conn: usize) -> PeerServer {
    let store = Arc::new(OutputStore::new());
    for (n, d) in files {
        store.put(*n, Bytes::copy_from_slice(d));
    }
    PeerServer::start_with_obs(store, max_conn, &vmr_obs::Obs::detached()).unwrap()
}

#[test]
fn serves_stored_file() {
    let srv = server_with(&[("part0", b"the data")], 4);
    let got = fetch_once(srv.addr(), "part0").unwrap();
    assert_eq!(&got[..], b"the data");
    assert_eq!(srv.stats.served.load(Ordering::Relaxed), 1);
    srv.shutdown();
}

#[test]
fn unknown_file_is_notfound() {
    let srv = server_with(&[], 4);
    match fetch_once(srv.addr(), "ghost") {
        Err(FetchError::NotFound) => {}
        other => panic!("expected NotFound, got {other:?}"),
    }
    srv.shutdown();
}

#[test]
fn accept_gate_blocks_transfers() {
    let srv = server_with(&[("f", b"x")], 4);
    srv.set_accepting(false);
    match fetch_once(srv.addr(), "f") {
        Err(FetchError::NotFound) => {}
        other => panic!("expected NotFound when gated, got {other:?}"),
    }
    srv.set_accepting(true);
    assert!(fetch_once(srv.addr(), "f").is_ok());
    srv.shutdown();
}

#[test]
fn ping_pong() {
    let srv = server_with(&[], 4);
    let mut stream = TcpStream::connect(srv.addr()).unwrap();
    let mut req = BytesMut::new();
    encode_request(&Request::Ping, &mut req);
    write_all(&mut stream, &req).unwrap();
    assert_eq!(read_response(&mut stream).unwrap(), Response::Pong);
    srv.shutdown();
}

#[test]
fn large_file_roundtrip() {
    let big: Vec<u8> = (0..3_000_000u32).map(|i| (i % 251) as u8).collect();
    let srv = server_with(&[("big", &big)], 4);
    let got = fetch_once(srv.addr(), "big").unwrap();
    assert_eq!(got.len(), big.len());
    assert_eq!(&got[..], &big[..]);
    srv.shutdown();
}

#[test]
fn timed_out_file_not_served() {
    let store = Arc::new(OutputStore::new());
    store.put_with_timeout("f", Bytes::from_static(b"x"), Duration::from_millis(1));
    let srv = PeerServer::start_with_obs(store.clone(), 4, &vmr_obs::Obs::detached()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !matches!(fetch_once(srv.addr(), "f"), Err(FetchError::NotFound)) {
        assert!(Instant::now() < deadline, "serving window never closed");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Reset revives it — the reschedule path of §III.C.
    store.reset_timeout("f", Some(Duration::from_secs(30)));
    assert!(fetch_once(srv.addr(), "f").is_ok());
    srv.shutdown();
}
