//! The volunteer-side file server.
//!
//! "We open a TCP \[socket\] for listening to incoming connections
//! whenever a map task has finished and its output(s) is available. We
//! dynamically adapt to the number of files being served, and stop
//! accepting connections when there are no more files available … We
//! kept a threshold for a maximum number of inter-client connections,
//! so as to not overload the network." (§III.C)
//!
//! This server is the executable spec the poll runtime is diffed
//! against, and it serves `Data` the one way there is: a
//! `DataFrame` over the store's cached digest, written in segments.

use crate::proto::{encode_response, read_request, write_all, DataFrame, Request, Response};
use crate::store::OutputStore;
use bytes::BytesMut;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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

/// Registry handles every serving thread bumps; resolved once at
/// server start so the per-request cost stays at an atomic add.
/// Shared with [`crate::pollserver::PollServer`] so both runtimes
/// report under the same `rtnet.*` keys.
#[derive(Clone)]
pub(crate) struct ServeObs {
    pub(crate) served: vmr_obs::Counter,
    pub(crate) not_found: vmr_obs::Counter,
    pub(crate) busy: vmr_obs::Counter,
    pub(crate) gate_rejections: vmr_obs::Counter,
    pub(crate) serve_scope: vmr_obs::Scope,
}

impl ServeObs {
    pub(crate) fn attach(obs: &vmr_obs::Obs) -> Self {
        ServeObs {
            served: obs.counter("rtnet.served"),
            not_found: obs.counter("rtnet.not_found"),
            busy: obs.counter("rtnet.busy_rejections"),
            gate_rejections: obs.counter("rtnet.gate_rejections"),
            serve_scope: obs.scope("rtnet.serve"),
        }
    }
}

/// A serving endpoint for one volunteer's map outputs.
pub struct PeerServer {
    addr: SocketAddr,
    store: Arc<OutputStore>,
    stop: Arc<AtomicBool>,
    accepting: Arc<AtomicBool>,
    /// Live connection count (shared with handler threads).
    active: Arc<AtomicUsize>,
    /// Statistics.
    pub stats: Arc<ServerStats>,
    accept_thread: Option<JoinHandle<()>>,
}

impl PeerServer {
    /// Starts a server on an ephemeral loopback port, serving `store`,
    /// with at most `max_connections` concurrent transfers. Metrics go
    /// to a detached sink; use [`PeerServer::start_with_obs`] to share
    /// a live registry.
    pub fn start(store: Arc<OutputStore>, max_connections: usize) -> io::Result<PeerServer> {
        PeerServer::start_with_obs(store, max_connections, &vmr_obs::Obs::detached())
    }

    /// Like [`PeerServer::start`], recording request counters and
    /// serving-thread timings into `obs`.
    pub fn start_with_obs(
        store: Arc<OutputStore>,
        max_connections: usize,
        obs: &vmr_obs::Obs,
    ) -> io::Result<PeerServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accepting = Arc::new(AtomicBool::new(true));
        let active = Arc::new(AtomicUsize::new(0));
        let stats = Arc::new(ServerStats::default());
        let sobs = ServeObs::attach(obs);

        let t_stop = stop.clone();
        let t_accepting = accepting.clone();
        let t_active = active.clone();
        let t_stats = stats.clone();
        let t_store = store.clone();
        let accept_thread = std::thread::spawn(move || {
            accept_loop(
                listener,
                t_store,
                t_stop,
                t_accepting,
                t_active,
                t_stats,
                sobs,
                max_connections,
            );
        });

        Ok(PeerServer {
            addr,
            store,
            stop,
            accepting,
            active,
            stats,
            accept_thread: Some(accept_thread),
        })
    }

    /// Address peers connect to (reported to the JobTracker as the
    /// mapper's "IP and port").
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The backing store.
    pub fn store(&self) -> &Arc<OutputStore> {
        &self.store
    }

    /// Gate accepting on/off ("stop accepting connections when there
    /// are no more files available for upload").
    pub fn set_accepting(&self, on: bool) {
        self.accepting.store(on, Ordering::SeqCst);
    }

    /// Currently active transfer count.
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Stops the server and joins the accept thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
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

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: TcpListener,
    store: Arc<OutputStore>,
    stop: Arc<AtomicBool>,
    accepting: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    stats: Arc<ServerStats>,
    sobs: ServeObs,
    max_connections: usize,
) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                handlers.retain(|h| !h.is_finished());
                let store = store.clone();
                let active = active.clone();
                let stats = stats.clone();
                let accepting = accepting.clone();
                let sobs = sobs.clone();
                let h = std::thread::spawn(move || {
                    handle_conn(
                        stream,
                        store,
                        active,
                        stats,
                        accepting,
                        sobs,
                        max_connections,
                    );
                });
                handlers.push(h);
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

#[allow(clippy::too_many_arguments)]
fn handle_conn(
    mut stream: TcpStream,
    store: Arc<OutputStore>,
    active: Arc<AtomicUsize>,
    stats: Arc<ServerStats>,
    accepting: Arc<AtomicBool>,
    sobs: ServeObs,
    max_connections: usize,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_nodelay(true);
    // One request per connection, like the prototype's simple sockets.
    let req = match read_request(&mut stream) {
        Ok(r) => r,
        Err(_) => return,
    };
    let mut buf = BytesMut::new();
    match req {
        Request::Ping => encode_response(&Response::Pong, &mut buf),
        Request::Get(name) => {
            if !accepting.load(Ordering::SeqCst) {
                stats.not_found.fetch_add(1, Ordering::Relaxed);
                sobs.not_found.inc();
                sobs.gate_rejections.inc();
                encode_response(&Response::NotFound, &mut buf)
            } else if active.fetch_add(1, Ordering::SeqCst) >= max_connections {
                active.fetch_sub(1, Ordering::SeqCst);
                stats.busy_rejections.fetch_add(1, Ordering::Relaxed);
                sobs.busy.inc();
                encode_response(&Response::Busy, &mut buf)
            } else {
                let _serve = sobs.serve_scope.enter();
                match store.get_with_digest(&name) {
                    Some((data, digest)) => {
                        stats.served.fetch_add(1, Ordering::Relaxed);
                        sobs.served.inc();
                        let _ = DataFrame::new(data, digest).write_all(&mut stream);
                    }
                    None => {
                        stats.not_found.fetch_add(1, Ordering::Relaxed);
                        sobs.not_found.inc();
                        encode_response(&Response::NotFound, &mut buf);
                        let _ = write_all(&mut stream, &buf);
                    }
                }
                active.fetch_sub(1, Ordering::SeqCst);
                return;
            }
        }
    }
    let _ = write_all(&mut stream, &buf);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetch::{fetch_once, FetchError};
    use bytes::Bytes;

    fn server_with(files: &[(&str, &[u8])], max_conn: usize) -> PeerServer {
        let store = Arc::new(OutputStore::new());
        for (n, d) in files {
            store.put(*n, Bytes::copy_from_slice(d));
        }
        PeerServer::start(store, max_conn).unwrap()
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
        let mut buf = BytesMut::new();
        encode_response(&Response::Pong, &mut buf); // warm the encoder path
        let mut req = BytesMut::new();
        crate::proto::encode_request(&Request::Ping, &mut req);
        write_all(&mut stream, &req).unwrap();
        let resp = crate::proto::read_response(&mut stream).unwrap();
        assert_eq!(resp, Response::Pong);
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
        let srv = PeerServer::start(store.clone(), 4).unwrap();
        assert!(crate::wait::wait_until(
            || matches!(fetch_once(srv.addr(), "f"), Err(FetchError::NotFound)),
            Duration::from_secs(10)
        ));
        // Reset revives it — the reschedule path of §III.C.
        store.reset_timeout("f", Some(Duration::from_secs(30)));
        assert!(fetch_once(srv.addr(), "f").is_ok());
        srv.shutdown();
    }
}
