//! Reducer-side download logic.
//!
//! Implements the paper's retry-then-fall-back rule: "After n failed
//! attempts, the user resorts to downloading the file from the server.
//! This … guarantees that a job's execution will not be stopped due to
//! transfer failures." (§III.C)

use crate::proto::{encode_request, invalid, read_response, write_all, Request, Response};
use bytes::{Bytes, BytesMut};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Why a single fetch attempt failed.
#[derive(Debug)]
pub enum FetchError {
    /// TCP/framing/integrity error.
    Io(io::Error),
    /// Peer answered NotFound (not serving / timed out / gated).
    NotFound,
    /// Peer answered Busy (connection threshold).
    Busy,
}

impl std::fmt::Display for FetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FetchError::Io(e) => write!(f, "io: {e}"),
            FetchError::NotFound => f.write_str("not found"),
            FetchError::Busy => f.write_str("peer busy"),
        }
    }
}

impl std::error::Error for FetchError {}

impl From<io::Error> for FetchError {
    fn from(e: io::Error) -> Self {
        FetchError::Io(e)
    }
}

/// One GET against one peer.
pub fn fetch_once(addr: SocketAddr, name: &str) -> Result<Bytes, FetchError> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    fetch_on_stream(stream, name)
}

fn fetch_on_stream(mut stream: TcpStream, name: &str) -> Result<Bytes, FetchError> {
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    let mut buf = BytesMut::new();
    encode_request(&Request::Get(name.to_string()), &mut buf);
    write_all(&mut stream, &buf)?;
    match read_response(&mut stream)? {
        Response::Data(d) => Ok(d),
        Response::NotFound => Err(FetchError::NotFound),
        Response::Busy => Err(FetchError::Busy),
        Response::Pong => Err(FetchError::Io(invalid("unexpected PONG"))),
    }
}

/// One-shot plaintext HTTP GET against an operations endpoint (the
/// poll server's `/metrics` and `/dash` routes). Tiny on purpose — a
/// scrape client, not an HTTP library. Returns the body; a non-2xx
/// status surfaces as an error (`NotFound` for 404).
pub fn http_get(addr: SocketAddr, path: &str) -> io::Result<String> {
    use std::io::{Read, Write};
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_nodelay(true)?;
    write!(stream, "GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n")?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| invalid("no header terminator"))?;
    let status = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .ok_or_else(|| invalid("bad status line"))?;
    match status {
        s if s.starts_with('2') => Ok(body.to_string()),
        "404" => Err(io::Error::new(io::ErrorKind::NotFound, "404")),
        s => Err(io::Error::other(format!("http status {s}"))),
    }
}

/// Pause between two peer attempts.
const RETRY_DELAY: Duration = Duration::from_millis(30);

/// Walks `peers` round-robin for `attempts` tries (§III.C's *n*), then
/// the fall-back address. Counts where the bytes came from, and each
/// failed peer attempt, as `rtnet.{peer_fetches, fallback_fetches,
/// fetch_retries}` in `obs`.
pub fn fetch_with_fallback(
    name: &str,
    peers: &[SocketAddr],
    attempts: u32,
    fallback: Option<SocketAddr>,
    obs: &vmr_obs::Obs,
) -> Result<Bytes, FetchError> {
    let mut last_err: Option<FetchError> = None;
    if !peers.is_empty() {
        for attempt in 0..attempts {
            match fetch_once(peers[attempt as usize % peers.len()], name) {
                Ok(b) => {
                    obs.counter("rtnet.peer_fetches").inc();
                    return Ok(b);
                }
                Err(e) => {
                    last_err = Some(e);
                    obs.counter("rtnet.fetch_retries").inc();
                    std::thread::sleep(RETRY_DELAY);
                }
            }
        }
    }
    if let Some(addr) = fallback {
        match fetch_once(addr, name) {
            Ok(b) => {
                obs.counter("rtnet.fallback_fetches").inc();
                return Ok(b);
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or(FetchError::NotFound))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pollserver::{PollServer, PollServerConfig};
    use crate::store::OutputStore;
    use std::sync::Arc;
    use vmr_obs::Obs;

    fn dead_addr() -> SocketAddr {
        // Bind-then-drop: nothing listens here afterwards.
        let l = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        l.local_addr().unwrap()
    }

    fn server_with(name: &str, data: &[u8]) -> PollServer {
        let store = Arc::new(OutputStore::new());
        store.put(name, Bytes::copy_from_slice(data));
        PollServer::start(store, PollServerConfig::new(8)).unwrap()
    }

    /// Fetches `f` from `peers` with `fallback`; returns the bytes and
    /// the `[peer_fetches, fallback_fetches, fetch_retries]` counts.
    fn fetch(peers: &[SocketAddr], fallback: Option<SocketAddr>) -> (Bytes, [u64; 3]) {
        let obs = Obs::new();
        let data = fetch_with_fallback("f", peers, 3, fallback, &obs).unwrap();
        let snap = obs.snapshot();
        let counts = ["peer_fetches", "fallback_fetches", "fetch_retries"]
            .map(|k| snap.counter(&format!("rtnet.{k}")));
        (data, counts)
    }

    #[test]
    fn falls_back_to_server_after_peer_failures() {
        let fallback = server_with("f", b"from-server");
        let (data, counts) = fetch(&[dead_addr()], Some(fallback.addr()));
        assert_eq!(&data[..], b"from-server");
        assert_eq!(counts, [0, 1, 3]);
        fallback.shutdown();
    }

    #[test]
    fn prefers_peer_when_alive() {
        let peer = server_with("f", b"from-peer");
        let fallback = server_with("f", b"from-server");
        let (data, counts) = fetch(&[peer.addr()], Some(fallback.addr()));
        assert_eq!(&data[..], b"from-peer");
        assert_eq!(counts, [1, 0, 0]);
        peer.shutdown();
        fallback.shutdown();
    }

    #[test]
    fn second_peer_used_when_first_dead() {
        let peer2 = server_with("f", b"replica");
        let (data, counts) = fetch(&[dead_addr(), peer2.addr()], None);
        assert_eq!(&data[..], b"replica");
        assert_eq!(counts, [1, 0, 1]);
        peer2.shutdown();
    }

    #[test]
    fn total_failure_reports_error() {
        let err = fetch_with_fallback("f", &[dead_addr()], 2, None, &Obs::detached());
        assert!(err.is_err());
    }
}
