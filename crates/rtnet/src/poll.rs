//! Minimal readiness polling — the vendored stub-level `mio`
//! equivalent the event loop multiplexes on.
//!
//! One [`PollSet`] call replaces thousands of speculative nonblocking
//! `read`/`write` attempts: the caller registers every file descriptor
//! it owns with an interest mask, blocks in a single `poll(2)` syscall,
//! and walks the ready subset. The set is rebuilt every tick (a plain
//! `Vec` refill — ~80 ns/fd), which keeps registration state out of the
//! kernel and makes dropping a connection free.
//!
//! On targets without a usable `poll(2)` ABI the degraded fallback
//! reports every registered descriptor ready after a short sleep;
//! correctness is preserved because every caller uses nonblocking
//! sockets and treats `WouldBlock` as "not actually ready".

use std::io;
use std::time::Duration;

/// Raw file descriptor alias (kept local so the module compiles even
/// where `std::os::unix` is absent).
pub type Fd = i32;

/// What a descriptor is ready for, as reported by one [`PollSet::wait`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Readiness {
    /// Data (or an incoming connection, for listeners) can be read.
    pub readable: bool,
    /// The socket's send buffer has room.
    pub writable: bool,
    /// Hangup / error / invalid descriptor: the owner should be dropped.
    pub closed: bool,
}

#[repr(C)]
#[derive(Clone, Copy)]
struct RawPollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

#[cfg(all(unix, target_pointer_width = "64"))]
extern "C" {
    // `nfds_t` is `unsigned long` (= u64 on every 64-bit unix we build
    // for). libc is linked into every Rust binary, so the symbol is
    // always available without a libc crate dependency.
    fn poll(fds: *mut RawPollFd, nfds: u64, timeout: i32) -> i32;
    fn listen(sockfd: i32, backlog: i32) -> i32;
}

/// A rebuilt-per-tick interest set over raw file descriptors.
///
/// ```
/// # use vmr_rtnet::poll::PollSet;
/// # fn main() -> std::io::Result<()> {
/// let mut set = PollSet::new();
/// set.clear();
/// // set.register(fd, token, readable, writable) for every conn…
/// let _n = set.wait(std::time::Duration::from_millis(5))?;
/// for (_token, r) in set.ready() {
///     // drive the matching connection's state machine
///     let _ = r.readable;
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct PollSet {
    fds: Vec<RawPollFd>,
    tokens: Vec<u64>,
}

impl PollSet {
    /// An empty set.
    pub fn new() -> Self {
        PollSet::default()
    }

    /// Drops every registration (capacity is kept for the next tick).
    pub fn clear(&mut self) {
        self.fds.clear();
        self.tokens.clear();
    }

    /// Registers `fd` under a caller-chosen `token` with the given
    /// interest mask. A registration with neither interest still
    /// reports hangups/errors.
    pub fn register(&mut self, fd: Fd, token: u64, readable: bool, writable: bool) {
        let mut events = 0i16;
        if readable {
            events |= POLLIN;
        }
        if writable {
            events |= POLLOUT;
        }
        self.fds.push(RawPollFd {
            fd,
            events,
            revents: 0,
        });
        self.tokens.push(token);
    }

    /// Number of registered descriptors.
    pub fn len(&self) -> usize {
        self.fds.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty()
    }

    /// Blocks until at least one descriptor is ready or `timeout`
    /// elapses; returns how many are ready.
    #[cfg(all(unix, target_pointer_width = "64"))]
    pub fn wait(&mut self, timeout: Duration) -> io::Result<usize> {
        if self.fds.is_empty() {
            std::thread::sleep(timeout);
            return Ok(0);
        }
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        loop {
            let rc = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as u64, ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// Degraded fallback: report everything ready after a short sleep
    /// (callers use nonblocking sockets, so spurious readiness is
    /// harmless).
    #[cfg(not(all(unix, target_pointer_width = "64")))]
    pub fn wait(&mut self, timeout: Duration) -> io::Result<usize> {
        std::thread::sleep(timeout.min(Duration::from_millis(1)));
        for f in &mut self.fds {
            f.revents = f.events;
        }
        Ok(self.fds.len())
    }

    /// Iterates `(token, readiness)` for the descriptors the last
    /// [`PollSet::wait`] reported ready.
    pub fn ready(&self) -> impl Iterator<Item = (u64, Readiness)> + '_ {
        self.fds
            .iter()
            .zip(self.tokens.iter())
            .filter(|(f, _)| f.revents != 0)
            .map(|(f, &token)| {
                (
                    token,
                    Readiness {
                        readable: f.revents & POLLIN != 0,
                        writable: f.revents & POLLOUT != 0,
                        closed: f.revents & (POLLERR | POLLHUP | POLLNVAL) != 0,
                    },
                )
            })
    }
}

/// Raises a listening socket's accept backlog beyond std's default 128
/// (re-`listen(2)` on a listening socket updates the backlog on Linux).
/// Best-effort: soak-scale connect storms overflow a 128-slot queue and
/// stall on SYN retransmits otherwise.
#[cfg(all(unix, target_pointer_width = "64"))]
pub fn boost_backlog(listener: &std::net::TcpListener, backlog: i32) {
    use std::os::fd::AsRawFd;
    unsafe {
        let _ = listen(listener.as_raw_fd(), backlog);
    }
}

/// No-op on targets without the raw `listen(2)` ABI.
#[cfg(not(all(unix, target_pointer_width = "64")))]
pub fn boost_backlog(_listener: &std::net::TcpListener, _backlog: i32) {}

/// The raw descriptor of any socket-like object (thin wrapper so the
/// rest of the crate never imports `std::os::fd` directly).
#[cfg(all(unix, target_pointer_width = "64"))]
pub fn fd_of<T: std::os::fd::AsRawFd>(sock: &T) -> Fd {
    sock.as_raw_fd()
}

/// Degraded fallback: a sentinel descriptor (the fallback `wait`
/// ignores descriptors entirely).
#[cfg(not(all(unix, target_pointer_width = "64")))]
pub fn fd_of<T>(_sock: &T) -> Fd {
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn listener_readable_when_connection_pending() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut set = PollSet::new();

        // Nothing pending: a short wait reports no readiness.
        set.clear();
        set.register(fd_of(&listener), 7, true, false);
        set.wait(Duration::from_millis(1)).unwrap();
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert_eq!(set.ready().count(), 0);

        // A pending connection flips POLLIN.
        let _client = TcpStream::connect(addr).unwrap();
        set.clear();
        set.register(fd_of(&listener), 7, true, false);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            set.wait(Duration::from_millis(10)).unwrap();
            if let Some((token, r)) = set.ready().next() {
                assert_eq!(token, 7);
                assert!(r.readable);
                break;
            }
            assert!(std::time::Instant::now() < deadline, "no readiness in 5s");
        }
    }

    #[test]
    fn stream_writable_and_readable() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (mut served, _) = listener.accept().unwrap();

        let mut set = PollSet::new();
        set.clear();
        set.register(fd_of(&client), 1, true, true);
        set.wait(Duration::from_millis(50)).unwrap();
        let r = set.ready().next().expect("fresh socket must be writable").1;
        assert!(r.writable);
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert!(!r.readable, "nothing sent yet");

        served.write_all(b"x").unwrap();
        served.flush().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            set.clear();
            set.register(fd_of(&client), 1, true, false);
            set.wait(Duration::from_millis(10)).unwrap();
            if set.ready().next().map(|(_, r)| r.readable) == Some(true) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "no POLLIN in 5s");
        }
    }

    #[test]
    fn hangup_reported_as_closed() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (served, _) = listener.accept().unwrap();
        drop(client);

        let mut set = PollSet::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            set.clear();
            set.register(fd_of(&served), 3, true, false);
            set.wait(Duration::from_millis(10)).unwrap();
            if let Some((_, r)) = set.ready().next() {
                // Peer close shows as POLLIN (EOF) and usually POLLHUP.
                if r.readable || r.closed {
                    return;
                }
            }
            assert!(std::time::Instant::now() < deadline, "no hangup in 5s");
        }
    }
}
