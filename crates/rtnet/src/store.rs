//! The per-volunteer output store.
//!
//! Holds map-output partitions between the map and reduce phases, with
//! the serving semantics of §III.C: files become available when a map
//! task finishes, stop being served on timeout or job completion, and
//! a timeout reset makes them available again.
//!
//! Each file carries its SHA-256 — the digest a volunteer reports for
//! its output (§III.C) and the trailer of every `Data` frame that serves
//! it — computed on first use and cached with the entry (BOINC keeps a
//! file's checksum in its database row for the same reason). `put` does
//! not hash; replacing a file replaces its digest cell, and a timeout
//! reset keeps it.

use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use vmr_mapreduce::sha256;

struct Entry {
    data: Bytes,
    /// SHA-256 of `data`, filled on first use. Shared, so the hash runs
    /// outside the map's lock; a replaced entry's cell leaves with it.
    digest: Arc<OnceLock<[u8; 32]>>,
    serve_until: Option<Instant>,
}

impl Entry {
    fn new(data: Bytes, serve_until: Option<Instant>) -> Entry {
        Entry {
            data,
            digest: Arc::default(),
            serve_until,
        }
    }

    fn serving(&self) -> bool {
        self.serve_until.is_none_or(|t| Instant::now() <= t)
    }
}

/// Thread-safe named-file store with serving windows.
#[derive(Default)]
pub struct OutputStore {
    files: RwLock<HashMap<String, Entry>>,
}

impl OutputStore {
    /// An empty store.
    pub fn new() -> Self {
        OutputStore::default()
    }

    /// Inserts (or replaces) a file served indefinitely.
    pub fn put(&self, name: impl Into<String>, data: Bytes) {
        self.files
            .write()
            .insert(name.into(), Entry::new(data, None));
    }

    /// Inserts a file served only for `window` from now ("the timeout
    /// value must be chosen according to the expected execution time").
    pub fn put_with_timeout(&self, name: impl Into<String>, data: Bytes, window: Duration) {
        self.files
            .write()
            .insert(name.into(), Entry::new(data, Some(Instant::now() + window)));
    }

    /// Fetches a file if present *and* inside its serving window.
    pub fn get(&self, name: &str) -> Option<Bytes> {
        let files = self.files.read();
        let e = files.get(name).filter(|e| e.serving())?;
        Some(e.data.clone())
    }

    /// Like [`OutputStore::get`], with the file's SHA-256: hashed by the
    /// first caller that asks for this version of the file, read from
    /// the cache by every later one.
    pub fn get_with_digest(&self, name: &str) -> Option<(Bytes, [u8; 32])> {
        let (data, cell) = {
            let files = self.files.read();
            let e = files.get(name).filter(|e| e.serving())?;
            (e.data.clone(), e.digest.clone())
        };
        let digest = *cell.get_or_init(|| sha256(&data));
        Some((data, digest))
    }

    /// Resets a file's serving window ("the map outputs' timeout is
    /// reset (even if it has already been reached in the meantime)").
    /// Returns false if the file was never stored.
    pub fn reset_timeout(&self, name: &str, window: Option<Duration>) -> bool {
        let mut files = self.files.write();
        match files.get_mut(name) {
            Some(e) => {
                e.serve_until = window.map(|w| Instant::now() + w);
                true
            }
            None => false,
        }
    }

    /// Removes a file (job finished).
    pub fn remove(&self, name: &str) -> bool {
        self.files.write().remove(name).is_some()
    }

    /// Removes everything.
    pub fn clear(&self) {
        self.files.write().clear();
    }

    /// Number of stored files (including timed-out ones).
    pub fn len(&self) -> usize {
        self.files.read().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.files.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wait::wait_until;

    /// The de-flake pattern for window tests: assert "inside the
    /// window" only on windows far longer than any plausible scheduler
    /// stall, and assert expiry with a short window under
    /// [`wait_until`] instead of a bare sleep.
    const EXPIRY: Duration = Duration::from_millis(1);
    const GENEROUS: Duration = Duration::from_secs(30);
    const PATIENCE: Duration = Duration::from_secs(10);

    #[test]
    fn put_get_remove() {
        let s = OutputStore::new();
        assert!(s.is_empty());
        s.put("a", Bytes::from_static(b"hello"));
        assert_eq!(s.get("a").unwrap(), Bytes::from_static(b"hello"));
        assert_eq!(s.len(), 1);
        assert!(s.remove("a"));
        assert!(!s.remove("a"));
        assert!(s.get("a").is_none());
    }

    #[test]
    fn timeout_expires_serving() {
        let s = OutputStore::new();
        s.put_with_timeout("f", Bytes::from_static(b"x"), GENEROUS);
        assert!(s.get("f").is_some(), "inside the window");
        assert!(s.reset_timeout("f", Some(EXPIRY)));
        assert!(
            wait_until(|| s.get("f").is_none(), PATIENCE),
            "window passed"
        );
        // The file is still *stored*, just not served.
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn reset_timeout_revives_file() {
        let s = OutputStore::new();
        s.put_with_timeout("f", Bytes::from_static(b"x"), EXPIRY);
        assert!(wait_until(|| s.get("f").is_none(), PATIENCE));
        assert!(s.reset_timeout("f", Some(GENEROUS)));
        assert!(s.get("f").is_some(), "reset makes it servable again");
        assert!(!s.reset_timeout("ghost", None));
    }

    #[test]
    fn clear_empties() {
        let s = OutputStore::new();
        s.put("a", Bytes::new());
        s.put("b", Bytes::new());
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn put_replaces_an_expired_entry() {
        let s = OutputStore::new();
        s.put_with_timeout("f", Bytes::from_static(b"old"), EXPIRY);
        assert!(wait_until(|| s.get("f").is_none(), PATIENCE));
        // Re-put (a rescheduled map re-finishing on the same host):
        // the fresh entry serves indefinitely and carries the new data.
        s.put("f", Bytes::from_static(b"new"));
        assert_eq!(s.get("f").unwrap(), Bytes::from_static(b"new"));
        assert_eq!(s.len(), 1, "replace, not duplicate");
        assert!(s.get("f").is_some(), "no window survives the replace");
    }

    #[test]
    fn put_with_timeout_restarts_the_window_of_an_expired_entry() {
        let s = OutputStore::new();
        s.put_with_timeout("f", Bytes::from_static(b"v1"), EXPIRY);
        assert!(wait_until(|| s.get("f").is_none(), PATIENCE));
        s.put_with_timeout("f", Bytes::from_static(b"v2"), GENEROUS);
        assert_eq!(s.get("f").unwrap(), Bytes::from_static(b"v2"));
    }

    #[test]
    fn reset_timeout_to_none_serves_indefinitely() {
        let s = OutputStore::new();
        s.put_with_timeout("f", Bytes::from_static(b"x"), EXPIRY);
        assert!(wait_until(|| s.get("f").is_none(), PATIENCE));
        assert!(s.reset_timeout("f", None), "None clears the window");
        assert!(s.get("f").is_some(), "still served: no window remains");
    }

    /// The cached digest belongs to one version of a file: a re-put
    /// under the same name never serves the old digest, and a timeout
    /// reset (same bytes) keeps it.
    #[test]
    fn digest_is_cached_per_version_of_a_file() {
        let s = OutputStore::new();
        let cached = |s: &OutputStore| s.files.read()["f"].digest.get().copied();
        s.put("f", Bytes::from_static(b"A"));
        assert_eq!(cached(&s), None, "put does not hash");
        let (a, digest_a) = s.get_with_digest("f").unwrap();
        assert_eq!(digest_a, sha256(&a));
        assert_eq!(cached(&s), Some(digest_a), "first use fills the cell");
        assert_eq!(s.get_with_digest("f").unwrap().1, digest_a);

        s.put("f", Bytes::from_static(b"B"));
        assert_eq!(cached(&s), None, "a re-put drops the old digest");
        let (b, digest_b) = s.get_with_digest("f").unwrap();
        assert_eq!(&b[..], b"B");
        assert_eq!(digest_b, sha256(b"B"));
        assert_ne!(digest_b, digest_a);

        assert!(s.reset_timeout("f", Some(GENEROUS)));
        assert_eq!(cached(&s), Some(digest_b), "a timeout reset keeps it");

        s.put_with_timeout("f", Bytes::from_static(b"C"), GENEROUS);
        assert_eq!(cached(&s), None, "put_with_timeout replaces it too");
        assert_eq!(s.get_with_digest("f").unwrap().1, sha256(b"C"));
    }

    #[test]
    fn digest_follows_the_serving_window() {
        let s = OutputStore::new();
        s.put_with_timeout("f", Bytes::from_static(b"x"), EXPIRY);
        assert!(wait_until(|| s.get_with_digest("f").is_none(), PATIENCE));
        assert!(s.get_with_digest("ghost").is_none());
        assert!(s.reset_timeout("f", None));
        assert_eq!(s.get_with_digest("f").unwrap().1, sha256(b"x"));
    }

    #[test]
    fn unexpired_window_keeps_serving_until_the_deadline() {
        let s = OutputStore::new();
        s.put_with_timeout("f", Bytes::from_static(b"x"), Duration::from_secs(30));
        assert!(s.get("f").is_some(), "inside the window");
        // A reset before expiry shortens or extends without a gap.
        assert!(s.reset_timeout("f", Some(Duration::from_secs(60))));
        assert!(s.get("f").is_some());
    }
}
