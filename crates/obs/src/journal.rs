//! The structured event journal: a bounded ring of typed, time-stamped
//! events with JSON-lines export.

use crate::types::{Actor, Detail, Event, EventKind, Mark};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

const DEFAULT_CAPACITY: usize = 65_536;

#[derive(Debug)]
struct Ring {
    buf: VecDeque<Event>,
    cap: usize,
    dropped: u64,
}

#[derive(Debug)]
struct Inner {
    enabled: AtomicBool,
    ring: Mutex<Ring>,
}

/// The event journal. Cloning shares the ring; `set_enabled(false)`
/// reduces every append to one relaxed atomic load.
#[derive(Clone, Debug)]
pub struct Journal(Arc<Inner>);

impl Default for Journal {
    fn default() -> Self {
        Journal::with_capacity(DEFAULT_CAPACITY)
    }
}

impl Journal {
    /// An enabled journal with the default ring capacity (64 Ki events).
    pub fn new() -> Self {
        Journal::default()
    }

    /// An enabled journal keeping at most `cap` events (older events
    /// are dropped and counted).
    pub fn with_capacity(cap: usize) -> Self {
        Journal(Arc::new(Inner {
            enabled: AtomicBool::new(true),
            ring: Mutex::new(Ring {
                buf: VecDeque::with_capacity(cap.min(1024)),
                cap: cap.max(1),
                dropped: 0,
            }),
        }))
    }

    /// Turn recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.0.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether appends are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.enabled.load(Ordering::Relaxed)
    }

    /// Append one event, building the payload only when enabled — the
    /// hot-path form: a disabled journal never runs `f`.
    #[inline]
    pub fn record_with(&self, t_us: u64, f: impl FnOnce() -> EventKind) {
        if !self.is_enabled() {
            return;
        }
        let ev = Event { t_us, kind: f() };
        let mut ring = self.0.ring.lock().unwrap();
        if ring.buf.len() >= ring.cap {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(ev);
    }

    /// Record a closed interval on an actor's lane.
    pub fn span(&self, actor: Actor, mark: Mark, detail: Detail, start_us: u64, end_us: u64) {
        self.record_with(start_us, || EventKind::Span {
            actor,
            mark,
            detail,
            end_us,
        });
    }

    /// Record an instantaneous mark on an actor's lane.
    pub fn point(&self, actor: Actor, mark: Mark, detail: Detail, t_us: u64) {
        self.record_with(t_us, || EventKind::Point {
            actor,
            mark,
            detail,
        });
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.0.ring.lock().unwrap().buf.iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.0.ring.lock().unwrap().buf.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted by the ring bound since creation.
    pub fn dropped(&self) -> u64 {
        self.0.ring.lock().unwrap().dropped
    }

    /// JSON-lines export: one JSON object per retained event.
    pub fn to_jsonl(&self) -> String {
        let ring = self.0.ring.lock().unwrap();
        let mut out = String::with_capacity(96 * ring.buf.len());
        for ev in &ring.buf {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_journal_skips_payload_construction() {
        let j = Journal::new();
        j.set_enabled(false);
        let mut built = false;
        j.record_with(1, || {
            built = true;
            EventKind::FlowStart { id: 1, bytes: 1 }
        });
        assert!(!built);
        assert!(j.is_empty());
    }

    #[test]
    fn jsonl_one_line_per_event() {
        let j = Journal::new();
        j.span(Actor::Node(1), Mark::Exec, Detail::Result(1), 10, 20);
        j.record_with(30, || EventKind::BackoffArmed {
            client: 2,
            delay_us: 600,
        });
        let out = j.to_jsonl();
        assert_eq!(out.lines().count(), 2);
        assert!(out.contains("\"type\":\"span\""));
        assert!(out.contains("\"type\":\"backoff_armed\""));
    }
}
