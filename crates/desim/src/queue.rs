//! Cancellable pending-event queue: a monotone radix-bucket queue over a
//! slab of generation-tagged slots.
//!
//! **Delivery order** is earliest instant first and, among events at one
//! instant, the order they were scheduled in. That FIFO tie-break is what
//! makes whole-simulation runs deterministic, and every observable
//! downstream (completion instants, rng draw order, journal order, WAL
//! bytes) is a function of it.
//!
//! **Why monotone.** A simulation never schedules before the instant it
//! last delivered, so the queue does not need a general priority
//! structure. It keeps a `base` — an instant no pending event precedes —
//! and files each 16-byte `(at, slot)` key by the highest bit in which
//! `at` differs from `base`: `ready` holds the keys at `base` itself,
//! `buckets[b]` those whose highest differing bit is `b`. Every key in a
//! lower bucket is earlier than every key in a higher one, so the head is
//! in the lowest occupied bucket. When `ready` runs dry that bucket is
//! emptied: `base` moves to its earliest instant and its keys are
//! re-filed, each into `ready` or a strictly lower bucket (keys in higher
//! buckets keep their place — `base` changed only below their bit). A key
//! therefore moves at most once per set bit of its delay, sequentially
//! through small arrays, where a binary heap sifts through 17 levels of
//! an 8 MB array at 100 000 pending events. No tick length or wheel size
//! is involved: the instant's own bits are the hierarchy.
//!
//! **FIFO ties** need no sequence number, only stable moves. Where a key
//! is filed depends on `at` and `base` alone, so all keys of one instant
//! share a container, and inside every container they stand in
//! scheduling order: `schedule` appends the youngest event last; a refill
//! walks the emptied bucket front to back and appends to containers that
//! are all empty at that point (they lie below the lowest occupied one);
//! a re-base walks every container front to back. `ready` holds one
//! instant only and is consumed from the front.
//!
//! **Cancellation** is lazy and hash-free. Payloads live in a slab;
//! an [`EventId`] is a slot index plus the slot's generation, so `cancel`
//! and `is_pending` are an index and a compare. A cancelled event leaves
//! its key behind as a tombstone (the slot is empty but not yet reusable)
//! which is dropped, and the slot released, when the key reaches the
//! front of `ready`; until then it is re-filed like a live key, because
//! telling the two apart would cost a slab read per key per move.
//! Releasing a slot bumps its generation, so the id of a fired or
//! cancelled event reads "not pending" however the slot is reused since.
//!
//! **Re-base.** Settling the head (`peek_time`, or a `pop_due` that finds
//! it beyond the limit) may move `base` past the simulation's clock; an
//! event scheduled after that for an instant before `base` (a `run_until`
//! that returned on its horizon, then work inserted at `now`) would break
//! the filing rule. That rare case re-files every key against the new,
//! earlier `base` in O(n).
//!
//! **Memory.** An emptied container's storage goes back to the allocator
//! unless it is under a page: the keys of a 100 000-host fleet pass
//! through some thirty buckets, and keeping each at its high-water
//! capacity cost a quarter more resident memory than the binary heap
//! this replaces.

use crate::time::SimTime;
use std::collections::VecDeque;
use std::num::NonZeroU32;

/// Handle to a scheduled event, used to cancel it before it fires.
///
/// A slot index and the slot's generation at scheduling time (a stale id
/// could be mistaken for a live one only after its slot has been reused
/// exactly 2^32 - 1 times). The generation is never zero, so an
/// `Option<EventId>` is 8 bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    slot: u32,
    gen: NonZeroU32,
}

/// An emptied container keeps its storage only up to this many keys —
/// one 4 KiB page. Most refills move a handful of keys between the lowest
/// buckets, where a malloc/free pair per refill cost more than the moves;
/// above a page the storage goes back to the allocator (see *Memory* in
/// the module header).
const RETAINED_KEYS: usize = 4096 / std::mem::size_of::<Key>();

/// What the buckets hold: enough to order an event and find its payload.
#[derive(Clone, Copy)]
struct Key {
    at: u64,
    slot: u32,
}

/// One slab entry. `payload` is `None` both while the slot is free and
/// while it is a tombstone (cancelled, key still filed); the two need no
/// telling apart because only a filed key ever leads back to a slot.
struct Slot<E> {
    gen: NonZeroU32,
    payload: Option<E>,
}

/// The pending-event set of a simulation.
pub struct EventQueue<E> {
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// No filed key is earlier than this instant (µs).
    base: u64,
    /// Keys at `base`, in scheduling order.
    ready: VecDeque<Key>,
    /// `buckets[b]`: keys whose `at` first differs from `base` at bit `b`.
    buckets: [Vec<Key>; 64],
    /// Bit `b` set iff `buckets[b]` is non-empty.
    occupied: u64,
    /// Scheduled, not yet fired or cancelled.
    live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            base: 0,
            ready: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            live: 0,
        }
    }

    /// Schedules `payload` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        let at = at.as_micros();
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                let s = u32::try_from(self.slots.len()).expect("fewer than 2^32 pending events");
                self.slots.push(Slot {
                    gen: NonZeroU32::MIN,
                    payload: None,
                });
                s
            }
        };
        let entry = &mut self.slots[slot as usize];
        entry.payload = Some(payload);
        let id = EventId {
            slot,
            gen: entry.gen,
        };
        self.live += 1;
        if at < self.base {
            self.rebase(at);
        }
        self.file(Key { at, slot });
        id
    }

    /// Cancels a previously scheduled event. Returns `true` if the event
    /// was still pending (i.e. this call actually cancelled something);
    /// cancelling an already-fired or already-cancelled event is a no-op.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get_mut(id.slot as usize) {
            Some(s) if s.gen == id.gen && s.payload.is_some() => {
                s.payload = None;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// True if `id` is still scheduled to fire.
    pub fn is_pending(&self, id: EventId) -> bool {
        self.slots
            .get(id.slot as usize)
            .is_some_and(|s| s.gen == id.gen && s.payload.is_some())
    }

    /// Time of the earliest pending (non-cancelled) event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.settle().map(|k| SimTime::from_micros(k.at))
    }

    /// Pops the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        self.pop_due(SimTime::MAX)
    }

    /// Pops the earliest pending event if it fires at or before `limit`:
    /// `peek_time`, the comparison and `pop` in one settling of the head.
    pub fn pop_due(&mut self, limit: SimTime) -> Option<(SimTime, EventId, E)> {
        let k = self.settle()?;
        if k.at > limit.as_micros() {
            return None;
        }
        self.ready.pop_front();
        let s = &mut self.slots[k.slot as usize];
        let id = EventId {
            slot: k.slot,
            gen: s.gen,
        };
        let payload = s.payload.take().expect("settled head is live");
        self.release(k.slot);
        self.live -= 1;
        Some((SimTime::from_micros(k.at), id, payload))
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        for k in self.drain_keys() {
            self.slots[k.slot as usize].payload = None;
            self.release(k.slot);
        }
        self.live = 0;
    }

    /// Files `k` against the current `base` (`k.at >= base`).
    fn file(&mut self, k: Key) {
        let diff = k.at ^ self.base;
        if diff == 0 {
            self.ready.push_back(k);
        } else {
            let b = diff.ilog2();
            self.buckets[b as usize].push(k);
            self.occupied |= 1 << b;
        }
    }

    /// Makes the slot reusable and its outstanding ids stale.
    fn release(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.checked_add(1).unwrap_or(NonZeroU32::MIN);
        self.free.push(slot);
    }

    /// Brings the earliest live key to the front of `ready` and returns
    /// it, dropping the tombstones met on the way.
    fn settle(&mut self) -> Option<Key> {
        loop {
            while let Some(&k) = self.ready.front() {
                if self.slots[k.slot as usize].payload.is_some() {
                    return Some(k);
                }
                self.ready.pop_front();
                self.release(k.slot);
            }
            if self.occupied == 0 {
                return None;
            }
            if self.ready.capacity() > RETAINED_KEYS {
                self.ready = VecDeque::new();
            }
            // A `base` taken from a tombstone is still a lower bound.
            let b = self.occupied.trailing_zeros() as usize;
            self.occupied &= !(1 << b);
            let mut keys = std::mem::take(&mut self.buckets[b]);
            self.base = keys.iter().map(|k| k.at).min().expect("occupied bucket");
            for &k in &keys {
                self.file(k);
            }
            if keys.capacity() <= RETAINED_KEYS {
                keys.clear();
                self.buckets[b] = keys;
            }
        }
    }

    /// Empties `ready` and every bucket, releasing their storage.
    fn drain_keys(&mut self) -> Vec<Key> {
        let mut keys = Vec::from(std::mem::take(&mut self.ready));
        for b in &mut self.buckets {
            keys.extend(std::mem::take(b));
        }
        self.occupied = 0;
        keys
    }

    /// Re-files every key against the earlier base `at`.
    fn rebase(&mut self, at: u64) {
        let keys = self.drain_keys();
        self.base = at;
        for k in keys {
            self.file(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(5), "c");
        q.schedule(t(1), "a");
        q.schedule(t(3), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_tie_break_at_same_time() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(7), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert_eq!(q.len(), 1);
        let (_, _, p) = q.pop().unwrap();
        assert_eq!(p, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_unknown_id_is_noop() {
        let mut q: EventQueue<()> = EventQueue::new();
        let unknown = EventId {
            slot: 42,
            gen: NonZeroU32::MIN,
        };
        assert!(!q.cancel(unknown));
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert!(q.is_pending(a));
        q.pop();
        assert!(!q.is_pending(a));
        assert!(!q.cancel(a), "cancelling a fired event must be a no-op");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(9), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(9)));
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let a = q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn clear_empties_everything() {
        let mut q = EventQueue::new();
        q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_due_leaves_later_events_queued() {
        let mut q = EventQueue::new();
        q.schedule(t(1), "a");
        q.schedule(t(5), "b");
        assert_eq!(q.pop_due(t(3)).map(|(at, _, p)| (at, p)), Some((t(1), "a")));
        assert!(q.pop_due(t(3)).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(t(5)).map(|(at, _, p)| (at, p)), Some((t(5), "b")));
    }

    #[test]
    fn stale_id_stays_stale_when_its_slot_is_reused() {
        let mut q = EventQueue::new();
        let first = q.schedule(t(1), 0);
        q.pop();
        for i in 1..100 {
            // One event in flight at a time: every one reuses the slot.
            let id = q.schedule(t(1 + i), i);
            assert_eq!(id.slot, first.slot);
            assert!(q.is_pending(id));
            assert!(!q.is_pending(first) && !q.cancel(first));
            if i % 2 == 0 {
                assert!(q.cancel(id));
                assert!(q.pop().is_none());
            } else {
                assert_eq!(q.pop().map(|(_, id, p)| (id, p)), Some((id, i)));
            }
            assert!(!q.is_pending(id));
        }
    }

    #[test]
    fn schedule_before_a_settled_head_rebases() {
        let mut q = EventQueue::new();
        q.schedule(t(10), "late-1");
        q.schedule(t(10), "late-2");
        q.schedule(t(900), "far");
        // Settling moves the base to t=10; the clock is still at 0.
        assert_eq!(q.peek_time(), Some(t(10)));
        assert!(q.pop_due(t(5)).is_none());
        q.schedule(t(2), "early");
        q.schedule(t(10), "late-3");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, vec!["early", "late-1", "late-2", "late-3", "far"]);
    }
}
