//! Property tests for the simulation kernel's ordering and determinism
//! invariants. These invariants are what let the experiment harness claim
//! bit-reproducibility of every table in EXPERIMENTS.md.

use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use vmr_desim::{EventId, EventQueue, SimDuration, SimTime, Simulation};

/// The queue `EventQueue` replaced, kept as the executable definition of
/// its contract: a binary heap on `(at, seq)` — `seq` counts `schedule`
/// calls, so ties pop in scheduling order — with lazy cancellation
/// through a set of live sequence numbers. An event's id and payload are
/// both its `seq`.
#[derive(Default)]
struct ModelQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    live: BTreeSet<u64>,
    next_seq: u64,
}

impl ModelQueue {
    fn schedule(&mut self, at: SimTime) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, seq)));
        self.live.insert(seq);
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        self.live.remove(&seq)
    }

    fn is_pending(&self, seq: u64) -> bool {
        self.live.contains(&seq)
    }

    fn skip_cancelled(&mut self) {
        while let Some(&Reverse((_, seq))) = self.heap.peek() {
            if self.live.contains(&seq) {
                break;
            }
            self.heap.pop();
        }
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.skip_cancelled();
        self.heap.peek().map(|&Reverse((at, _))| at)
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.skip_cancelled();
        let Reverse((at, seq)) = self.heap.pop()?;
        self.live.remove(&seq);
        Some((at, seq))
    }

    fn clear(&mut self) {
        self.heap.clear();
        self.live.clear();
    }
}

/// `EventQueue` and `ModelQueue` side by side; every call goes to both
/// and the return values are compared.
#[derive(Default)]
struct Pair {
    real: EventQueue<u64>,
    model: ModelQueue,
    /// Every id ever issued, never pruned: most are fired, cancelled or
    /// cleared, many with their slot reused since.
    ids: Vec<(EventId, u64)>,
    /// Instant of the last pop — the "current instant" new events are
    /// scheduled relative to.
    now: u64,
}

impl Pair {
    fn schedule(&mut self, at: u64) {
        let at = SimTime::from_micros(at);
        let seq = self.model.schedule(at);
        let id = self.real.schedule(at, seq);
        self.ids.push((id, seq));
    }

    fn pop(&mut self) -> Result<Option<(SimTime, u64)>, TestCaseError> {
        let want = self.model.pop();
        let got = self.real.pop();
        prop_assert_eq!(got.map(|(at, _, seq)| (at, seq)), want);
        if let Some((at, id, seq)) = got {
            self.now = at.as_micros();
            let issued = self.ids[seq as usize];
            prop_assert_eq!(issued, (id, seq), "pop returns the id schedule issued");
        }
        Ok(want)
    }

    fn step(&mut self, op: u8, a: u64) -> TestCaseResult {
        let pick = |ids: &[(EventId, u64)]| (!ids.is_empty()).then(|| ids[a as usize % ids.len()]);
        match op {
            0 => self.schedule(self.now),
            1 => self.schedule(self.now + 1),
            2 | 3 => self.schedule(self.now + a % (1 << 40)),
            4 => self.schedule(self.now + a % 4096),
            5 => {
                // Many at one instant, some of them among older events.
                for _ in 0..2 + a % 19 {
                    self.schedule(self.now + a % 64);
                }
            }
            6 => {
                // Earlier than a head `peek_time` already returned —
                // possibly earlier than the last delivered instant too.
                let head = self.model.peek_time();
                prop_assert_eq!(self.real.peek_time(), head);
                if let Some(h) = head.map(SimTime::as_micros).filter(|&h| h > 0) {
                    self.schedule(if a.is_multiple_of(2) { h - 1 } else { a % h });
                }
            }
            7 | 8 => {
                if let Some((id, seq)) = pick(&self.ids) {
                    prop_assert_eq!(self.real.cancel(id), self.model.cancel(seq));
                }
            }
            9 => {
                if let Some((id, seq)) = pick(&self.ids) {
                    prop_assert_eq!(self.real.is_pending(id), self.model.is_pending(seq));
                }
            }
            10 => prop_assert_eq!(self.real.peek_time(), self.model.peek_time()),
            11 => {
                // A burst of pops: frees slots for the schedules that
                // follow to reuse.
                for _ in 0..1 + a % 8 {
                    self.pop()?;
                }
            }
            12 if a.is_multiple_of(16) => {
                self.real.clear();
                self.model.clear();
            }
            _ => {
                self.pop()?;
            }
        }
        prop_assert_eq!(self.real.len(), self.model.live.len());
        prop_assert_eq!(self.real.is_empty(), self.model.live.is_empty());
        Ok(())
    }
}

proptest! {
    /// The bucket queue and the binary heap it replaced agree call by
    /// call — return values of `schedule`-issued ids under `cancel` /
    /// `is_pending`, `peek_time`, `pop`, `len`, `is_empty` — and deliver
    /// the same `(at, payload)` stream, under random interleavings that
    /// include same-instant bursts, 2^40 µs delays, scheduling before a
    /// settled head (the re-base path), stale ids and `clear`.
    #[test]
    fn queue_matches_binary_heap_model(
        ops in proptest::collection::vec((0u8..16, any::<u64>()), 1..400)
    ) {
        let mut pair = Pair::default();
        for &(op, a) in &ops {
            pair.step(op, a)?;
        }
        // Every id's status, then the whole remaining stream.
        for &(id, seq) in &pair.ids {
            prop_assert_eq!(pair.real.is_pending(id), pair.model.is_pending(seq));
        }
        while pair.pop()?.is_some() {}
        prop_assert!(pair.real.is_empty() && pair.real.peek_time().is_none());
    }

    /// Events always pop in non-decreasing time order, regardless of the
    /// order and times they were scheduled in.
    #[test]
    fn queue_pops_sorted(times in proptest::collection::vec(0u64..100_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some((at, _, _)) = q.pop() {
            prop_assert!(at >= last);
            last = at;
            n += 1;
        }
        prop_assert_eq!(n, times.len());
    }

    /// Same-time events pop in scheduling (FIFO) order.
    #[test]
    fn queue_fifo_within_timestamp(
        times in proptest::collection::vec(0u64..10, 1..200)
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut last_per_time = std::collections::HashMap::new();
        while let Some((at, _, idx)) = q.pop() {
            if let Some(prev) = last_per_time.insert(at, idx) {
                prop_assert!(idx > prev, "FIFO violated at {:?}", at);
            }
        }
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn cancellation_subset(
        times in proptest::collection::vec(0u64..1000, 1..100),
        kill_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, q.schedule(SimTime::from_micros(t), i)))
            .collect();
        let mut killed = std::collections::HashSet::new();
        for ((i, id), &kill) in ids.iter().zip(kill_mask.iter()) {
            if kill {
                prop_assert!(q.cancel(*id));
                killed.insert(*i);
            }
        }
        let mut delivered = std::collections::HashSet::new();
        while let Some((_, _, idx)) = q.pop() {
            delivered.insert(idx);
        }
        for i in 0..times.len() {
            prop_assert_eq!(delivered.contains(&i), !killed.contains(&i));
        }
    }

    /// Two simulations with the same seed and same schedule deliver the
    /// same events at the same times and draw identical random values.
    #[test]
    fn determinism_across_runs(
        seed in any::<u64>(),
        delays in proptest::collection::vec(1u64..10_000, 1..50),
    ) {
        let run = |seed: u64| {
            let mut sim: Simulation<usize> = Simulation::new(seed);
            for (i, &d) in delays.iter().enumerate() {
                sim.schedule_in(SimDuration::from_millis(d), i);
            }
            let mut rng = sim.fork_rng("draws");
            let mut log = vec![];
            while let Some(ev) = sim.next_event_before(SimTime::MAX) {
                log.push((ev.at, ev.payload, rng.next_u64()));
            }
            log
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Forked RNG streams with distinct labels do not produce identical
    /// prefixes (independence smoke test), while identical labels do.
    #[test]
    fn rng_fork_label_separation(seed in any::<u64>()) {
        let master = vmr_desim::RngStream::new(seed);
        let mut a1 = master.fork("alpha");
        let mut a2 = master.fork("alpha");
        let mut b = master.fork("beta");
        let xs1: Vec<u64> = (0..8).map(|_| a1.next_u64()).collect();
        let xs2: Vec<u64> = (0..8).map(|_| a2.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        prop_assert_eq!(&xs1, &xs2);
        prop_assert_ne!(&xs1, &ys);
    }
}
