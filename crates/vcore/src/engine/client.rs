//! The volunteer side: one [`Client`] per host and its pull-model state
//! machine — scheduler RPC with exponential backoff, download → queue →
//! execute → upload → report-at-next-RPC, owner suspend/resume, report
//! deadlines and permanent dropout.

use super::transfer::InputSlot;
use super::{clique_fingerprint, honest_fingerprint, Engine, Ev, Policy};
use crate::backoff::Backoff;
use crate::config::{
    CLIENT_BUFFER_SLOTS, COMPUTE_JITTER, MAX_RESULTS_PER_RPC, SERVER_DAEMON_PERIOD_S,
};
use crate::fault::Corruption;
use crate::host::HostProfile;
use crate::sched::{pick_results, WorkRequest};
use crate::types::{ClientId, OutputFingerprint, ResultId};
use crate::workunit::{ResultOutcome, ResultState};
use std::collections::VecDeque;
use std::fmt::Write as _;
use vmr_desim::{EventId, RngStream, SimDuration, SimTime};
use vmr_netsim::HostId;
use vmr_obs::{Actor, Detail, EventKind, Mark};

/// Client-side task lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum TaskState {
    Downloading,
    Queued,
    Running,
    Uploading,
}

#[derive(Debug)]
pub(super) struct TaskProgress {
    pub(super) state: TaskState,
    pub(super) downloads_pending: usize,
    /// Peer-download attempts per input index.
    pub(super) attempts: Vec<u32>,
    pub(super) assigned_at: SimTime,
    pub(super) dl_done_at: Option<SimTime>,
    pub(super) exec_done_at: Option<SimTime>,
    /// Pending ExecDone event while running (cancelled on suspend).
    pub(super) exec_ev: Option<EventId>,
    /// When the current execution burst started.
    pub(super) exec_started: Option<SimTime>,
    /// Compute time still owed when suspended mid-run.
    pub(super) exec_remaining: Option<SimDuration>,
    pub(super) fingerprint: Option<OutputFingerprint>,
    pub(super) errored: bool,
}

/// What a scheduler RPC with an empty reply reads and writes — the
/// simulator's dominant event at internet scale — kept apart from the
/// rest of the [`Client`] and sized to one cache line, so that an idle
/// client's wake costs one memory access on the client side, not one
/// per field scattered over a 300-byte record in a 30 MB array.
#[repr(align(64))]
pub(super) struct ClientHot {
    pub(super) rng: RngStream,
    pub(super) next_rpc_at: SimTime,
    pub(super) wake: Option<EventId>,
    /// Consecutive empty replies: the client's whole back-off state
    /// (the bounds are the project's, `Engine::backoff`).
    pub(super) backoff_failures: u32,
    /// Holds at least one task, i.e. [`Client::tasks`] is non-empty and
    /// [`Client::ready_to_report`] (a subset of them) may be.
    pub(super) busy: bool,
    pub(super) dropped: bool,
    pub(super) suspended: bool,
    /// `Some(ahead)` while idle with its chain of empty RPCs on the
    /// [`IdleCalendar`] instead of a `ClientWake` in the event queue:
    /// `rng`, `next_rpc_at` and `backoff_failures` lag the clock until
    /// the chain is run or released. `ahead`: the next wake runs ahead
    /// of a daemon tick at the same instant (the boundary rule).
    pub(super) parked: Option<bool>,
}

impl ClientHot {
    /// An empty reply at `now`: one more consecutive failure, and the
    /// next RPC one jittered back-off delay (drawn from the client's own
    /// rng) later. Returns the delay.
    fn back_off(&mut self, now: SimTime, backoff: &Backoff) -> SimDuration {
        self.backoff_failures = self.backoff_failures.saturating_add(1);
        let delay = backoff.delay_after(self.backoff_failures, &mut self.rng);
        self.next_rpc_at = now + delay;
        delay
    }
}

/// One volunteer host: everything but its [`ClientHot`].
pub(super) struct Client {
    pub(super) host: HostId,
    pub(super) profile: HostProfile,
    /// Tasks held, at most `CLIENT_BUFFER_SLOTS` of them: looked up by
    /// id, never iterated, so order carries no meaning.
    pub(super) tasks: Vec<(ResultId, TaskProgress)>,
    pub(super) run_queue: VecDeque<ResultId>,
    pub(super) running: Vec<ResultId>,
    pub(super) ready_to_report: Vec<(ResultId, Option<OutputFingerprint>, bool)>, // (rid, fp, errored)
    /// Peer downloads this client is serving right now. Which files it
    /// serves is the engine's registry (`Engine::served`), not its own.
    pub(super) serving_now: u32,
}

impl Client {
    pub(super) fn task(&self, rid: ResultId) -> Option<&TaskProgress> {
        self.tasks.iter().find(|(r, _)| *r == rid).map(|(_, t)| t)
    }

    pub(super) fn task_mut(&mut self, rid: ResultId) -> Option<&mut TaskProgress> {
        self.tasks
            .iter_mut()
            .find(|(r, _)| *r == rid)
            .map(|(_, t)| t)
    }
}

impl Engine {
    /// Sizes the per-client arrays for `n` clients up front: at 100 000
    /// hosts their growth by doubling is a third of slack plus a
    /// transient copy, both visible in peak resident memory.
    pub(super) fn reserve_clients(&mut self, n: usize) {
        self.clients.reserve_exact(n);
        self.hot.reserve_exact(n);
    }

    /// Registers a client over an already-placed network host (the
    /// builder path: hosts go into the topology before the network
    /// engine exists, so no rebuild is needed). `label` is scratch
    /// space for the client's rng label, reused across calls.
    pub(super) fn push_client(
        &mut self,
        profile: HostProfile,
        host: HostId,
        label: &mut String,
    ) -> ClientId {
        let id = ClientId(self.clients.len() as u32);
        label.clear();
        write!(label, "client-{}", id.0).expect("writing to a String cannot fail");
        let mut rng = self.rng.fork(label);
        // Stagger initial contact to avoid a lockstep thundering herd.
        let stagger = SimDuration::from_secs_f64(rng.uniform_f64(0.0, 3.0));
        let next_rpc_at = SimTime::ZERO + stagger;
        let wake = self.sim.schedule_at(next_rpc_at, Ev::ClientWake(id));
        self.hot.push(ClientHot {
            rng,
            next_rpc_at,
            wake: Some(wake),
            backoff_failures: 0,
            busy: false,
            dropped: false,
            suspended: false,
            parked: None,
        });
        self.clients.push(Client {
            host,
            profile,
            tasks: Vec::new(),
            run_queue: VecDeque::new(),
            running: Vec::new(),
            ready_to_report: Vec::new(),
            serving_now: 0,
        });
        id
    }

    /// Schedules dropout events from the fault plan. Idempotent: runs
    /// once (dropouts are scheduled lazily at run start so callers can
    /// set `fault` after constructing the engine).
    pub(super) fn arm_dropouts(&mut self) {
        if self.dropouts_armed {
            return;
        }
        self.dropouts_armed = true;
        self.fidx = self.fault.index();
        for i in 0..self.clients.len() {
            let id = ClientId(i as u32);
            if let Some(after) = self.fidx.dropout_time(id) {
                self.sim.schedule_at(SimTime::ZERO + after, Ev::Dropout(id));
            }
            if let Some(av) = self.clients[i].profile.availability {
                debug_assert!(
                    self.hot[i].parked.is_none(),
                    "nothing parks before the first run"
                );
                let first_on =
                    SimDuration::from_secs_f64(self.hot[i].rng.exponential(av.on_mean_s));
                self.sim.schedule_in(first_on, Ev::Suspend(id));
            }
        }
    }

    /// The owner takes the machine: pause execution and scheduler
    /// contact; in-flight transfers continue (BOINC keeps network
    /// activity in the background by default).
    pub(super) fn on_suspend(&mut self, cid: ClientId) {
        let now = self.sim.now();
        if self.hot[cid.0 as usize].dropped || self.hot[cid.0 as usize].suspended {
            return;
        }
        // Its parked wakes before now come first: they draw from the
        // rng before the off-period below does.
        self.unpark(cid);
        self.hot[cid.0 as usize].suspended = true;
        let running: Vec<ResultId> = self.clients[cid.0 as usize].running.clone();
        for rid in running {
            if let Some(t) = self.clients[cid.0 as usize].task_mut(rid) {
                if let (Some(ev), Some(started), Some(total)) =
                    (t.exec_ev.take(), t.exec_started, t.exec_remaining)
                {
                    self.sim.cancel(ev);
                    let done = now.saturating_since(started);
                    let left = total.saturating_sub(done);
                    // Restore into the slot the resume handler reads.
                    let t = self.clients[cid.0 as usize].task_mut(rid).unwrap();
                    t.exec_remaining = Some(left);
                }
            }
        }
        if let Some(ev) = self.hot[cid.0 as usize].wake.take() {
            self.sim.cancel(ev);
        }
        let off = {
            let av = self.clients[cid.0 as usize].profile.availability.unwrap();
            let rng = &mut self.hot[cid.0 as usize].rng;
            SimDuration::from_secs_f64(rng.exponential(av.off_mean_s).max(1.0))
        };
        self.obs.journal.point(
            Actor::Node(cid.0),
            Mark::Suspend,
            Detail::None,
            now.as_micros(),
        );
        self.sim.schedule_in(off, Ev::Resume(cid));
    }

    /// The machine is idle again: resume paused executions and resume
    /// polling the scheduler.
    pub(super) fn on_resume(&mut self, cid: ClientId) {
        let now = self.sim.now();
        if self.hot[cid.0 as usize].dropped {
            return;
        }
        self.hot[cid.0 as usize].suspended = false;
        let running: Vec<ResultId> = self.clients[cid.0 as usize].running.clone();
        for rid in running {
            let left = self.clients[cid.0 as usize]
                .task(rid)
                .and_then(|t| t.exec_remaining);
            if let Some(left) = left {
                let ev = self.sim.schedule_in(left, Ev::ExecDone(cid, rid));
                let t = self.clients[cid.0 as usize].task_mut(rid).unwrap();
                t.exec_ev = Some(ev);
                t.exec_started = Some(now);
            }
        }
        self.obs.journal.point(
            Actor::Node(cid.0),
            Mark::Resume,
            Detail::None,
            now.as_micros(),
        );
        let on = {
            let av = self.clients[cid.0 as usize].profile.availability.unwrap();
            let rng = &mut self.hot[cid.0 as usize].rng;
            SimDuration::from_secs_f64(rng.exponential(av.on_mean_s).max(1.0))
        };
        self.sim.schedule_in(on, Ev::Suspend(cid));
        let h = &mut self.hot[cid.0 as usize];
        h.next_rpc_at = h.next_rpc_at.max(now);
        self.maybe_contact_server(cid);
        self.try_start_tasks(cid);
    }

    // ----- client: scheduler RPC --------------------------------------------

    pub(super) fn client_rpc<P: Policy>(&mut self, policy: &mut P, cid: ClientId) {
        let now = self.sim.now();
        let busy = {
            let h = &mut self.hot[cid.0 as usize];
            debug_assert!(h.parked.is_none(), "a parked client has no ClientWake");
            h.wake = None;
            if h.dropped || h.suspended {
                return;
            }
            if now < h.next_rpc_at {
                // Woken early (stale event); re-arm at the right time.
                h.wake = Some(self.sim.schedule_at(h.next_rpc_at, Ev::ClientWake(cid)));
                return;
            }
            h.busy
        };
        self.eobs.rpcs.inc();

        // 1. Deliver reports. A client holding no task has none (and
        // the rest of its record stays untouched).
        let reports = if busy {
            std::mem::take(&mut self.clients[cid.0 as usize].ready_to_report)
        } else {
            debug_assert!(self.clients[cid.0 as usize].ready_to_report.is_empty());
            Vec::new()
        };
        let mut reported_wus = Vec::new();
        for (rid, fp, errored) in reports {
            let outcome = if errored {
                ResultOutcome::Error
            } else {
                ResultOutcome::Success
            };
            if self.db.mark_reported(rid, outcome, fp, now) {
                self.eobs.reports.inc();
                if errored {
                    self.note_host_error(cid);
                }
                // The §IV.B gap: upload finished at exec/upload time; the
                // server only *learns* of it now.
                if let Some(t) = self.clients[cid.0 as usize]
                    .task(rid)
                    .and_then(|t| t.exec_done_at)
                {
                    self.eobs
                        .report_delay_s
                        .record(now.saturating_since(t).as_secs_f64());
                }
                self.obs.journal.point(
                    Actor::Node(cid.0),
                    Mark::Report,
                    Detail::Result(rid.0),
                    now.as_micros(),
                );
                reported_wus.push(self.db.result(rid).wu);
                self.in_policy(|eng| policy.on_result_reported(eng, rid));
            }
            self.drop_task(cid, rid);
        }
        for wu in reported_wus {
            self.after_report_transition(policy, wu);
        }

        // 2. Work request.
        let live = if busy {
            self.clients[cid.0 as usize].tasks.len() as u32
        } else {
            0
        };
        let slots_wanted = CLIENT_BUFFER_SLOTS.saturating_sub(live);
        let mut got_work = false;
        let mut n_granted = 0u32;
        if slots_wanted > 0 {
            let req = WorkRequest {
                client: cid,
                slots_wanted,
            };
            let picked = if self.cfg.locality_scheduling {
                // Prefer results whose inputs this client already serves
                // (it can read them from local disk instead of the
                // network). Stable sort keeps FIFO order within ties.
                let mut scored: Vec<(usize, ResultId)> = self
                    .feeder
                    .candidates()
                    .map(|rid| {
                        let score = self
                            .db
                            .inputs_of(rid)
                            .iter()
                            .filter(|f| self.holds_served_file(cid, &f.name))
                            .count();
                        (score, rid)
                    })
                    .collect();
                scored.sort_by_key(|&(score, rid)| (std::cmp::Reverse(score), rid));
                pick_results(
                    &self.db,
                    scored.into_iter().map(|(_, rid)| rid),
                    req,
                    MAX_RESULTS_PER_RPC,
                )
            } else {
                // The candidate stream is lazy: the grant fills after
                // a handful of results and the rest is never scanned.
                pick_results(&self.db, self.feeder.candidates(), req, MAX_RESULTS_PER_RPC)
            };
            got_work = !picked.is_empty();
            n_granted = picked.len() as u32;
            for rid in picked {
                self.feeder.remove(rid);
                let deadline = now + self.db.wu(self.db.result(rid).wu).spec.delay_bound;
                self.db.mark_sent(rid, cid, now, deadline);
                self.eobs.grants.inc();
                self.sim.schedule_at(deadline, Ev::DeadlineCheck(rid));
                self.adapt_replication(cid, rid);
                self.grant_task(cid, rid);
                self.in_policy(|eng| policy.on_task_granted(eng, cid, rid));
            }
        }

        let asked_and_empty = slots_wanted > 0 && !got_work;
        self.obs
            .journal
            .record_with(now.as_micros(), || EventKind::RpcServed {
                client: cid.0,
                granted: n_granted,
                empty: asked_and_empty,
            });

        // 3. Backoff bookkeeping.
        if slots_wanted > 0 && !got_work {
            self.eobs.empty_replies.inc();
            let delay = self.hot[cid.0 as usize].back_off(now, &self.backoff);
            self.obs
                .journal
                .record_with(now.as_micros(), || EventKind::BackoffArmed {
                    client: cid.0,
                    delay_us: delay.as_micros(),
                });
            // A fully idle client re-polls at backoff expiry — from the
            // idle calendar while no feeder pass can give it work; a
            // busy one will naturally wake on task completion (and must
            // still respect next_rpc_at).
            if !self.park(cid, now) {
                self.schedule_rpc_wake(cid);
            }
        } else if got_work {
            let h = &mut self.hot[cid.0 as usize];
            h.backoff_failures = 0;
            h.next_rpc_at = now;
        }
    }

    /// Arms the client's one ClientWake at `max(now, next_rpc_at)`,
    /// replacing a pending one — also when that one was aimed at the
    /// same instant, so the wake takes a fresh tie-break rank each time.
    pub(super) fn schedule_rpc_wake(&mut self, cid: ClientId) {
        let h = &mut self.hot[cid.0 as usize];
        debug_assert!(h.parked.is_none(), "only an idle client parks");
        if let Some(ev) = h.wake {
            self.sim.cancel(ev);
        }
        let t = h.next_rpc_at.max(self.sim.now());
        h.wake = Some(self.sim.schedule_at(t, Ev::ClientWake(cid)));
    }

    /// A client state change that may warrant contacting the server:
    /// reports pending or free slots. Respects the backoff gate.
    pub(super) fn maybe_contact_server(&mut self, cid: ClientId) {
        if self.hot[cid.0 as usize].dropped {
            return;
        }
        let c = &self.clients[cid.0 as usize];
        let wants = !c.ready_to_report.is_empty() || (c.tasks.len() as u32) < CLIENT_BUFFER_SLOTS;
        if wants {
            self.schedule_rpc_wake(cid);
        }
    }

    /// A result just became reportable on `cid`.
    pub(super) fn result_ready(&mut self, cid: ClientId) {
        self.maybe_contact_server(cid);
        if self.cfg.report_results_immediately {
            // §IV.C mitigation: bypass the backoff gate.
            self.hot[cid.0 as usize].next_rpc_at = self.sim.now();
            self.schedule_rpc_wake(cid);
        }
    }

    // ----- client: task lifecycle --------------------------------------------

    /// Forgets `rid` on `cid` (reported, or timed out).
    fn drop_task(&mut self, cid: ClientId, rid: ResultId) {
        let tasks = &mut self.clients[cid.0 as usize].tasks;
        if let Some(i) = tasks.iter().position(|(r, _)| *r == rid) {
            tasks.swap_remove(i);
        }
        debug_assert!(
            self.hot[cid.0 as usize].parked.is_none(),
            "a task holder is busy"
        );
        self.hot[cid.0 as usize].busy = !tasks.is_empty();
    }

    fn grant_task(&mut self, cid: ClientId, rid: ResultId) {
        let now = self.sim.now();
        let inputs = self.db.inputs_of(rid).to_vec();
        let progress = TaskProgress {
            state: if inputs.is_empty() {
                TaskState::Queued
            } else {
                TaskState::Downloading
            },
            downloads_pending: inputs.len(),
            attempts: vec![0; inputs.len()],
            assigned_at: now,
            dl_done_at: None,
            exec_done_at: None,
            exec_ev: None,
            exec_started: None,
            exec_remaining: None,
            fingerprint: None,
            errored: false,
        };
        let c = &mut self.clients[cid.0 as usize];
        debug_assert!(c.task(rid).is_none(), "a result is granted once");
        c.tasks.push((rid, progress));
        self.hot[cid.0 as usize].busy = true;
        if inputs.is_empty() {
            self.clients[cid.0 as usize].run_queue.push_back(rid);
            self.try_start_tasks(cid);
        } else {
            for idx in 0..inputs.len() {
                self.start_input_download(InputSlot {
                    client: cid,
                    rid,
                    idx,
                });
            }
        }
    }

    pub(super) fn try_start_tasks(&mut self, cid: ClientId) {
        let now = self.sim.now();
        loop {
            if self.hot[cid.0 as usize].dropped {
                return;
            }
            let c = &mut self.clients[cid.0 as usize];
            if c.running.len() >= c.profile.slots as usize {
                return;
            }
            let Some(rid) = c.run_queue.pop_front() else {
                return;
            };
            let Some(t) = c.task_mut(rid) else {
                continue;
            };
            t.state = TaskState::Running;
            c.running.push(rid);
            let flops = self.db.wu(self.db.result(rid).wu).spec.flops;
            debug_assert!(
                self.hot[cid.0 as usize].parked.is_none(),
                "a task holder is busy"
            );
            let jitter = self.hot[cid.0 as usize]
                .rng
                .uniform_f64(1.0 - COMPUTE_JITTER, 1.0 + COMPUTE_JITTER);
            let secs = self.clients[cid.0 as usize].profile.compute_seconds(flops) * jitter;
            let dur = SimDuration::from_secs_f64(secs);
            if self.hot[cid.0 as usize].suspended {
                // Owner is using the machine: the task is queued with
                // its full compute debt; it starts at resume.
                let t = self.clients[cid.0 as usize].task_mut(rid).unwrap();
                t.exec_started = Some(now);
                t.exec_remaining = Some(dur);
                continue;
            }
            let ev = self.sim.schedule_in(dur, Ev::ExecDone(cid, rid));
            let t = self.clients[cid.0 as usize].task_mut(rid).unwrap();
            t.exec_ev = Some(ev);
            t.exec_started = Some(now);
            t.exec_remaining = Some(dur);
        }
    }

    pub(super) fn on_exec_done<P: Policy>(&mut self, policy: &mut P, cid: ClientId, rid: ResultId) {
        let now = self.sim.now();
        if self.hot[cid.0 as usize].dropped {
            return;
        }
        self.clients[cid.0 as usize].running.retain(|&r| r != rid);
        let exists = self.clients[cid.0 as usize].task(rid).is_some();
        if !exists {
            self.try_start_tasks(cid);
            return;
        }

        // Compute the output fingerprint (honest or corrupted).
        let wu = self.db.result(rid).wu;
        let honest = honest_fingerprint(&self.db.wu(wu).spec.name);
        debug_assert!(
            self.hot[cid.0 as usize].parked.is_none(),
            "a task holder is busy"
        );
        let (errored, fp) = {
            let rng = &mut self.hot[cid.0 as usize].rng;
            if self.fault.task_errors_now(rng) {
                (true, None)
            } else {
                match self.fidx.corruption_now(cid, now, rng) {
                    Corruption::None => (false, Some(honest)),
                    Corruption::Random => (
                        false,
                        Some(OutputFingerprint(honest.0 ^ rng.next_u64() | 1)),
                    ),
                    // Colluders emit the clique's shared wrong answer —
                    // identical across members, so they can outvote an
                    // honest minority (or agree under spot-checks).
                    Corruption::Clique(tag) => (false, Some(clique_fingerprint(honest, tag))),
                }
            }
        };
        {
            let t = self.clients[cid.0 as usize].task_mut(rid).unwrap();
            let start = t.dl_done_at.unwrap_or(t.assigned_at);
            t.exec_done_at = Some(now);
            t.fingerprint = fp;
            t.errored = errored;
            self.obs.journal.span(
                Actor::Node(cid.0),
                Mark::Exec,
                Detail::Result(rid.0),
                start.as_micros(),
                now.as_micros(),
            );
        }
        self.in_policy(|eng| policy.on_task_executed(eng, cid, rid));

        // Upload outputs (or just queue the hash report).
        let spec = &self.db.wu(wu).spec;
        if spec.upload_outputs && spec.output_bytes > 0 && !errored {
            self.start_output_upload(cid, rid, spec.output_bytes);
        } else {
            self.clients[cid.0 as usize]
                .ready_to_report
                .push((rid, fp, errored));
            self.result_ready(cid);
        }
        self.try_start_tasks(cid);
    }

    pub(super) fn on_deadline<P: Policy>(&mut self, policy: &mut P, rid: ResultId) {
        let now = self.sim.now();
        let r = self.db.result(rid);
        if r.state != ResultState::InProgress {
            return;
        }
        if r.report_deadline.map(|d| now >= d).unwrap_or(false) {
            let wu = r.wu;
            let client = r.client;
            self.db.mark_timed_out(rid, now);
            if let Some(c) = client {
                self.note_host_error(c);
                self.drop_task(c, rid);
                let cl = &mut self.clients[c.0 as usize];
                cl.run_queue.retain(|&x| x != rid);
                cl.running.retain(|&x| x != rid);
                // Its report, if one was waiting, would be ignored as
                // late; dropping it keeps reports a subset of tasks.
                cl.ready_to_report.retain(|r| r.0 != rid);
                self.swarm.retain(|k, _| !(k.0 == c.0 && k.1 == rid.0));
            }
            self.after_report_transition(policy, wu);
        }
    }

    pub(super) fn on_dropout(&mut self, cid: ClientId) {
        // Its parked wakes before now still ran.
        self.unpark(cid);
        // It stops serving: O(files), not O(fleet).
        self.served.retain(|_, holders| {
            holders.retain(|(c, _)| *c != cid);
            !holders.is_empty()
        });
        let c = &mut self.clients[cid.0 as usize];
        c.run_queue.clear();
        c.running.clear();
        c.ready_to_report.clear();
        let h = &mut self.hot[cid.0 as usize];
        h.dropped = true;
        if let Some(ev) = h.wake.take() {
            self.sim.cancel(ev);
        }
        self.obs.journal.point(
            Actor::Node(cid.0),
            Mark::Dropout,
            Detail::None,
            self.sim.now().as_micros(),
        );
        self.abort_flows_of(cid);
        // Swarm bookkeeping: the dropped host stops seeding, and its
        // own in-progress transfers die with it.
        self.swarm_index.drop_client(cid.0);
        self.swarm.retain(|k, _| k.0 != cid.0);
    }
}

// ----- the idle calendar -----------------------------------------------------

/// The daemon period in µs: tick `k` runs at `k · TICK_US`.
const TICK_US: u64 = (SERVER_DAEMON_PERIOD_S * 1e6) as u64;

/// The daemon interval whose feeder a wake at `at` reads: the one the
/// last tick at or before `at` opened, or the one before when the wake
/// runs ahead of a tick at its very instant.
fn interval_of(at: SimTime, ahead: bool) -> u64 {
    at.as_micros() / TICK_US - u64::from(ahead)
}

/// Does a wake at `at`, armed after `ticks` daemon ticks ran, run ahead
/// of a tick at the same instant? Events of one instant run in the
/// order they were scheduled, and tick `j` is scheduled by tick `j − 1`:
/// the wake goes first when that tick had not run yet.
fn ahead_of_tick(at: SimTime, ticks: u64) -> bool {
    let at = at.as_micros();
    at.is_multiple_of(TICK_US) && at / TICK_US > ticks
}

/// One parked chain: an idle client's next wake, filed under the daemon
/// interval it falls in. (Its boundary bit is in `ClientHot::parked`.)
#[derive(Clone, Copy)]
pub(super) struct Parked {
    /// The chain's next wake. The entry is stale once the client is no
    /// longer parked or its `next_rpc_at` has moved on.
    at: SimTime,
    client: ClientId,
    /// µs from the instant the wake was armed (the chain's previous
    /// wake) to `at`, saturating past 71 minutes: the rank its unparked
    /// twin would hold among same-instant events.
    wait_us: u32,
}

impl Parked {
    fn new(client: ClientId, armed: SimTime, at: SimTime) -> Self {
        let wait = at.saturating_since(armed).as_micros();
        Parked {
            at,
            client,
            wait_us: u32::try_from(wait).unwrap_or(u32::MAX),
        }
    }

    /// When the wake was armed (later than that for a saturated wait,
    /// which only the order of same-instant wakes reads).
    fn armed(&self) -> SimTime {
        SimTime::from_micros(self.at.as_micros() - u64::from(self.wait_us))
    }
}

/// Idle clients' chains of empty scheduler RPCs, by daemon interval.
///
/// The feeder is refilled only by the daemon tick and only shrinks in
/// between, and `pick_results` draws only from it. So when a tick's
/// refill leaves it empty, every idle client's RPC before the next tick
/// is an empty reply, whose only effects are two counts, one back-off
/// draw on the client's own rng and its next wake. Such a chain need
/// not pass through the event queue: the next tick runs it in bulk (a
/// dead interval), or puts its wake back into the queue (a live one).
#[derive(Default)]
pub(super) struct IdleCalendar {
    /// Daemon ticks dispatched; the last one opened interval `ticks − 1`.
    ticks: u64,
    /// The last tick's feeder pass found work.
    live: bool,
    /// The interval of `buckets[0]`.
    first: u64,
    buckets: VecDeque<Vec<Parked>>,
    /// The `vcore.idle_sweep` profiling scope, registered at the first
    /// bulk run with profiling on: an engine that never parks leaves
    /// the registry (and the heap) as they were.
    sweep_scope: Option<vmr_obs::Scope>,
}

impl IdleCalendar {
    /// The interval whose chains may have wakes before the next tick:
    /// the current one, while it is dead. (A live interval's chains were
    /// put back into the event queue when it opened.)
    fn dead_interval(&self) -> Option<u64> {
        (self.ticks > 0 && !self.live && !self.buckets.is_empty()).then(|| self.ticks - 1)
    }

    /// Files `p` under interval `k`.
    fn file(&mut self, k: u64, p: Parked) {
        if self.buckets.is_empty() {
            // A chain is filed during the current interval, under it or
            // a later one.
            self.first = self.ticks - 1;
        }
        debug_assert!(k >= self.first, "filed under an interval that ended");
        let i = (k - self.first) as usize;
        if i >= self.buckets.len() {
            self.buckets.resize_with(i + 1, Vec::new);
        }
        self.buckets[i].push(p);
    }

    fn bucket(&self, k: u64) -> &[Parked] {
        k.checked_sub(self.first)
            .and_then(|i| self.buckets.get(i as usize))
            .map_or(&[], Vec::as_slice)
    }

    /// Empties interval `k`'s bucket and returns what it held.
    fn take(&mut self, k: u64) -> Vec<Parked> {
        k.checked_sub(self.first)
            .and_then(|i| self.buckets.get_mut(i as usize))
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Drops the buckets of intervals up to `k`, which has ended.
    fn retire_through(&mut self, k: u64) {
        while self.first <= k && self.buckets.pop_front().is_some() {
            self.first += 1;
        }
    }
}

impl Engine {
    /// Files `cid`'s next wake on the idle calendar instead of the event
    /// queue, after an empty reply at `now`. Only an idle client parks,
    /// and only with the event journal off (a journaled run records
    /// every RPC). The exception is a wake in the current interval when
    /// that interval is live: it is armed as usual. Returns whether the
    /// client parked.
    fn park(&mut self, cid: ClientId, now: SimTime) -> bool {
        let cal = &self.idle;
        let h = &self.hot[cid.0 as usize];
        if h.busy || cal.ticks == 0 || self.obs.journal.is_enabled() {
            return false;
        }
        let ahead = ahead_of_tick(h.next_rpc_at, cal.ticks);
        let k = interval_of(h.next_rpc_at, ahead);
        if cal.live && k == cal.ticks - 1 {
            return false;
        }
        self.idle.file(k, Parked::new(cid, now, h.next_rpc_at));
        self.hot[cid.0 as usize].parked = Some(ahead);
        true
    }

    /// The interval of `p`'s wake, if `p` is the calendar entry of a
    /// chain still parked there.
    fn parked_interval(&self, p: &Parked) -> Option<u64> {
        let h = &self.hot[p.client.0 as usize];
        let ahead = h.parked.filter(|_| h.next_rpc_at == p.at)?;
        Some(interval_of(p.at, ahead))
    }

    /// The `vcore.idle_sweep` scope, while profiling is on.
    fn idle_sweep_scope(&mut self) -> Option<vmr_obs::Scope> {
        if !self.obs.prof.is_enabled() {
            return None;
        }
        let obs = &self.obs;
        let scope = self
            .idle
            .sweep_scope
            .get_or_insert_with(|| obs.scope("vcore.idle_sweep"));
        Some(scope.clone())
    }

    /// Runs `p`'s chain through every wake `due(at, ahead)` accepts, as
    /// its unparked twin would have run them: each is an empty reply.
    /// Returns how many ran and the instant of the last; `p` and the
    /// client's boundary bit then describe its next wake.
    fn run_chain(
        &mut self,
        p: &mut Parked,
        due: &impl Fn(SimTime, bool) -> bool,
    ) -> (u64, Option<SimTime>) {
        let h = &mut self.hot[p.client.0 as usize];
        let mut ahead = h.parked == Some(true);
        let (mut wakes, mut last) = (0, None);
        while due(h.next_rpc_at, ahead) {
            let ticks_before = interval_of(h.next_rpc_at, ahead) + 1;
            let at = h.next_rpc_at;
            h.back_off(at, &self.backoff);
            ahead = ahead_of_tick(h.next_rpc_at, ticks_before);
            wakes += 1;
            last = Some(at);
        }
        if let Some(armed) = last {
            h.parked = Some(ahead);
            *p = Parked::new(p.client, armed, h.next_rpc_at);
        }
        (wakes, last)
    }

    /// Runs the chains of interval `k` through the wakes `due` accepts
    /// and files each under its next wake's interval; the wakes are
    /// credited to `vcore.rpcs` and `vcore.empty_replies` by count.
    /// Returns the instant of the last wake run.
    fn run_parked(&mut self, k: u64, due: impl Fn(SimTime, bool) -> bool) -> Option<SimTime> {
        let mut bucket = self.idle.take(k);
        if bucket.is_empty() {
            return None;
        }
        let scope = self.idle_sweep_scope();
        let _sweep = scope.as_ref().map(|s| s.enter());
        // A pass of independent reads first: it brings every chain's
        // `ClientHot` line in at once, not one miss per chain below.
        bucket.retain(|p| self.parked_interval(p).is_some());
        let (mut wakes, mut last) = (0, None);
        for mut p in bucket {
            let (n, last_wake) = self.run_chain(&mut p, &due);
            wakes += n;
            last = last.max(last_wake);
            let next = self.parked_interval(&p).expect("a chain stays parked");
            self.idle.file(next, p);
        }
        self.eobs.rpcs.add(wakes);
        self.eobs.empty_replies.add(wakes);
        last
    }

    /// Puts parked chains back into the event queue: each wake is armed
    /// at its instant, in the order the unparked twins were armed in.
    fn release(&mut self, mut parked: Vec<Parked>) {
        parked.retain(|p| self.parked_interval(p).is_some());
        parked.sort_by_key(Parked::armed);
        for p in parked {
            let wake = self.sim.schedule_at(p.at, Ev::ClientWake(p.client));
            let h = &mut self.hot[p.client.0 as usize];
            h.parked = None;
            h.wake = Some(wake);
        }
    }

    /// The daemon tick, before its feeder pass: the interval that ends
    /// here, if no work was to be had in it, runs its chains through
    /// every wake it holds.
    pub(super) fn close_idle_interval(&mut self) {
        let Some(k) = self.idle.ticks.checked_sub(1) else {
            return;
        };
        if !self.idle.live {
            self.run_parked(k, |at, ahead| interval_of(at, ahead) <= k);
        }
        self.idle.retire_through(k);
    }

    /// The daemon tick, after its feeder pass: the interval that opens
    /// here is `live` when the pass found work, and then its chains'
    /// wakes go back into the event queue. Runs before the next tick is
    /// scheduled, so that a released wake at that tick's instant ranks
    /// ahead of it.
    pub(super) fn open_idle_interval(&mut self, live: bool) {
        debug_assert_eq!(self.sim.now().as_micros(), self.idle.ticks * TICK_US);
        self.idle.ticks += 1;
        self.idle.live = live;
        if live {
            let opened = self.idle.take(self.idle.ticks - 1);
            self.release(opened);
        }
    }

    /// Brings a parked client's chain up to `now` (every wake before it
    /// was an empty reply) and takes the client off the calendar, before
    /// an event that changes it.
    fn unpark(&mut self, cid: ClientId) {
        if self.hot[cid.0 as usize].parked.is_none() {
            return;
        }
        let scope = self.idle_sweep_scope();
        let _catch_up = scope.as_ref().map(|s| s.enter());
        let now = self.sim.now();
        let h = &mut self.hot[cid.0 as usize];
        h.parked = None;
        let mut wakes = 0;
        while h.next_rpc_at < now {
            h.back_off(h.next_rpc_at, &self.backoff);
            wakes += 1;
        }
        self.eobs.rpcs.add(wakes);
        self.eobs.empty_replies.add(wakes);
    }

    /// Runs the parked wakes of the current dead interval that the
    /// unparked engine would have dispatched by the time `run_until`
    /// returns: those before `now`, or, when the run ended on its
    /// horizon, every one up to the horizon (the clock then moves to
    /// the last of them).
    pub(super) fn settle_parked(&mut self, horizon: Option<SimTime>) {
        let Some(k) = self.idle.dead_interval() else {
            return;
        };
        let now = self.sim.now();
        let last = match horizon {
            Some(h) => self.run_parked(k, |at, _| at <= h),
            None => self.run_parked(k, |at, _| at < now),
        };
        if let Some(t) = last {
            self.sim.advance_clock(t);
        }
    }

    /// With the journal on, nothing parks; chains parked while it was
    /// off go back into the event queue (at the start of a run).
    pub(super) fn release_all_parked(&mut self) {
        // Same-instant wakes share a bucket, so releasing bucket by
        // bucket keeps their order.
        while let Some(bucket) = self.idle.buckets.pop_front() {
            self.release(bucket);
        }
    }

    /// Is a parked wake due before the next daemon tick?
    pub(super) fn parked_wakes_pending(&self) -> bool {
        self.idle.dead_interval().is_some()
    }

    /// The first parked wake at or after `c` before the next daemon
    /// tick, once the chains have run through their wakes before `c`.
    pub(super) fn first_parked_wake_from(&mut self, c: SimTime) -> Option<SimTime> {
        let k = self.idle.dead_interval()?;
        self.run_parked(k, |at, _| at < c);
        self.idle
            .bucket(k)
            .iter()
            .filter(|p| self.parked_interval(p) == Some(k))
            .map(|p| p.at)
            .min()
    }

    /// A pending time-based crash fires at the first event at or after
    /// its instant; when that is the parked wake at `w`, the wake runs,
    /// the clock moves to it, and the journal crashes there.
    pub(super) fn crash_on_parked_wake(&mut self, w: SimTime) {
        if let Some(k) = self.idle.dead_interval() {
            self.run_parked(k, |at, _| at <= w);
        }
        self.sim.advance_clock(w);
        self.durable.advance_to(w.as_micros());
        debug_assert!(self.durable.crashed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The point of [`ClientHot`]: one cache line, and never straddling
    /// two.
    #[test]
    fn client_hot_is_one_cache_line() {
        assert!(std::mem::size_of::<ClientHot>() <= 64);
        assert_eq!(std::mem::align_of::<ClientHot>(), 64);
    }

    /// The boundary rule. Tick `j` runs at `j · 5 s` and is scheduled by
    /// tick `j − 1`; a wake at a tick's instant runs ahead of it only
    /// when armed before that tick was scheduled, and then reads the
    /// interval before.
    #[test]
    fn a_wake_at_a_tick_instant_reads_the_feeder_of_whichever_ran_first() {
        let t = |s: u64| SimTime::from_secs(s);
        // Armed while tick 1 (5 s) was the last scheduled: ahead of the
        // 10 s tick, behind the 5 s one.
        assert!(ahead_of_tick(t(10), 1));
        assert!(!ahead_of_tick(t(5), 1));
        assert!(!ahead_of_tick(t(7), 0), "not a tick instant");
        assert_eq!(interval_of(t(10), true), 1);
        assert_eq!(interval_of(t(10), false), 2);
        assert_eq!(interval_of(t(9), false), 1);
        assert_eq!(interval_of(SimTime::from_micros(9_999_999), false), 1);
    }

    /// Released wakes that share an instant fire in the order their
    /// unparked twins were armed in, whatever order they were filed in.
    #[test]
    fn released_wakes_keep_their_twins_order() {
        use vmr_netsim::HostLink;
        let mut eng = Engine::builder(1)
            .clients((0..3).map(|_| {
                (
                    HostProfile::pc3001(),
                    HostLink::symmetric_mbit(100.0, 0.000_5),
                )
            }))
            .build();
        let at = SimTime::from_secs(100);
        let mut parked = Vec::new();
        for (c, armed_s) in [(0, 40), (1, 20), (2, 30)] {
            let h = &mut eng.hot[c as usize];
            if let Some(ev) = h.wake.take() {
                eng.sim.cancel(ev);
            }
            h.next_rpc_at = at;
            h.parked = Some(false);
            parked.push(Parked::new(ClientId(c), SimTime::from_secs(armed_s), at));
        }
        eng.release(parked);
        let fired: Vec<ClientId> = std::iter::from_fn(|| eng.sim.next_event_before(SimTime::MAX))
            .filter_map(|ev| match ev.payload {
                Ev::ClientWake(c) => Some(c),
                _ => None,
            })
            .collect();
        assert_eq!(fired, [ClientId(1), ClientId(2), ClientId(0)]);
        assert!((0..3).all(|c| eng.hot[c].parked.is_none()));
    }

    /// What a policy hears about tasks: (hook, work unit, instant in s).
    #[derive(Default)]
    struct TaskLog(Vec<(&'static str, String, f64)>);

    impl TaskLog {
        fn note(&mut self, eng: &Engine, hook: &'static str, rid: ResultId) {
            let name = eng.db.wu(eng.db.result(rid).wu).spec.name.clone();
            self.0.push((hook, name, eng.now().as_secs_f64()));
        }

        /// The hooks and work units, without the instants.
        fn order(&self) -> Vec<(&'static str, &str)> {
            self.0.iter().map(|(h, n, _)| (*h, n.as_str())).collect()
        }

        fn at(&self, hook: &str, name: &str) -> f64 {
            let e = self.0.iter().find(|e| e.0 == hook && e.1 == name);
            e.expect("the hook ran for the work unit").2
        }
    }

    impl Policy for TaskLog {
        fn on_task_granted(&mut self, eng: &mut Engine, _client: ClientId, rid: ResultId) {
            self.note(eng, "granted", rid);
        }
        fn on_task_executed(&mut self, eng: &mut Engine, _client: ClientId, rid: ResultId) {
            self.note(eng, "executed", rid);
        }
        fn on_result_reported(&mut self, eng: &mut Engine, rid: ResultId) {
            self.note(eng, "reported", rid);
        }
    }

    /// One client with two task slots (and the two-task buffer), a
    /// 1 MB/s downlink and a 125 kB/s uplink; the owner takes the
    /// machine only when the test says so.
    fn two_slot_client() -> Engine {
        use crate::host::Availability;
        use vmr_netsim::HostLink;
        let profile = HostProfile {
            slots: 2,
            availability: Some(Availability {
                on_mean_s: 1e12,
                off_mean_s: 1e12,
            }),
            ..HostProfile::pc3001()
        };
        Engine::builder(3)
            .client(profile, HostLink::asymmetric_mbit(8.0, 1.0, 0.000_5))
            .build()
    }

    /// A single-replica work unit: `flops` of compute (pc3001: 1.5
    /// GFLOPS), an optional server input and an optional upload.
    fn task(name: &str, flops: f64, input: u64, output: u64) -> crate::workunit::WorkUnitSpec {
        let mut s = crate::workunit::WorkUnitSpec::basic(name, "app", flops);
        s.target_nresults = 1;
        s.min_quorum = 1;
        if input > 0 {
            s.inputs = vec![crate::types::FileRef::on_server(
                format!("{name}_in"),
                input,
            )];
        }
        s.output_bytes = output;
        s.upload_outputs = output > 0;
        s
    }

    /// Results that became reportable while the owner held the machine
    /// go out at the next RPC in the order they became reportable: `b`
    /// (granted second, started second, its upload done first) ahead
    /// of `a`.
    #[test]
    fn reports_go_out_in_the_order_results_became_ready() {
        let mut eng = two_slot_client();
        eng.insert_workunit(task("a", 4e9, 0, 4_000_000));
        eng.insert_workunit(task("b", 1e9, 0, 2_000_000));
        // Both executions end within 6 s; the shared 125 kB/s uplink
        // keeps both uploads running past 10 s.
        eng.sim
            .schedule_at(SimTime::from_secs(10), Ev::Suspend(ClientId(0)));
        eng.sim
            .schedule_at(SimTime::from_secs(200), Ev::Resume(ClientId(0)));
        let mut log = TaskLog::default();
        eng.run_until(&mut log, SimTime::from_secs(1_000), |e| {
            e.db.all_wus_terminal()
        });
        assert_eq!(
            log.order(),
            [
                ("granted", "a"),
                ("granted", "b"),
                ("executed", "b"),
                ("executed", "a"),
                ("reported", "b"),
                ("reported", "a"),
            ]
        );
        assert!(log.at("executed", "a") < 10.0);
        assert_eq!(log.at("reported", "b"), 200.0);
        assert_eq!(log.at("reported", "a"), 200.0);
    }

    /// Tasks that started while the owner held the machine restart at
    /// resume in the order they started, which is the order they left
    /// the run queue: `b`'s smaller input lands first, so `b` runs
    /// ahead of `a`, which was granted first. With no compute left,
    /// both finish at the resume instant, in the order resume armed
    /// them.
    #[test]
    fn suspended_tasks_restart_in_the_order_they_started() {
        let mut eng = two_slot_client();
        eng.insert_workunit(task("a", 0.0, 40_000_000, 0));
        eng.insert_workunit(task("b", 0.0, 10_000_000, 0));
        // Granted by 3 s; the two downloads share 1 MB/s, so `b`'s
        // input lands near 23 s and `a`'s near 53 s.
        eng.sim
            .schedule_at(SimTime::from_secs(5), Ev::Suspend(ClientId(0)));
        eng.sim
            .schedule_at(SimTime::from_secs(100), Ev::Resume(ClientId(0)));
        let mut log = TaskLog::default();
        eng.run_until(&mut log, SimTime::from_secs(1_000), |e| {
            e.db.all_wus_terminal()
        });
        assert_eq!(
            log.order(),
            [
                ("granted", "a"),
                ("granted", "b"),
                ("executed", "b"),
                ("executed", "a"),
                ("reported", "b"),
                ("reported", "a"),
            ]
        );
        assert_eq!(log.at("executed", "b"), 100.0);
        assert_eq!(log.at("executed", "a"), 100.0);
    }

    /// A deadline that passes while a task's input is still coming in
    /// drops that task only: it never runs, its download finishing
    /// later starts nothing, the other task runs on, and the freed
    /// buffer slot takes new work.
    #[test]
    fn a_deadline_mid_download_drops_only_that_task() {
        let mut eng = two_slot_client();
        let mut a = task("a", 1e9, 40_000_000, 0);
        a.delay_bound = SimDuration::from_secs(15);
        eng.insert_workunit(a);
        eng.insert_workunit(task("b", 1e9, 1_000_000, 0));
        eng.insert_workunit(task("c", 1e9, 0, 0));
        // `a`'s 40 MB input needs over 40 s at 1 MB/s; its deadline is
        // 15 s after the grant.
        let mut log = TaskLog::default();
        eng.run_until(&mut log, SimTime::from_secs(300), |_| false);
        let ra = eng.db.results_of(crate::types::WuId(0))[0];
        assert_eq!(eng.db.result(ra).outcome, Some(ResultOutcome::NoReply));
        assert!(eng.clients[0].task(ra).is_none());
        assert_eq!(
            log.order(),
            [
                ("granted", "a"),
                ("granted", "b"),
                ("executed", "b"),
                ("reported", "b"),
                ("granted", "c"),
                ("executed", "c"),
                ("reported", "c"),
            ]
        );
        assert!(!eng.hot[0].busy, "every task left the client");
    }
}
