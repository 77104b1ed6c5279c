//! The volunteer side: one [`Client`] per host and its pull-model state
//! machine — scheduler RPC with exponential backoff, download → queue →
//! execute → upload → report-at-next-RPC, owner suspend/resume, report
//! deadlines and permanent dropout.

use super::transfer::InputSlot;
use super::{clique_fingerprint, honest_fingerprint, Engine, Ev, Policy};
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
}

/// One volunteer host: everything but its [`ClientHot`].
pub(super) struct Client {
    pub(super) host: HostId,
    pub(super) profile: HostProfile,
    /// Tasks held, at most `client_buffer_slots` of them: looked up by
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
        self.stats.rpcs += 1;
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
                self.stats.reports += 1;
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
                    let delay_s = now.saturating_since(t).as_secs_f64();
                    self.stats.report_delay.record(delay_s);
                    self.eobs.report_delay_s.record(delay_s);
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
        let mut slots_wanted = self.cfg.client_buffer_slots.saturating_sub(live);
        // Quarantine: unreliable hosts get no work (BOINC-style host
        // punishment driven by the validation ledger).
        if let Some(limit) = self.cfg.max_host_error_rate {
            if self.credit.account(cid).error_rate() > limit {
                slots_wanted = 0;
            }
        }
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
                    self.cfg.max_results_per_rpc,
                )
            } else {
                // The candidate stream is lazy: the grant fills after
                // a handful of results and the rest is never scanned.
                pick_results(
                    &self.db,
                    self.feeder.candidates(),
                    req,
                    self.cfg.max_results_per_rpc,
                )
            };
            got_work = !picked.is_empty();
            n_granted = picked.len() as u32;
            for rid in picked {
                self.feeder.remove(rid);
                let deadline = now + self.db.wu(self.db.result(rid).wu).spec.delay_bound;
                self.db.mark_sent(rid, cid, now, deadline);
                self.stats.grants += 1;
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
            self.stats.empty_replies += 1;
            self.eobs.empty_replies.inc();
            let delay = {
                let h = &mut self.hot[cid.0 as usize];
                h.backoff_failures = h.backoff_failures.saturating_add(1);
                let d = self.backoff.delay_after(h.backoff_failures, &mut h.rng);
                h.next_rpc_at = now + d;
                d
            };
            self.obs
                .journal
                .record_with(now.as_micros(), || EventKind::BackoffArmed {
                    client: cid.0,
                    delay_us: delay.as_micros(),
                });
            // A fully idle client re-polls at backoff expiry; a busy one
            // will naturally wake on task completion (and must still
            // respect next_rpc_at).
            self.schedule_rpc_wake(cid);
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
        let wants =
            !c.ready_to_report.is_empty() || (c.tasks.len() as u32) < self.cfg.client_buffer_slots;
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
            let jitter = {
                let j = self.cfg.compute_jitter;
                if j > 0.0 {
                    self.hot[cid.0 as usize].rng.uniform_f64(1.0 - j, 1.0 + j)
                } else {
                    1.0
                }
            };
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
}
