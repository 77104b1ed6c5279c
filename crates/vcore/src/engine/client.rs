//! The volunteer side: one [`Client`] per host and its pull-model state
//! machine — scheduler RPC with exponential backoff, download → queue →
//! execute → upload → report-at-next-RPC, owner suspend/resume, report
//! deadlines and permanent dropout.

use super::transfer::InputSlot;
use super::{clique_fingerprint, honest_fingerprint, Engine, Ev, Lane, Policy, ServedFile};
use crate::backoff::Backoff;
use crate::fault::Corruption;
use crate::host::{HostProfile, ValidationCounts};
use crate::sched::{pick_results, WorkRequest};
use crate::types::{ClientId, OutputFingerprint, ResultId};
use crate::workunit::{ResultOutcome, ResultState};
use std::collections::{HashMap, VecDeque};
use vmr_desim::{EventId, RngStream, SimDuration, SimTime};
use vmr_netsim::HostId;
use vmr_obs::EventKind;

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

/// One volunteer host.
pub(super) struct Client {
    pub(super) host: HostId,
    pub(super) profile: HostProfile,
    pub(super) rng: RngStream,
    pub(super) tasks: HashMap<ResultId, TaskProgress>,
    pub(super) run_queue: VecDeque<ResultId>,
    pub(super) running: Vec<ResultId>,
    pub(super) ready_to_report: Vec<(ResultId, Option<OutputFingerprint>, bool)>, // (rid, fp, errored)
    pub(super) backoff: Backoff,
    pub(super) next_rpc_at: SimTime,
    pub(super) wake: Option<EventId>,
    pub(super) served: HashMap<String, ServedFile>,
    pub(super) serving_now: u32,
    pub(super) dropped: bool,
    pub(super) suspended: bool,
}

impl Client {
    /// Is this client serving `name` to peers at `now` — registered,
    /// and inside its serving window (§III.C's mapper-side timeout)?
    pub(super) fn serves(&self, name: &str, now: SimTime) -> bool {
        self.served
            .get(name)
            .map(|f| f.until.map(|u| now <= u).unwrap_or(true))
            .unwrap_or(false)
    }
}

impl Engine {
    /// Registers a client over an already-placed network host (the
    /// builder path: hosts go into the topology before the network
    /// engine exists, so no rebuild is needed).
    pub(super) fn push_client(&mut self, profile: HostProfile, host: HostId) -> ClientId {
        let id = ClientId(self.clients.len() as u32);
        let rng = self.rng.fork(&format!("client-{}", id.0));
        let (bmin, bmax) = self.cfg.backoff_bounds();
        let mut c = Client {
            host,
            profile,
            rng,
            tasks: HashMap::new(),
            run_queue: VecDeque::new(),
            running: Vec::new(),
            ready_to_report: Vec::new(),
            backoff: Backoff::with_bounds(bmin, bmax),
            next_rpc_at: SimTime::ZERO,
            wake: None,
            served: HashMap::new(),
            serving_now: 0,
            dropped: false,
            suspended: false,
        };
        // Stagger initial contact to avoid a lockstep thundering herd.
        let stagger = SimDuration::from_secs_f64(c.rng.uniform_f64(0.0, 3.0));
        c.next_rpc_at = SimTime::ZERO + stagger;
        let ev = self.sim.schedule_at(c.next_rpc_at, Ev::ClientWake(id));
        c.wake = Some(ev);
        self.clients.push(c);
        self.host_outcomes.push(ValidationCounts::default());
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
                let first_on = {
                    let c = &mut self.clients[i];
                    SimDuration::from_secs_f64(c.rng.exponential(av.on_mean_s))
                };
                self.sim.schedule_in(first_on, Ev::Suspend(id));
            }
        }
    }

    /// The owner takes the machine: pause execution and scheduler
    /// contact; in-flight transfers continue (BOINC keeps network
    /// activity in the background by default).
    pub(super) fn on_suspend(&mut self, cid: ClientId) {
        let now = self.sim.now();
        if self.clients[cid.0 as usize].dropped || self.clients[cid.0 as usize].suspended {
            return;
        }
        self.clients[cid.0 as usize].suspended = true;
        let running: Vec<ResultId> = self.clients[cid.0 as usize].running.clone();
        for rid in running {
            if let Some(t) = self.clients[cid.0 as usize].tasks.get_mut(&rid) {
                if let (Some(ev), Some(started), Some(total)) =
                    (t.exec_ev.take(), t.exec_started, t.exec_remaining)
                {
                    self.sim.cancel(ev);
                    let done = now.saturating_since(started);
                    let left = total.saturating_sub(done);
                    // Restore into the slot the resume handler reads.
                    let t = self.clients[cid.0 as usize].tasks.get_mut(&rid).unwrap();
                    t.exec_remaining = Some(left);
                }
            }
        }
        if let Some(ev) = self.clients[cid.0 as usize].wake.take() {
            self.sim.cancel(ev);
        }
        let off = {
            let av = self.clients[cid.0 as usize].profile.availability.unwrap();
            let c = &mut self.clients[cid.0 as usize];
            SimDuration::from_secs_f64(c.rng.exponential(av.off_mean_s).max(1.0))
        };
        self.obs
            .journal
            .point(Lane(cid), "suspend", "", now.as_micros());
        self.sim.schedule_in(off, Ev::Resume(cid));
    }

    /// The machine is idle again: resume paused executions and resume
    /// polling the scheduler.
    pub(super) fn on_resume(&mut self, cid: ClientId) {
        let now = self.sim.now();
        if self.clients[cid.0 as usize].dropped {
            return;
        }
        self.clients[cid.0 as usize].suspended = false;
        let running: Vec<ResultId> = self.clients[cid.0 as usize].running.clone();
        for rid in running {
            let left = self.clients[cid.0 as usize]
                .tasks
                .get(&rid)
                .and_then(|t| t.exec_remaining);
            if let Some(left) = left {
                let ev = self.sim.schedule_in(left, Ev::ExecDone(cid, rid));
                let t = self.clients[cid.0 as usize].tasks.get_mut(&rid).unwrap();
                t.exec_ev = Some(ev);
                t.exec_started = Some(now);
            }
        }
        self.obs
            .journal
            .point(Lane(cid), "resume", "", now.as_micros());
        let on = {
            let av = self.clients[cid.0 as usize].profile.availability.unwrap();
            let c = &mut self.clients[cid.0 as usize];
            SimDuration::from_secs_f64(c.rng.exponential(av.on_mean_s).max(1.0))
        };
        self.sim.schedule_in(on, Ev::Suspend(cid));
        self.clients[cid.0 as usize].next_rpc_at =
            now.max(self.clients[cid.0 as usize].next_rpc_at);
        self.maybe_contact_server(cid);
        self.try_start_tasks(cid);
    }

    // ----- client: scheduler RPC --------------------------------------------

    pub(super) fn client_rpc<P: Policy>(&mut self, policy: &mut P, cid: ClientId) {
        let now = self.sim.now();
        {
            let c = &mut self.clients[cid.0 as usize];
            c.wake = None;
            if c.dropped || c.suspended {
                return;
            }
            if now < c.next_rpc_at {
                // Woken early (stale event); re-arm at the right time.
                let t = c.next_rpc_at;
                let ev = self.sim.schedule_at(t, Ev::ClientWake(cid));
                self.clients[cid.0 as usize].wake = Some(ev);
                return;
            }
        }
        self.stats.rpcs += 1;
        self.eobs.rpcs.inc();

        // 1. Deliver reports.
        let reports = std::mem::take(&mut self.clients[cid.0 as usize].ready_to_report);
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
                    .tasks
                    .get(&rid)
                    .and_then(|t| t.exec_done_at)
                {
                    let delay_s = now.saturating_since(t).as_secs_f64();
                    self.stats.report_delay.record(delay_s);
                    self.eobs.report_delay_s.record(delay_s);
                }
                self.obs
                    .journal
                    .point(Lane(cid), "report", rid, now.as_micros());
                reported_wus.push(self.db.result(rid).wu);
                policy.on_result_reported(self, rid);
            }
            self.clients[cid.0 as usize].tasks.remove(&rid);
        }
        for wu in reported_wus {
            self.after_report_transition(policy, wu);
        }

        // 2. Work request.
        let live = self.clients[cid.0 as usize].tasks.len() as u32;
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
                let served = &self.clients[cid.0 as usize].served;
                let mut scored: Vec<(usize, ResultId)> = self
                    .feeder
                    .candidates()
                    .map(|rid| {
                        let score = self
                            .db
                            .inputs_of(rid)
                            .iter()
                            .filter(|f| served.contains_key(&f.name))
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
                policy.on_task_granted(self, cid, rid);
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
                let c = &mut self.clients[cid.0 as usize];
                let d = c.backoff.on_empty_reply(&mut c.rng);
                c.next_rpc_at = now + d;
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
            let c = &mut self.clients[cid.0 as usize];
            c.backoff.on_work_received();
            c.next_rpc_at = now;
        }
    }

    /// Schedules (or keeps) a ClientWake at `max(now, next_rpc_at)`.
    pub(super) fn schedule_rpc_wake(&mut self, cid: ClientId) {
        let now = self.sim.now();
        let t = self.clients[cid.0 as usize].next_rpc_at.max(now);
        if let Some(ev) = self.clients[cid.0 as usize].wake {
            if self.sim.is_pending(ev) {
                // Keep the earlier of the two.
                self.sim.cancel(ev);
            }
        }
        let ev = self.sim.schedule_at(t, Ev::ClientWake(cid));
        self.clients[cid.0 as usize].wake = Some(ev);
    }

    /// A client state change that may warrant contacting the server:
    /// reports pending or free slots. Respects the backoff gate.
    pub(super) fn maybe_contact_server(&mut self, cid: ClientId) {
        let c = &self.clients[cid.0 as usize];
        if c.dropped {
            return;
        }
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
            self.clients[cid.0 as usize].next_rpc_at = self.sim.now();
            self.schedule_rpc_wake(cid);
        }
    }

    // ----- client: task lifecycle --------------------------------------------

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
        self.clients[cid.0 as usize].tasks.insert(rid, progress);
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
            let c = &mut self.clients[cid.0 as usize];
            if c.dropped {
                return;
            }
            if c.running.len() >= c.profile.slots as usize {
                return;
            }
            let Some(rid) = c.run_queue.pop_front() else {
                return;
            };
            let Some(t) = c.tasks.get_mut(&rid) else {
                continue;
            };
            t.state = TaskState::Running;
            c.running.push(rid);
            let flops = self.db.wu(self.db.result(rid).wu).spec.flops;
            let jitter = {
                let j = self.cfg.compute_jitter;
                if j > 0.0 {
                    self.clients[cid.0 as usize]
                        .rng
                        .uniform_f64(1.0 - j, 1.0 + j)
                } else {
                    1.0
                }
            };
            let secs = self.clients[cid.0 as usize].profile.compute_seconds(flops) * jitter;
            let dur = SimDuration::from_secs_f64(secs);
            if self.clients[cid.0 as usize].suspended {
                // Owner is using the machine: the task is queued with
                // its full compute debt; it starts at resume.
                let t = self.clients[cid.0 as usize].tasks.get_mut(&rid).unwrap();
                t.exec_started = Some(now);
                t.exec_remaining = Some(dur);
                continue;
            }
            let ev = self.sim.schedule_in(dur, Ev::ExecDone(cid, rid));
            let t = self.clients[cid.0 as usize].tasks.get_mut(&rid).unwrap();
            t.exec_ev = Some(ev);
            t.exec_started = Some(now);
            t.exec_remaining = Some(dur);
        }
    }

    pub(super) fn on_exec_done<P: Policy>(&mut self, policy: &mut P, cid: ClientId, rid: ResultId) {
        let now = self.sim.now();
        {
            let c = &mut self.clients[cid.0 as usize];
            if c.dropped {
                return;
            }
            c.running.retain(|&r| r != rid);
        }
        let exists = self.clients[cid.0 as usize].tasks.contains_key(&rid);
        if !exists {
            self.try_start_tasks(cid);
            return;
        }

        // Compute the output fingerprint (honest or corrupted).
        let wu = self.db.result(rid).wu;
        let honest = honest_fingerprint(&self.db.wu(wu).spec.name);
        let (errored, fp) = {
            let c = &mut self.clients[cid.0 as usize];
            if self.fault.task_errors_now(&mut c.rng) {
                (true, None)
            } else {
                match self.fidx.corruption_now(cid, now, &mut c.rng) {
                    Corruption::None => (false, Some(honest)),
                    Corruption::Random => (
                        false,
                        Some(OutputFingerprint(honest.0 ^ c.rng.next_u64() | 1)),
                    ),
                    // Colluders emit the clique's shared wrong answer —
                    // identical across members, so they can outvote an
                    // honest minority (or agree under spot-checks).
                    Corruption::Clique(tag) => (false, Some(clique_fingerprint(honest, tag))),
                }
            }
        };
        {
            let t = self.clients[cid.0 as usize].tasks.get_mut(&rid).unwrap();
            let start = t.dl_done_at.unwrap_or(t.assigned_at);
            t.exec_done_at = Some(now);
            t.fingerprint = fp;
            t.errored = errored;
            self.obs
                .journal
                .span(Lane(cid), "exec", rid, start.as_micros(), now.as_micros());
        }
        policy.on_task_executed(self, cid, rid);

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
                let cl = &mut self.clients[c.0 as usize];
                cl.tasks.remove(&rid);
                cl.run_queue.retain(|&x| x != rid);
                cl.running.retain(|&x| x != rid);
                self.swarm.retain(|k, _| !(k.0 == c.0 && k.1 == rid.0));
            }
            self.after_report_transition(policy, wu);
        }
    }

    pub(super) fn on_dropout(&mut self, cid: ClientId) {
        let c = &mut self.clients[cid.0 as usize];
        c.dropped = true;
        c.served.clear();
        c.run_queue.clear();
        c.running.clear();
        c.ready_to_report.clear();
        if let Some(ev) = c.wake.take() {
            self.sim.cancel(ev);
        }
        self.obs
            .journal
            .point(Lane(cid), "dropout", "", self.sim.now().as_micros());
        self.abort_flows_of(cid);
        // Swarm bookkeeping: the dropped host stops seeding, and its
        // own in-progress transfers die with it.
        self.swarm_index.drop_client(cid.0);
        self.swarm.retain(|k, _| k.0 != cid.0);
    }
}
