//! Iteration scheduling: per-event processing on banks and cores. Bank
//! events advance in-flight writes one iteration at a time; at every
//! iteration boundary the scheme's [`Scheme::on_iteration`] hook decides
//! whether the write keeps the bank or yields it to waiting reads, and
//! [`Scheme::on_admit`] decides whether a freshly admitted write charges
//! the IPM comparison read first.

use fpb_pcm::{IterKind, LineWrite};
use fpb_types::{Cycles, LineAddr};

use crate::bank::BankState;
use crate::inspect::{EventSink, LifecycleEvent, PowerOp, SchemeHook};
use crate::request::{ReadTask, WriteTask};
use crate::scheme::{AdmitAction, AdmitCtx, IterationAction, IterationCtx, Scheme, WriteStage};

use super::{System, SCRUB_CORE};

impl<S: Scheme, E: EventSink> System<S, E> {
    /// Handles the due event on bank `b` (caller checked due-ness).
    pub(super) fn process_bank_event(&mut self, b: usize) {
        let state = std::mem::replace(&mut self.banks[b].state, BankState::Idle);
        match state {
            BankState::Reading { core, .. } => {
                self.emit(LifecycleEvent::ReadDone {
                    bank: b as u8,
                    at: self.now.get(),
                    scrub: core == SCRUB_CORE,
                });
                if core != SCRUB_CORE {
                    self.cores[core].blocked = false;
                    let now = self.now;
                    let target = self.target_instr;
                    self.cores[core].schedule_next(now, target);
                    self.push_core_event(core);
                }
            }
            BankState::Writing {
                mut task,
                in_pre_read,
                cancel_pending,
                ..
            } => {
                if in_pre_read {
                    // Comparison read done; the admitted first
                    // iteration starts now.
                    self.transition(task.id, b, WriteStage::PreRead, WriteStage::Iterating);
                    self.start_iteration(b, task, cancel_pending);
                    return;
                }
                task.round_mut().advance();
                task.iterations_spent = task.iterations_spent.saturating_add(1);
                let wd = self.cfg.faults.watchdog_iterations;
                if self.faults.is_some()
                    && wd > 0
                    && !task.round().is_complete()
                    && task.iterations_spent >= wd
                {
                    // Watchdog: a round that burned this many
                    // iterations (retry storms on a persistently
                    // failing line) is force-closed so the bank and
                    // its tokens cannot be held hostage.
                    task.watchdog_tripped = true;
                    self.emit(LifecycleEvent::WatchdogTripped {
                        id: task.id.get(),
                        bank: b as u8,
                        at: self.now.get(),
                    });
                    self.finish_round(b, task);
                    return;
                }
                if task.round().is_complete() {
                    self.finish_round(b, task);
                } else if cancel_pending {
                    self.transition(task.id, b, WriteStage::Iterating, WriteStage::Queued);
                    self.cancel_write(task);
                } else {
                    let pause = self.pause_requested(b);
                    self.emit(LifecycleEvent::SchemeDecision {
                        hook: SchemeHook::Iteration,
                        action: pause as u8,
                        id: task.id.get(),
                        bank: b as u8,
                        at: self.now.get(),
                    });
                    if pause {
                        self.transition(task.id, b, WriteStage::Iterating, WriteStage::Paused);
                        self.power.release(task.id);
                        self.emit_power(task.id.get(), PowerOp::Release, true);
                        self.banks[b].parked = Some(task);
                    } else {
                        let ok = self.power.try_advance(task.id, task.round());
                        self.emit_power(task.id.get(), PowerOp::Advance, ok);
                        if ok {
                            self.transition(
                                task.id,
                                b,
                                WriteStage::Iterating,
                                WriteStage::Iterating,
                            );
                            self.start_iteration(b, task, false);
                        } else {
                            self.transition(
                                task.id,
                                b,
                                WriteStage::Iterating,
                                WriteStage::TokenStalled,
                            );
                            self.banks[b].state = BankState::WriteStalled {
                                task,
                                since: self.now,
                            };
                        }
                    }
                }
            }
            BankState::Draining { task, .. } => {
                // The assumed worst-case time has elapsed; the
                // feedback-less controller finally frees the bank.
                self.finish_round_now(b, task, WriteStage::Draining);
            }
            BankState::Backoff { mut task, .. } => {
                // Backoff expired: re-admit the restarted round.
                let ok = task.try_admit(&mut self.power);
                self.emit_power(task.id.get(), PowerOp::Admit, ok);
                if ok {
                    self.transition(task.id, b, WriteStage::Backoff, WriteStage::Iterating);
                    task.round_started_at = self.now;
                    self.start_iteration(b, task, false);
                } else {
                    self.transition(task.id, b, WriteStage::Backoff, WriteStage::RoundPending);
                    self.banks[b].state = BankState::AwaitingRound {
                        task,
                        since: self.now,
                    };
                }
            }
            other => {
                // Stalled/awaiting states carry no timed event.
                self.banks[b].state = other;
            }
        }
    }

    /// Consults the scheme's iteration hook for bank `b`. The context
    /// hands the hook lazy access to the read queues, preserving the hot
    /// path: the bank scan only runs when a scheme actually asks.
    fn pause_requested(&self, b: usize) -> bool {
        let ctx = IterationCtx::new(b, self.burst, &self.rdq, &self.pending_reads);
        self.setup.on_iteration(&ctx) == IterationAction::Pause
    }

    /// Reference stepper: visit every core and drain its ready ops.
    pub(super) fn process_core_arrivals(&mut self) {
        for ci in 0..self.cores.len() {
            self.process_core(ci);
        }
    }

    /// Drains core `ci`'s consecutive ready operations, then registers
    /// its next (future) arrival. A no-op for a core that is not ready.
    pub(super) fn process_core(&mut self, ci: usize) {
        loop {
            let ready = !self.cores[ci].done
                && !self.cores[ci].blocked
                && self.cores[ci].next_op.is_some()
                && self.cores[ci].ready_at <= self.now;
            if !ready {
                break;
            }
            // The ready check above guarantees a pending op; a bare
            // `None` would only mean scheduling skew, so stop draining.
            let Some(op) = self.cores[ci].take_op() else {
                break;
            };
            let outcome = self.cores[ci].llc_access(op.addr, op.is_write);
            for wb in outcome.writebacks {
                self.enqueue_write(LineAddr::new(wb), ci);
            }
            if op.is_write && outcome.fill.is_none() {
                // An L2 write-back into the LLC: non-blocking.
                let t = self.now + Cycles::new(1);
                let target = self.target_instr;
                self.cores[ci].schedule_next(t, target);
            } else if let Some(line) = outcome.fill {
                let line = LineAddr::new(line);
                if self.forward_from_write_queue(line) {
                    let t = self.now + Cycles::new(self.cfg.queues.mc_to_bank_cycles);
                    let target = self.target_instr;
                    self.cores[ci].schedule_next(t, target);
                } else {
                    self.cores[ci].blocked = true;
                    self.pending_reads.push_back(ReadTask {
                        core: ci,
                        line,
                        bank: line.bank_of(self.cfg.pcm.banks),
                        arrival: self.now,
                    });
                }
            } else {
                let hit_cycles = match outcome.level {
                    fpb_cache::HitLevel::L1 => self.cfg.cache.l1_hit_cycles,
                    fpb_cache::HitLevel::L2 => self.cfg.cache.l2_hit_cycles,
                    _ => self.cfg.cache.l3_hit_cycles,
                };
                let t = self.now + Cycles::new(hit_cycles);
                let target = self.target_instr;
                self.cores[ci].schedule_next(t, target);
            }
        }
        self.push_core_event(ci);
    }

    // ---- issue paths ----

    pub(super) fn issue_read(&mut self, r: ReadTask) {
        let start = self.now.max(self.bus_free_at);
        self.bus_free_at = start + Cycles::new(self.cfg.queues.bus_cycles_per_line);
        let done_at = start
            + Cycles::new(self.cfg.queues.mc_to_bank_cycles)
            + Cycles::new(self.cfg.pcm.read_cycles);
        let scrub = r.core == SCRUB_CORE;
        self.emit(LifecycleEvent::ReadIssued {
            core: if scrub { 0 } else { r.core as u64 },
            bank: r.bank.get(),
            at: self.now.get(),
            latency: done_at.saturating_sub(r.arrival).get(),
            scrub,
        });
        self.set_bank_state(
            r.bank.index(),
            BankState::Reading {
                done_at,
                core: r.core,
            },
        );
    }

    /// Issues a freshly admitted write task (round 0) to its bank. The
    /// scheme's admission hook decides whether the bridge chip's
    /// comparison read runs first (IPM) or programming starts at once.
    pub(super) fn issue_write(&mut self, bank: usize, mut task: WriteTask) {
        let start = self.now.max(self.bus_free_at) + Cycles::new(self.cfg.queues.mc_to_bank_cycles);
        self.bus_free_at =
            self.now.max(self.bus_free_at) + Cycles::new(self.cfg.queues.bus_cycles_per_line);
        let admit = self.setup.on_admit(AdmitCtx {
            pre_read_done: task.pre_read_done,
        });
        self.emit(LifecycleEvent::SchemeDecision {
            hook: SchemeHook::Admit,
            action: (admit == AdmitAction::PreRead) as u8,
            id: task.id.get(),
            bank: bank as u8,
            at: self.now.get(),
        });
        if admit == AdmitAction::PreRead {
            self.transition(task.id, bank, WriteStage::Queued, WriteStage::PreRead);
            task.pre_read_done = true;
            self.set_bank_state(
                bank,
                BankState::Writing {
                    iter_done_at: start + Cycles::new(self.cfg.pcm.compare_read_cycles),
                    task,
                    in_pre_read: true,
                    cancel_pending: false,
                },
            );
        } else {
            self.transition(task.id, bank, WriteStage::Queued, WriteStage::Iterating);
            let dur = self.iteration_cycles(task.round());
            self.set_bank_state(
                bank,
                BankState::Writing {
                    iter_done_at: start + dur,
                    task,
                    in_pre_read: false,
                    cancel_pending: false,
                },
            );
        }
    }

    /// Starts the next iteration of an already-admitted round.
    pub(super) fn start_iteration(&mut self, bank: usize, task: WriteTask, cancel_pending: bool) {
        let dur = self.iteration_cycles(task.round());
        self.set_bank_state(
            bank,
            BankState::Writing {
                iter_done_at: self.now + dur,
                task,
                in_pre_read: false,
                cancel_pending,
            },
        );
    }

    /// Duration of the round's next iteration. The caller guarantees the
    /// round is incomplete; if that invariant is ever broken, the SET
    /// pulse time is a safe fallback (the completed round closes at the
    /// next bank event rather than bringing the simulation down).
    pub(super) fn iteration_cycles(&self, write: &LineWrite) -> Cycles {
        match write.next_demand() {
            Some(d) => match d.kind {
                IterKind::Reset { .. } => Cycles::new(self.cfg.pcm.reset_cycles),
                IterKind::Set { .. } => Cycles::new(self.cfg.pcm.set_cycles),
            },
            None => Cycles::new(self.cfg.pcm.set_cycles),
        }
    }
}
