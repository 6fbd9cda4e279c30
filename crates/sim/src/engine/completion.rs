//! Completion and reclaim: closing a round, the scheme's release hook
//! (worst-case draining for feedback-less controllers), verify-failure
//! recovery, cancellation, and buffer reclaim back into the pool.

use fpb_types::Cycles;

use crate::bank::BankState;
use crate::inspect::{EventSink, LifecycleEvent, PowerOp, SchemeHook};
use crate::request::WriteTask;
use crate::scheme::{ReleaseAction, ReleaseCtx, Scheme, WriteStage};

use super::{bank_id, System};

impl<S: Scheme, E: EventSink> System<S, E> {
    /// Closes the round that just completed its final iteration. The
    /// scheme's release hook may hold the bank until the assumed
    /// worst-case write time has elapsed (a controller without device
    /// feedback cannot observe early completion, §2.1.1).
    pub(super) fn finish_round(&mut self, bank: usize, task: WriteTask) {
        let ctx = ReleaseCtx {
            now: self.now,
            round_started_at: task.round_started_at,
        };
        let hold = self.setup.on_release(ctx) == ReleaseAction::HoldWorstCase;
        self.emit(LifecycleEvent::SchemeDecision {
            hook: SchemeHook::Release,
            action: hold as u8,
            id: task.id.get(),
            bank: bank_id(bank),
            at: self.now.get(),
        });
        if hold {
            let until = task.round_started_at + self.worst_case_write_cycles(&task);
            if until > self.now {
                self.transition(task.id, bank, WriteStage::Iterating, WriteStage::Draining);
                self.set_bank_state(bank, BankState::Draining { task, until });
                return;
            }
        }
        self.finish_round_now(bank, task, WriteStage::Iterating);
    }

    /// Worst-case duration of the current round, as a controller without
    /// device feedback must assume it (§2.1.1): every cell takes the P&V
    /// bound.
    fn worst_case_write_cycles(&self, task: &WriteTask) -> Cycles {
        let resets = task.round().reset_groups() as u64;
        let sets = self.sampler.worst_case_iterations().saturating_sub(1) as u64;
        Cycles::new(resets * self.cfg.pcm.reset_cycles + sets * self.cfg.pcm.set_cycles)
    }

    pub(super) fn finish_round_now(&mut self, bank: usize, mut task: WriteTask, from: WriteStage) {
        self.power.release(task.id);
        self.emit_power(task.id.get(), PowerOp::Release, true);
        // Device fault hook: the round's closing verify may fail (skipped
        // when the watchdog already force-closed the round — it must free
        // the bank unconditionally).
        if !task.watchdog_tripped {
            if let Some(inj) = self.faults.as_mut() {
                if inj.round_fails_verify(task.line) {
                    self.handle_verify_failure(bank, task, from);
                    return;
                }
            }
        }
        // Emitted before the stuck-at model runs: the fold records this
        // round's wear in the tracker the model reads.
        self.emit(LifecycleEvent::RoundClosed {
            id: task.id.get(),
            line: task.line.get(),
            bank: bank_id(bank),
            at: self.now.get(),
            cells: task.round().total_changed() as u64,
            truncated: task.round().was_truncated(),
            final_round: task.current_round + 1 >= task.rounds.len(),
            per_chip: task.round().per_chip_changed(),
        });
        if let (Some(inj), Some(wear)) = (self.faults.as_mut(), self.metrics.endurance.as_ref()) {
            let before = inj.stuck_marked();
            inj.note_write(task.line, wear);
            // The injector marks at most one stuck line per write; a
            // nonzero delta is the recorded mark.
            let lines = inj.stuck_marked() - before;
            if lines > 0 {
                self.emit(LifecycleEvent::StuckMarked {
                    lines,
                    at: self.now.get(),
                });
            }
        }
        // The round closed: its recovery bookkeeping starts fresh.
        task.retries = 0;
        task.iterations_spent = 0;
        task.watchdog_tripped = false;
        if task.next_round() {
            self.transition(task.id, bank, from, WriteStage::RoundPending);
            let awaiting = BankState::AwaitingRound {
                task,
                since: self.now,
            };
            self.set_bank_state(bank, awaiting);
        } else {
            self.transition(task.id, bank, from, WriteStage::Done);
            if self.scrub_period.is_some() {
                if self.recent_writes.len() >= 4096 {
                    self.recent_writes.pop_front();
                }
                self.recent_writes.push_back(task.line);
            }
            self.set_bank_state(bank, BankState::Idle);
            self.pool.recycle_rounds(task.rounds);
        }
    }

    /// A round's closing verify failed. Bounded recovery: retry the round
    /// after an exponential backoff; once retries are exhausted, remap the
    /// line to a spare and rewrite the round in SLC fallback mode (RESET
    /// pulses only — single-level programming completes even on weak
    /// cells).
    fn handle_verify_failure(&mut self, bank: usize, mut task: WriteTask, from: WriteStage) {
        self.transition(task.id, bank, from, WriteStage::Backoff);
        let fcfg = self.cfg.faults.clone();
        if task.retries < fcfg.max_retries {
            task.retries += 1;
            self.emit(LifecycleEvent::VerifyFailed {
                id: task.id.get(),
                line: task.line.get(),
                at: self.now.get(),
                remapped: false,
                retries: u64::from(task.retries),
            });
            // Doubling backoff, shift-clamped so u8::MAX retries cannot
            // overflow the cycle math.
            let backoff = fcfg
                .retry_backoff_cycles
                .saturating_mul(1u64 << (u32::from(task.retries) - 1).min(16))
                .max(1);
            task.round_mut().restart();
            self.set_bank_state(
                bank,
                BankState::Backoff {
                    task,
                    until: self.now + Cycles::new(backoff),
                },
            );
        } else {
            if let Some(inj) = self.faults.as_mut() {
                inj.remap(task.line);
            }
            self.emit(LifecycleEvent::VerifyFailed {
                id: task.id.get(),
                line: task.line.get(),
                at: self.now.get(),
                remapped: true,
                retries: u64::from(task.retries),
            });
            task.retries = 0;
            task.round_mut().restart();
            task.round_mut().degrade_to_slc();
            let until = self.now + Cycles::new(fcfg.retry_backoff_cycles.max(1));
            self.set_bank_state(bank, BankState::Backoff { task, until });
        }
    }

    /// Cancels an in-flight write at an iteration boundary: tokens are
    /// released, the round restarts from scratch, and the task returns to
    /// the head of the write queue.
    pub(super) fn cancel_write(&mut self, mut task: WriteTask) {
        self.power.release(task.id);
        self.emit_power(task.id.get(), PowerOp::Release, true);
        task.round_mut().restart();
        self.wrq.push_front(task);
    }
}
