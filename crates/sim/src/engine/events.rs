//! Event stepping: one next-event time per source and its reference scan
//! twin, plus the bank and core state both steppers keep current. Both
//! visit due sources in the same order (banks ascending, then cores
//! ascending), so the two steppers are bit-for-bit identical.

use fpb_core::WriteId;
use fpb_types::Cycles;

use crate::inspect::{EventSink, LifecycleEvent, PowerOp};
use crate::scheme::{Scheme, WriteLifecycle, WriteStage};

use super::{bank_id, Bank, BankState, CoreState, System};

/// Bank `bank`'s derived facts: its next event time (`Cycles::MAX` for
/// none), whether it is `Writing`, and whether it is token-starved
/// (`WriteStalled`, `AwaitingRound`) or holds a paused write.
fn bank_facts(bank: &Bank) -> (Cycles, bool, bool) {
    let writing = matches!(bank.state, BankState::Writing { .. });
    let starved = matches!(
        bank.state,
        BankState::WriteStalled { .. } | BankState::AwaitingRound { .. }
    );
    let next = bank.state.next_event().unwrap_or(Cycles::MAX);
    (next, writing, starved || bank.parked.is_some())
}

/// Core `c`'s next arrival (`Cycles::MAX` if it has nothing pending).
fn core_next(c: &CoreState) -> Cycles {
    if !c.done && !c.blocked && c.next_op.is_some() {
        c.ready_at
    } else {
        Cycles::MAX
    }
}

impl<S: Scheme, E: EventSink> System<S, E> {
    // ---- lifecycle-event emission ----

    /// Emits one lifecycle event: folds it into the run's metrics (the
    /// only place they are computed), then forwards it to the sink. With
    /// the default `NullSink` the forwarding const-folds away.
    #[inline]
    pub(super) fn emit(&mut self, ev: LifecycleEvent) {
        self.metrics.apply(&ev);
        if E::ENABLED {
            self.sink.emit(ev);
        }
    }

    /// Checks a write-lifecycle transition (debug builds) and records it
    /// as a [`LifecycleEvent::Stage`]. Replaces the stage modules' bare
    /// `WriteLifecycle::debug_check` calls: the event stream is exactly
    /// the checked transition set.
    #[inline]
    pub(super) fn transition(
        &mut self,
        id: WriteId,
        bank: usize,
        from: WriteStage,
        to: WriteStage,
    ) {
        WriteLifecycle::debug_check(from, to);
        self.emit(LifecycleEvent::Stage {
            id: id.get(),
            bank: bank_id(bank),
            at: self.now.get(),
            from,
            to,
        });
    }

    /// Records a power-accounting snapshot taken right after a
    /// [`fpb_core::PowerManager`] call (see [`LifecycleEvent::Power`]:
    /// absolute post-call stats, because outstanding/peak are not
    /// additive). `id` is 0 for brownout edges.
    #[inline]
    pub(super) fn emit_power(&mut self, id: u64, op: PowerOp, ok: bool) {
        self.emit(LifecycleEvent::Power {
            id,
            op,
            ok,
            at: self.now.get(),
            stats: self.power.stats().to_raw(),
            audit: self.power.audit_violations(),
        });
    }

    /// Which banks hold a write in any form, as a bitmask (config
    /// validation caps the bank count at 64) — what a step snapshot
    /// records.
    pub(super) fn bank_write_mask(&self) -> u64 {
        let mut mask = 0u64;
        for (i, b) in self.banks.iter().enumerate() {
            if b.state.has_write() || b.parked.is_some() {
                mask |= 1 << i;
            }
        }
        mask
    }

    /// Installs a bank state and recomputes the bank's derived facts.
    /// Every write of a bank's state goes through here, or is followed by
    /// [`System::sync_bank`].
    pub(super) fn set_bank_state(&mut self, bank: usize, state: BankState) {
        self.banks[bank].state = state;
        self.sync_bank(bank);
    }

    /// Recomputes bank `b`'s derived facts: its entry in `next_at` and its
    /// bits in `writing_mask` and `parked_mask`. Idempotent, so it may run
    /// after any change to bank `b`; a change to bank `b` changes no other
    /// bank's facts.
    pub(super) fn sync_bank(&mut self, b: usize) {
        let (next, writing, parked) = bank_facts(&self.banks[b]);
        self.next_at[b] = next;
        let bit = 1u64 << b;
        self.writing_mask = (self.writing_mask & !bit) | if writing { bit } else { 0 };
        self.parked_mask = (self.parked_mask & !bit) | if parked { bit } else { 0 };
    }

    /// Records core `ci`'s next arrival in `next_at` (`Cycles::MAX` if it
    /// has nothing pending).
    pub(super) fn sync_core(&mut self, ci: usize) {
        self.next_at[self.banks.len() + ci] = core_next(&self.cores[ci]);
    }

    /// Schedules core `ci`'s next operation from `at`, counting the core
    /// in `cores_done` when this retires its budget.
    pub(super) fn schedule_core(&mut self, ci: usize, at: Cycles) {
        let core = &mut self.cores[ci];
        let was_done = core.done;
        core.schedule_next(at, self.target_instr);
        self.cores_done += usize::from(core.done && !was_done);
    }

    /// Replaces the per-step [`System::process_bank_events`] +
    /// [`System::process_core_arrivals`] scans with reads of `next_at`:
    /// the due banks in ascending order, then the due cores in ascending
    /// order, as the scans visit them. Processing bank `b` changes only
    /// bank `b` and the core its read wakes, so a bank event that appears
    /// at `now` waits for the next step, as in the scan, and a core made
    /// ready at `now` by a bank completion is processed in this step.
    pub(super) fn process_due_events(&mut self) {
        let nbanks = self.banks.len();
        for b in 0..nbanks {
            if self.next_at[b] <= self.now {
                self.process_bank_event(b);
                self.sync_bank(b);
            }
        }
        for ci in 0..self.cores.len() {
            if self.next_at[nbanks + ci] <= self.now {
                self.process_core(ci);
            }
        }
    }

    /// Reference stepper ([`System::try_step_reference`]): visit every
    /// bank and process the due ones.
    pub(super) fn process_bank_events(&mut self) {
        for b in 0..self.banks.len() {
            let due = matches!(self.banks[b].state.next_event(), Some(t) if t <= self.now);
            if due {
                self.process_bank_event(b);
                self.sync_bank(b);
            }
        }
    }

    /// Reference stepper: scan every bank and core for the earliest
    /// pending event.
    pub(super) fn next_event_time(&self) -> Option<Cycles> {
        let bank_next = self.banks.iter().filter_map(|b| b.state.next_event());
        let core_next = self
            .cores
            .iter()
            .filter(|c| !c.done && !c.blocked && c.next_op.is_some())
            .map(|c| c.ready_at);
        bank_next.chain(core_next).min()
    }

    /// Debug builds (DESIGN §8.1's twins): every entry of `next_at`, both
    /// bank masks and `cores_done` equal what a scan computes.
    pub(super) fn debug_check_derived(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let (mut writing, mut parked) = (0u64, 0u64);
        for (b, bank) in self.banks.iter().enumerate() {
            let (next, w, p) = bank_facts(bank);
            assert_eq!(self.next_at[b], next, "bank {b}: next event");
            writing |= u64::from(w) << b;
            parked |= u64::from(p) << b;
        }
        assert_eq!(self.writing_mask, writing, "writing banks");
        assert_eq!(self.parked_mask, parked, "parked banks");
        for (ci, c) in self.cores.iter().enumerate() {
            let next = self.next_at[self.banks.len() + ci];
            assert_eq!(next, core_next(c), "core {ci}: next arrival");
        }
        let done = self.cores.iter().filter(|c| c.done).count();
        assert_eq!(self.cores_done, done, "cores done");
    }

    /// Folds the stepper-independent event sources (scrub ticks,
    /// brownout window edges) into `next` and clamps time forward.
    pub(super) fn merge_global_events(&self, mut next: Option<Cycles>) -> Option<Cycles> {
        // A pending scrub candidate makes the scrub tick a real event.
        if self.scrub_period.is_some() && !self.recent_writes.is_empty() {
            next = Some(match next {
                Some(t) => t.min(self.next_scrub_at),
                None => self.next_scrub_at,
            });
        }
        // Brownout window edges are real events: tokens withheld at the
        // start must be restored at the end, and a write refused under the
        // shrunk budget only becomes admissible once the window closes —
        // skipping the edge would deadlock it.
        if let Some(inj) = self.faults.as_ref() {
            if let Some(edge) = inj.next_brownout_boundary(self.now) {
                next = Some(match next {
                    Some(t) => t.min(edge),
                    None => edge,
                });
            }
        }
        next.map(|t| t.max(self.now + Cycles::new(1)))
    }
}
