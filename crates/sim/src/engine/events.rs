//! Event stepping: the lazily-invalidated event heap and its reference
//! scan twin. Both visit due sources in the same order (banks ascending,
//! then cores ascending), so the two steppers are bit-for-bit identical.

use std::cmp::Reverse;

use fpb_core::WriteId;
use fpb_types::Cycles;

use crate::inspect::{EventSink, LifecycleEvent, PowerOp};
use crate::scheme::{Scheme, WriteLifecycle, WriteStage};

use super::{BankState, System};

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
            bank: bank as u8,
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

    /// Installs a bank state, registering its timed event (if any) in
    /// the event heap. Every site that creates a *new* timed state must
    /// go through this; plain assignment is reserved for restoring a
    /// state unchanged (its event is already registered).
    pub(super) fn set_bank_state(&mut self, bank: usize, state: BankState) {
        if let Some(t) = state.next_event() {
            self.events.push(Reverse((t, bank as u32)));
        }
        self.banks[bank].state = state;
    }

    /// Registers core `ci`'s next arrival in the event heap (a no-op if
    /// the core has nothing pending).
    pub(super) fn push_core_event(&mut self, ci: usize) {
        let c = &self.cores[ci];
        if !c.done && !c.blocked && c.next_op.is_some() {
            let src = (self.banks.len() + ci) as u32;
            self.events.push(Reverse((c.ready_at, src)));
        }
    }

    /// Heap-driven replacement for the per-step
    /// [`System::process_bank_events`] + [`System::process_core_arrivals`]
    /// scans: only sources with a due heap entry are visited. Processing
    /// order is banks ascending, then cores ascending — identical to the
    /// scans — and a second drain picks up cores made ready at exactly
    /// `now` by a bank completion (the scan's core pass runs after its
    /// bank pass and would see them too). Bank events that appear at
    /// exactly `now` during processing are deferred to the next step,
    /// again matching the scan.
    pub(super) fn process_due_events(&mut self) {
        let nbanks = self.banks.len() as u32;
        let mut due = std::mem::take(&mut self.due_scratch);
        let mut deferred = std::mem::take(&mut self.deferred_scratch);
        due.clear();
        deferred.clear();
        while let Some(&Reverse((t, src))) = self.events.peek() {
            if t > self.now {
                break;
            }
            self.events.pop();
            due.push(src);
        }
        due.sort_unstable();
        due.dedup();
        let core_start = due.partition_point(|&s| s < nbanks);
        for &src in &due[..core_start] {
            let b = src as usize;
            // Lazy invalidation: skip entries whose bank has moved on.
            if matches!(self.banks[b].state.next_event(), Some(t) if t <= self.now) {
                self.process_bank_event(b);
            }
        }
        while let Some(&Reverse((t, src))) = self.events.peek() {
            if t > self.now {
                break;
            }
            self.events.pop();
            if src < nbanks {
                deferred.push((t, src));
            } else {
                due.push(src);
            }
        }
        due[core_start..].sort_unstable();
        let mut prev = u32::MAX;
        for &src in &due[core_start..] {
            if src == prev {
                continue;
            }
            prev = src;
            self.process_core((src - nbanks) as usize);
        }
        for &(t, src) in &deferred {
            self.events.push(Reverse((t, src)));
        }
        due.clear();
        deferred.clear();
        self.due_scratch = due;
        self.deferred_scratch = deferred;
    }

    /// Reference stepper ([`System::try_step_reference`]): visit every
    /// bank and process the due ones.
    pub(super) fn process_bank_events(&mut self) {
        for b in 0..self.banks.len() {
            let due = matches!(self.banks[b].state.next_event(), Some(t) if t <= self.now);
            if due {
                self.process_bank_event(b);
            }
        }
    }

    /// Reference stepper: scan every bank and core for the earliest
    /// pending event.
    pub(super) fn next_event_time(&self) -> Option<Cycles> {
        let bank_next = self.banks.iter().filter_map(|b| b.state.next_event()).min();
        let core_next = self
            .cores
            .iter()
            .filter(|c| !c.done && !c.blocked && c.next_op.is_some())
            .map(|c| c.ready_at)
            .min();
        let next = match (bank_next, core_next) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.merge_global_events(next)
    }

    /// Heap stepper: the earliest *live* heap entry is the earliest
    /// pending bank/core event. Stale entries (their source has since
    /// scheduled a different time, or nothing at all) are popped on the
    /// way; every live event always has an entry at its exact time, so
    /// after cleanup the heap minimum equals the scan minimum.
    pub(super) fn next_event_time_heap(&mut self) -> Option<Cycles> {
        let nbanks = self.banks.len() as u32;
        let mut next = None;
        while let Some(&Reverse((t, src))) = self.events.peek() {
            let live = if src < nbanks {
                self.banks[src as usize].state.next_event() == Some(t)
            } else {
                let c = &self.cores[(src - nbanks) as usize];
                !c.done && !c.blocked && c.next_op.is_some() && c.ready_at == t
            };
            if live {
                next = Some(t);
                break;
            }
            self.events.pop();
        }
        self.merge_global_events(next)
    }

    /// Folds the stepper-independent event sources (scrub ticks,
    /// brownout window edges) into `next` and clamps time forward.
    fn merge_global_events(&self, mut next: Option<Cycles>) -> Option<Cycles> {
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
