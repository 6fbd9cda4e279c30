//! Admission: the between-events scheduling pass implementing the
//! paper's controller policy (reads first; writes only when no read is
//! waiting; a write burst — which blocks reads — whenever the write
//! queue fills, §5.1), plus write-task creation and the read-arrival
//! notification that drives the scheme's cancellation hook.

use fpb_core::{AdmitMemo, WriteId};
use fpb_pcm::{CellMapping, DimmGeometry, IterationSampler, LineWrite, WriteBufferPool};
use fpb_types::{Cycles, LineAddr, SimRng};

use crate::bank::BankState;
use crate::inspect::{EventSink, LifecycleEvent, PowerOp, SchemeHook};
use crate::request::{ReadTask, WriteTask};
use crate::scheme::{ReadArrivalAction, ReadArrivalCtx, Scheme, WriteStage};

use super::{System, SCRUB_CORE};

impl<S: Scheme, E: EventSink> System<S, E> {
    // ---- scheduling pass ----

    pub(super) fn schedule(&mut self) {
        // Nothing queued, parked or scrubbed: of the phases below, only
        // phase 2 acts, and it ends any burst.
        if self.wrq.is_empty()
            && self.overflow.is_empty()
            && self.rdq.is_empty()
            && self.pending_reads.is_empty()
            && self.parked_mask == 0
            && self.scrub_period.is_none()
        {
            self.burst = false;
            return;
        }
        // 1. Overflowed writes move into the queue as space frees.
        while self.wrq.len() < self.cfg.queues.write_entries {
            match self.overflow.pop_front() {
                Some(t) => self.wrq.push_back(t),
                None => break,
            }
        }
        // 2. Write-burst bookkeeping (§5.1: burst while the full queue
        // drains to empty).
        if self.wrq.len() >= self.cfg.queues.write_entries {
            self.burst = true;
        }
        if self.burst && self.wrq.is_empty() && self.overflow.is_empty() {
            self.burst = false;
        }
        // 3. Retry parked writes: token stalls, round boundaries, pauses.
        self.retry_parked();
        // 4. Pending reads enter the read queue as space frees.
        while self.rdq.len() < self.cfg.queues.read_entries {
            match self.pending_reads.pop_front() {
                Some(r) => {
                    self.note_read_arrival(r.bank);
                    self.rdq.push_back(r);
                }
                None => break,
            }
        }
        // 4b. Periodic drift scrubbing: re-read recently written lines so
        // their intermediate levels are refreshed before drifting across a
        // read boundary. Scrubs ride the normal read path but never block
        // a core.
        if let Some(period) = self.scrub_period {
            while self.now >= self.next_scrub_at {
                if let Some(line) = self.recent_writes.pop_front() {
                    self.pending_reads.push_back(ReadTask {
                        core: SCRUB_CORE,
                        line,
                        bank: line.bank_of(self.cfg.pcm.banks),
                        arrival: self.now,
                    });
                }
                self.next_scrub_at += Cycles::new(period);
            }
        }
        // 5. Reads first (never during a write burst).
        if !self.burst {
            let mut i = 0;
            while i < self.rdq.len() {
                let bank = self.rdq[i].bank.index();
                if self.banks[bank].state.accepts_read() {
                    if let Some(r) = self.rdq.remove(i) {
                        self.issue_read(r);
                    }
                } else {
                    i += 1;
                }
            }
        }
        // 6. Writes only when no read is waiting, or during a burst.
        let reads_waiting = !self.rdq.is_empty() || !self.pending_reads.is_empty();
        if self.burst || !reads_waiting {
            let mut i = 0;
            while i < self.wrq.len() {
                let bank = self.wrq[i].bank.index();
                let free =
                    self.banks[bank].state.accepts_write() && self.banks[bank].parked.is_none();
                if free {
                    // Admission is tried in place; a refused write stays
                    // queued and the scan moves on (out-of-order write
                    // scheduling over the queue).
                    let ok = self.wrq[i].try_admit(&mut self.power);
                    self.emit_power(self.wrq[i].id.get(), PowerOp::Admit, ok);
                    if ok {
                        if let Some(mut task) = self.wrq.remove(i) {
                            self.emit(LifecycleEvent::WriteAdmitted {
                                id: task.id.get(),
                                bank: task.bank.get(),
                                at: self.now.get(),
                                queue_delay: self.now.saturating_sub(task.arrival).get(),
                            });
                            task.round_started_at = self.now;
                            self.issue_write(bank, task);
                            continue; // same index now holds the next entry
                        }
                    }
                }
                i += 1;
            }
        }
    }

    /// Retries the banks in `parked_mask`, in ascending order: token
    /// stalls, round boundaries and paused writes. Retrying bank `b`
    /// changes only bank `b`, so the mask read up front is the set of
    /// banks a scan over every bank would act on.
    pub(super) fn retry_parked(&mut self) {
        let mut pending = self.parked_mask;
        while pending != 0 {
            let b = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            // Taking a state out and putting it back is safe for any
            // state: `set_bank_state` recomputes the bank's facts.
            match std::mem::replace(&mut self.banks[b].state, BankState::Idle) {
                BankState::WriteStalled { task, since } => {
                    let ok = self.power.try_advance(task.id, task.round());
                    self.emit_power(task.id.get(), PowerOp::Advance, ok);
                    if ok {
                        self.transition(
                            task.id,
                            b,
                            WriteStage::TokenStalled,
                            WriteStage::Iterating,
                        );
                        self.start_iteration(b, task, false);
                    } else {
                        self.set_bank_state(b, BankState::WriteStalled { task, since });
                    }
                }
                BankState::AwaitingRound { mut task, since } => {
                    let ok = task.try_admit(&mut self.power);
                    self.emit_power(task.id.get(), PowerOp::Admit, ok);
                    if ok {
                        self.transition(
                            task.id,
                            b,
                            WriteStage::RoundPending,
                            WriteStage::Iterating,
                        );
                        task.round_started_at = self.now;
                        self.start_iteration(b, task, false);
                    } else {
                        self.set_bank_state(b, BankState::AwaitingRound { task, since });
                    }
                }
                other => self.set_bank_state(b, other),
            }
            // A parked write resumes once its bank has no waiting reads —
            // or unconditionally during a write burst, when writes own the
            // DIMM and reads are blocked anyway (otherwise a paused write
            // and a burst-blocked read deadlock each other).
            if matches!(self.banks[b].state, BankState::Idle)
                && self.banks[b].parked.is_some()
                && (self.burst || !self.bank_has_waiting_read(b))
            {
                if let Some(task) = self.banks[b].parked.take() {
                    let ok = self.power.try_advance(task.id, task.round());
                    self.emit_power(task.id.get(), PowerOp::Advance, ok);
                    if ok {
                        self.transition(task.id, b, WriteStage::Paused, WriteStage::Iterating);
                        self.start_iteration(b, task, false);
                    } else {
                        self.park(b, task);
                    }
                }
            }
        }
    }

    /// Parks a paused write in bank `b`'s parking slot.
    pub(super) fn park(&mut self, b: usize, task: WriteTask) {
        self.banks[b].parked = Some(task);
        self.sync_bank(b);
    }

    // ---- request creation ----

    pub(super) fn enqueue_write(&mut self, line: LineAddr, core: usize) {
        // Coalesce with a not-yet-issued write to the same line: the new
        // data replaces the queued data.
        let in_wrq = self.wrq.iter().position(|t| t.line == line);
        let in_ovf = self.overflow.iter().position(|t| t.line == line);
        if let Some(i) = in_wrq {
            let arrival = self.wrq[i].arrival;
            let task = self.make_task(line, core, arrival);
            let old = std::mem::replace(&mut self.wrq[i], task);
            self.emit(LifecycleEvent::WriteCoalesced {
                old_id: old.id.get(),
                new_id: self.wrq[i].id.get(),
                line: line.get(),
                at: self.now.get(),
            });
            self.pool.recycle_rounds(old.rounds);
            return;
        }
        if let Some(i) = in_ovf {
            let arrival = self.overflow[i].arrival;
            let task = self.make_task(line, core, arrival);
            let old = std::mem::replace(&mut self.overflow[i], task);
            self.emit(LifecycleEvent::WriteCoalesced {
                old_id: old.id.get(),
                new_id: self.overflow[i].id.get(),
                line: line.get(),
                at: self.now.get(),
            });
            self.pool.recycle_rounds(old.rounds);
            return;
        }
        let task = self.make_task(line, core, self.now);
        if self.wrq.len() < self.cfg.queues.write_entries {
            self.wrq.push_back(task);
            if self.wrq.len() >= self.cfg.queues.write_entries {
                self.burst = true;
            }
        } else {
            self.burst = true;
            self.overflow.push_back(task);
        }
    }

    /// Builds one round's [`LineWrite`] from the pool. A free-standing
    /// helper (not `&mut self`) so it can borrow the splitter's round
    /// slices and the pool at the same time.
    fn build_round(
        pool: &mut WriteBufferPool,
        cells: &[(u32, fpb_pcm::MlcLevel)],
        geom: &DimmGeometry,
        mapping: CellMapping,
        truncation_ecc: Option<u32>,
        sampler: &IterationSampler,
        rng: &mut SimRng,
    ) -> LineWrite {
        let w = pool.build(cells, geom, mapping, sampler, rng, 1);
        match truncation_ecc {
            Some(ecc) => w.with_truncation(ecc),
            None => w,
        }
    }

    pub(super) fn make_task(&mut self, line: LineAddr, core: usize, arrival: Cycles) -> WriteTask {
        // The scheme decides how cells map to chips and whether the write
        // may be truncated; both are fixed per scheme, so hoist them out
        // of the per-round loop.
        let mapping = self.setup.map_line();
        let truncation_ecc = self.setup.truncation_ecc();
        let profile = self.cores[core].data_profile();
        let mut changes = self.pool.take_change_set();
        profile.sample_change_set_into(self.cfg.pcm.line_bytes, &mut self.data_rng, &mut changes);
        if let Some(wear) = self.wear.as_mut() {
            let offset = wear.offset_for_write(line, &mut self.data_rng);
            changes.rotate_in_place(offset, self.cfg.pcm.cells_per_line());
        }
        let chips = self.cfg.pcm.chips;
        let mut rounds = self.pool.take_rounds();
        match self
            .splitter
            .split_in(&changes, self.cap_total, self.cap_chip, mapping, chips)
        {
            None => rounds.push(Self::build_round(
                &mut self.pool,
                changes.cells(),
                &self.geom,
                mapping,
                truncation_ecc,
                &self.sampler,
                &mut self.write_rng,
            )),
            Some(k) => {
                for i in 0..k {
                    rounds.push(Self::build_round(
                        &mut self.pool,
                        self.splitter.round(i),
                        &self.geom,
                        mapping,
                        truncation_ecc,
                        &self.sampler,
                        &mut self.write_rng,
                    ));
                }
            }
        }
        self.pool.recycle_change_set(changes);
        if self.degraded {
            // Degraded mode: a persistent brownout leaves too little power
            // for full MLC program-and-verify, so new writes fall back to
            // single-level programming (RESET pulses only).
            for w in rounds.iter_mut() {
                w.degrade_to_slc();
            }
        }
        self.next_write_id += 1;
        self.emit(LifecycleEvent::WriteCreated {
            id: self.next_write_id,
            line: line.get(),
            bank: line.bank_of(self.cfg.pcm.banks).get(),
            at: self.now.get(),
            rounds: rounds.len() as u64,
            degraded: self.degraded,
        });
        WriteTask {
            id: WriteId::new(self.next_write_id),
            line,
            bank: line.bank_of(self.cfg.pcm.banks),
            arrival,
            rounds,
            current_round: 0,
            pre_read_done: false,
            round_started_at: Cycles::ZERO,
            retries: 0,
            iterations_spent: 0,
            watchdog_tripped: false,
            admit_memo: AdmitMemo::default(),
        }
    }

    pub(super) fn forward_from_write_queue(&self, line: LineAddr) -> bool {
        self.wrq
            .iter()
            .chain(self.overflow.iter())
            .any(|t| t.line == line)
    }

    // ---- read-arrival hook ----

    /// A read entered the read queue for `bank`: if a write is in flight
    /// there, the scheme's read-arrival hook decides whether it is
    /// cancelled at the next iteration boundary (§6.4.5 write
    /// cancellation).
    pub(super) fn note_read_arrival(&mut self, bank: fpb_types::BankId) {
        let BankState::Writing {
            task,
            cancel_pending,
            in_pre_read,
            ..
        } = &mut self.banks[bank.index()].state
        else {
            return;
        };
        let progress = if *in_pre_read {
            0.0
        } else {
            task.round().progress()
        };
        let action = self.setup.on_read_arrival(ReadArrivalCtx { progress });
        let cancel = action == ReadArrivalAction::CancelAtBoundary;
        *cancel_pending |= cancel;
        let id = task.id.get();
        self.emit(LifecycleEvent::SchemeDecision {
            hook: SchemeHook::ReadArrival,
            action: cancel as u8,
            id,
            bank: bank.get(),
            at: self.now.get(),
        });
    }

    pub(super) fn bank_has_waiting_read(&self, bank: usize) -> bool {
        self.rdq.iter().any(|r| r.bank.index() == bank)
            || self.pending_reads.iter().any(|r| r.bank.index() == bank)
    }
}
