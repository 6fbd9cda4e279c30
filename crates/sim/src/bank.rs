//! Per-bank state machines.

use crate::request::WriteTask;
use fpb_types::Cycles;

/// What a PCM bank is doing right now.
#[derive(Debug)]
pub enum BankState {
    /// Ready for a new request.
    Idle,
    /// Servicing an array read; the blocked core is woken at `done_at`.
    Reading {
        /// Completion time.
        done_at: Cycles,
        /// Core index blocked on the read.
        core: usize,
    },
    /// Running one write iteration of the held task.
    Writing {
        /// Completion time of the current iteration (or of the
        /// read-before-write when `in_pre_read`).
        iter_done_at: Cycles,
        /// The write task (owns the `LineWrite` rounds).
        task: WriteTask,
        /// True while the bridge chip's comparison read runs, before the
        /// first iteration starts.
        in_pre_read: bool,
        /// A read arrived for this bank and write cancellation decided to
        /// abort at the next boundary.
        cancel_pending: bool,
    },
    /// A write is mid-flight but could not get tokens for its next
    /// iteration (it holds none while stalled).
    WriteStalled {
        /// The stalled task.
        task: WriteTask,
        /// When the stall began (for fairness ordering).
        since: Cycles,
    },
    /// A write finished a round; the next round awaits admission.
    AwaitingRound {
        /// The task whose next round needs admission.
        task: WriteTask,
        /// When the wait began.
        since: Cycles,
    },
    /// A write failed its round verify and is waiting out its retry
    /// backoff before the round is re-issued (it holds no tokens).
    Backoff {
        /// The task to retry.
        task: WriteTask,
        /// When the backoff expires and re-admission is attempted.
        until: Cycles,
    },
    /// All cells converged, but a feedback-less memory controller cannot
    /// know that: the bank and its tokens stay occupied until the
    /// worst-case write time elapses (§2.1.1's argument for the bridge
    /// chip).
    Draining {
        /// The finished task, held until the assumed completion time.
        task: WriteTask,
        /// Worst-case completion time.
        until: Cycles,
    },
}

impl BankState {
    /// True if the bank can accept a new read right now. Write pausing
    /// parks its task in the bank's separate parking slot and leaves the
    /// state `Idle`, precisely so reads flow through.
    pub fn accepts_read(&self) -> bool {
        matches!(self, BankState::Idle)
    }

    /// True if the bank can accept a brand-new write.
    pub fn accepts_write(&self) -> bool {
        matches!(self, BankState::Idle)
    }

    /// True if a write occupies this bank in any form.
    pub fn has_write(&self) -> bool {
        matches!(
            self,
            BankState::Writing { .. }
                | BankState::WriteStalled { .. }
                | BankState::AwaitingRound { .. }
                | BankState::Backoff { .. }
                | BankState::Draining { .. }
        )
    }

    /// The next scheduled completion event on this bank, if any.
    pub fn next_event(&self) -> Option<Cycles> {
        match self {
            BankState::Reading { done_at, .. } => Some(*done_at),
            BankState::Writing { iter_done_at, .. } => Some(*iter_done_at),
            BankState::Draining { until, .. } => Some(*until),
            BankState::Backoff { until, .. } => Some(*until),
            _ => None,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn idle_accepts_everything() {
        let s = BankState::Idle;
        assert!(s.accepts_read());
        assert!(s.accepts_write());
        assert!(!s.has_write());
        assert_eq!(s.next_event(), None);
    }

    #[test]
    fn reading_blocks_both() {
        let s = BankState::Reading {
            done_at: Cycles::new(100),
            core: 0,
        };
        assert!(!s.accepts_read());
        assert!(!s.accepts_write());
        assert!(!s.has_write());
        assert_eq!(s.next_event(), Some(Cycles::new(100)));
    }

    fn dummy_task() -> crate::request::WriteTask {
        use fpb_core::WriteId;
        use fpb_pcm::{
            CellMapping, ChangeSet, DimmGeometry, IterationSampler, LineWrite, MlcLevel,
        };
        use fpb_types::{LineAddr, MlcWriteModel, SimRng};
        let geom = DimmGeometry::new(8, 1024);
        let sampler = IterationSampler::new(MlcWriteModel::default());
        let mut rng = SimRng::seed_from(1);
        let cs = ChangeSet::from_cells(vec![(0, MlcLevel::L01)]);
        crate::request::WriteTask {
            id: WriteId::new(1),
            line: LineAddr::new(0),
            bank: fpb_types::BankId::new(0),
            arrival: Cycles::ZERO,
            rounds: vec![LineWrite::new(
                &cs,
                &geom,
                CellMapping::Bim,
                &sampler,
                &mut rng,
                1,
            )],
            current_round: 0,
            pre_read_done: false,
            round_started_at: Cycles::ZERO,
            retries: 0,
            iterations_spent: 0,
            watchdog_tripped: false,
            admit_memo: fpb_core::AdmitMemo::default(),
        }
    }

    #[test]
    fn writing_owns_the_bank() {
        let s = BankState::Writing {
            iter_done_at: Cycles::new(500),
            task: dummy_task(),
            in_pre_read: false,
            cancel_pending: false,
        };
        assert!(!s.accepts_read());
        assert!(!s.accepts_write());
        assert!(s.has_write());
        assert_eq!(s.next_event(), Some(Cycles::new(500)));
    }

    #[test]
    fn backoff_owns_the_bank_until_expiry() {
        let s = BankState::Backoff {
            task: dummy_task(),
            until: Cycles::new(777),
        };
        assert!(s.has_write());
        assert!(!s.accepts_read());
        assert!(!s.accepts_write());
        assert_eq!(s.next_event(), Some(Cycles::new(777)));
    }

    #[test]
    fn parked_states_have_no_timed_event() {
        for s in [
            BankState::WriteStalled {
                task: dummy_task(),
                since: Cycles::new(10),
            },
            BankState::AwaitingRound {
                task: dummy_task(),
                since: Cycles::new(10),
            },
        ] {
            assert_eq!(s.next_event(), None);
            assert!(s.has_write());
            assert!(!s.accepts_write());
            assert!(!s.accepts_read());
        }
    }
}
