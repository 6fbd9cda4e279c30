//! The typed write-lifecycle state machine.
//!
//! Every write moves through these stages:
//!
//! ```text
//!                 admit                    pre-read done
//!   Queued ───────────────▶ PreRead ──────────────────────┐
//!     ▲  │ admit (no IPM)                                 ▼
//!     │  └───────────────────────────────────────────▶ Iterating ◀─┐
//!     │ cancel                                        │  │  │  │   │ tokens
//!     └───────────────────────────────────────────────┘  │  │  │   │ granted
//!                                                        │  │  │   │
//!                          read waiting (WP)  Paused ◀───┘  │  └─▶ TokenStalled
//!                                               │           │           │
//!                                               └───────────┼───────────┘
//!                                                           │ round converged
//!                                      worst-case MC        ▼
//!                                  ┌──────────────────── release ─────────┐
//!                                  ▼                        │             │
//!                              Draining ───────────────▶ RoundPending     │
//!                                  │   more rounds          │             │
//!                                  │                        ▼ admit       │
//!                                  │ verify fail        Iterating         │
//!                                  ▼                                      ▼
//!                               Backoff ──▶ Iterating / RoundPending    Done
//! ```
//!
//! The engine's stage modules assert their transitions against
//! [`WriteLifecycle::permitted`] (debug builds only), so a refactor that
//! wires a hook into the wrong boundary fails loudly instead of silently
//! perturbing metrics.

/// A write's position in its lifecycle. Stages map 1:1 onto the engine's
/// bank states (see `BankState::stage`), plus the queue-side stages
/// `Queued` and the terminal `Done`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WriteStage {
    /// Waiting in the write queue (or re-queued after cancellation).
    Queued,
    /// Performing the bridge chip's comparison read (IPM).
    PreRead,
    /// Programming: an iteration is in flight on the bank.
    Iterating,
    /// At an iteration boundary, waiting for power tokens.
    TokenStalled,
    /// Parked by write pausing so the bank can serve reads.
    Paused,
    /// Between rounds, waiting for the next round's token admission.
    RoundPending,
    /// Backing off after a failed closing verify.
    Backoff,
    /// Converged, but the feedback-less controller holds the bank until
    /// the worst-case bound elapses.
    Draining,
    /// All rounds programmed; the bank is free.
    Done,
}

/// The write-lifecycle transition table.
#[derive(Debug, Clone, Copy)]
pub struct WriteLifecycle;

impl WriteLifecycle {
    /// Whether the engine may move a write from `from` to `to`.
    pub fn permitted(from: WriteStage, to: WriteStage) -> bool {
        use WriteStage::*;
        match from {
            Queued => matches!(to, PreRead | Iterating),
            PreRead => matches!(to, Iterating),
            Iterating => matches!(
                to,
                Iterating
                    | TokenStalled
                    | Paused
                    | RoundPending
                    | Backoff
                    | Draining
                    | Done
                    | Queued
            ),
            TokenStalled => matches!(to, Iterating),
            Paused => matches!(to, Iterating),
            RoundPending => matches!(to, Iterating),
            Backoff => matches!(to, Iterating | RoundPending),
            Draining => matches!(to, RoundPending | Backoff | Done),
            Done => false,
        }
    }

    /// Debug-asserts that `from → to` is a legal transition. Compiled out
    /// of release builds; the transition table is the documentation.
    #[inline]
    pub fn debug_check(from: WriteStage, to: WriteStage) {
        debug_assert!(
            Self::permitted(from, to),
            "illegal write-lifecycle transition {from:?} -> {to:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::WriteStage::*;
    use super::*;

    const ALL: [WriteStage; 9] = [
        Queued,
        PreRead,
        Iterating,
        TokenStalled,
        Paused,
        RoundPending,
        Backoff,
        Draining,
        Done,
    ];

    #[test]
    fn done_is_terminal() {
        for to in ALL {
            assert!(!WriteLifecycle::permitted(Done, to), "Done -> {to:?}");
        }
    }

    #[test]
    fn queued_admits_with_or_without_pre_read() {
        assert!(WriteLifecycle::permitted(Queued, PreRead));
        assert!(WriteLifecycle::permitted(Queued, Iterating));
        assert!(!WriteLifecycle::permitted(Queued, Done));
    }

    #[test]
    fn cancellation_requeues_only_from_iterating() {
        assert!(WriteLifecycle::permitted(Iterating, Queued));
        for from in [
            PreRead,
            TokenStalled,
            Paused,
            RoundPending,
            Backoff,
            Draining,
        ] {
            assert!(
                !WriteLifecycle::permitted(from, Queued),
                "{from:?} -> Queued"
            );
        }
    }

    #[test]
    fn stalls_resume_into_iterating_only() {
        for from in [TokenStalled, Paused, RoundPending] {
            for to in ALL {
                assert_eq!(
                    WriteLifecycle::permitted(from, to),
                    to == Iterating,
                    "{from:?} -> {to:?}"
                );
            }
        }
    }

    #[test]
    fn draining_releases_without_iterating() {
        assert!(WriteLifecycle::permitted(Draining, Done));
        assert!(WriteLifecycle::permitted(Draining, RoundPending));
        assert!(WriteLifecycle::permitted(Draining, Backoff));
        assert!(!WriteLifecycle::permitted(Draining, Iterating));
    }

    #[test]
    fn every_stage_but_done_has_an_exit() {
        for from in ALL {
            if from == Done {
                continue;
            }
            assert!(
                ALL.iter().any(|&to| WriteLifecycle::permitted(from, to)),
                "{from:?} has no exit"
            );
        }
    }
}
