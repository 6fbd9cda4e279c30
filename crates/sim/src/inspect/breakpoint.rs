//! Halt predicates over a replayed event stream (`fpb inspect break`).
//!
//! A breakpoint is parsed from a small expression grammar and checked
//! against every event in replay order; the first match halts the scan
//! ([`Breakpoint::first_hit`]). Stateful predicates are supported —
//! `token-stalled>N` has to remember when each write *entered* the
//! stalled stage to measure how long it sat there.
//!
//! Grammar (case-insensitive):
//!
//! ```text
//! degraded            first write created in degraded (SLC) mode
//! brownout            first brownout window start
//! verify-fail         first injected verify failure
//! cancelled           first write cancellation
//! watchdog            first watchdog force-close
//! truncated           first truncated write round
//! stage:<name>        first transition into a stage (paused, token-stalled,
//!                     backoff, draining, …; two-letter wire codes work too)
//! write:<id>          first event concerning write <id>
//! token-stalled><N>   first write that sat token-starved more than N cycles
//! ```

use std::collections::BTreeMap;
use std::fmt;

use crate::scheme::WriteStage;

use super::event::{stage_from_code, LifecycleEvent};

/// What a breakpoint matched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakHit {
    /// Index of the matching event in the stream.
    pub index: usize,
    /// The matching event.
    pub event: LifecycleEvent,
    /// Why it matched (human-readable).
    pub reason: String,
}

impl fmt::Display for BreakHit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "break at event {}: {} [{}]",
            self.index, self.event, self.reason
        )
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Kind {
    Degraded,
    Brownout,
    VerifyFail,
    Cancelled,
    Watchdog,
    Truncated,
    StageEnter(WriteStage),
    Write(u64),
    /// Fires when a write *leaves* `TokenStalled` after more than the
    /// given number of cycles starved.
    TokenStalledOver(u64),
}

/// A compiled halt predicate (see the module grammar).
#[derive(Debug, Clone)]
pub struct Breakpoint {
    kind: Kind,
    /// `token-stalled>N` bookkeeping: write id → stall entry time.
    stalled_since: BTreeMap<u64, u64>,
}

/// Parses a stage name: full lifecycle names (hyphen/underscore
/// insensitive) or the two-letter wire codes.
fn parse_stage(s: &str) -> Option<WriteStage> {
    if let Some(st) = stage_from_code(s) {
        return Some(st);
    }
    Some(match s.replace(['-', '_'], "").as_str() {
        "queued" => WriteStage::Queued,
        "preread" => WriteStage::PreRead,
        "iterating" => WriteStage::Iterating,
        "tokenstalled" => WriteStage::TokenStalled,
        "paused" => WriteStage::Paused,
        "roundpending" => WriteStage::RoundPending,
        "backoff" => WriteStage::Backoff,
        "draining" => WriteStage::Draining,
        "done" => WriteStage::Done,
        _ => return None,
    })
}

impl Breakpoint {
    /// Compiles a breakpoint expression.
    ///
    /// # Errors
    ///
    /// A human-readable description of what could not be parsed,
    /// listing the accepted forms.
    pub fn parse(expr: &str) -> Result<Breakpoint, String> {
        let e = expr.trim().to_ascii_lowercase();
        let kind = if e == "degraded" {
            Kind::Degraded
        } else if e == "brownout" {
            Kind::Brownout
        } else if e == "verify-fail" || e == "verify_fail" {
            Kind::VerifyFail
        } else if e == "cancelled" || e == "canceled" {
            Kind::Cancelled
        } else if e == "watchdog" {
            Kind::Watchdog
        } else if e == "truncated" {
            Kind::Truncated
        } else if let Some(rest) = e.strip_prefix("stage:") {
            Kind::StageEnter(parse_stage(rest).ok_or_else(|| format!("unknown stage {rest:?}"))?)
        } else if let Some(rest) = e.strip_prefix("write:") {
            Kind::Write(
                rest.parse()
                    .map_err(|_| format!("write id must be an integer, got {rest:?}"))?,
            )
        } else if let Some(rest) = e.strip_prefix("token-stalled>") {
            Kind::TokenStalledOver(
                rest.parse()
                    .map_err(|_| format!("cycle bound must be an integer, got {rest:?}"))?,
            )
        } else {
            return Err(format!(
                "unknown breakpoint {expr:?}; expected one of: degraded, brownout, \
                 verify-fail, cancelled, watchdog, truncated, stage:<name>, write:<id>, \
                 token-stalled><cycles>"
            ));
        };
        Ok(Breakpoint {
            kind,
            stalled_since: BTreeMap::new(),
        })
    }

    /// Scans `events` in order and returns the first hit; `None` if the
    /// predicate never fires. The stream is immutable, so a replay from
    /// the start is always exact.
    pub fn first_hit(&mut self, events: &[LifecycleEvent]) -> Option<BreakHit> {
        events
            .iter()
            .enumerate()
            .find_map(|(index, ev)| self.check(index, ev))
    }

    /// Checks one event (in stream order); returns the hit if the
    /// predicate fires here.
    pub fn check(&mut self, index: usize, ev: &LifecycleEvent) -> Option<BreakHit> {
        let reason = match &self.kind {
            Kind::Degraded => match ev {
                LifecycleEvent::WriteCreated {
                    degraded: true, id, ..
                } => Some(format!("write #{id} created in degraded (SLC) mode")),
                _ => None,
            },
            Kind::Brownout => matches!(ev, LifecycleEvent::BrownoutStart { .. })
                .then(|| "brownout window begins".to_string()),
            Kind::VerifyFail => match ev {
                LifecycleEvent::VerifyFailed { id, .. } => {
                    Some(format!("write #{id} failed verify"))
                }
                _ => None,
            },
            Kind::Cancelled => match ev {
                // The only transition back to Queued is cancellation.
                LifecycleEvent::Stage {
                    to: WriteStage::Queued,
                    id,
                    ..
                } => Some(format!("write #{id} cancelled")),
                _ => None,
            },
            Kind::Watchdog => match ev {
                LifecycleEvent::WatchdogTripped { id, .. } => {
                    Some(format!("watchdog force-closed write #{id}"))
                }
                _ => None,
            },
            Kind::Truncated => match ev {
                LifecycleEvent::RoundClosed {
                    truncated: true,
                    id,
                    ..
                } => Some(format!("write #{id} round truncated")),
                _ => None,
            },
            Kind::StageEnter(stage) => match ev {
                LifecycleEvent::Stage { to, id, .. } if to == stage => {
                    Some(format!("write #{id} entered {stage:?}"))
                }
                _ => None,
            },
            Kind::Write(want) => {
                (ev.write_id() == Some(*want)).then(|| format!("event concerns write #{want}"))
            }
            Kind::TokenStalledOver(bound) => match ev {
                LifecycleEvent::Stage {
                    to: WriteStage::TokenStalled,
                    id,
                    at,
                    ..
                } => {
                    self.stalled_since.insert(*id, *at);
                    None
                }
                LifecycleEvent::Stage {
                    from: WriteStage::TokenStalled,
                    id,
                    at,
                    ..
                } => {
                    let since = self.stalled_since.remove(id)?;
                    let stalled = at.saturating_sub(since);
                    (stalled > *bound)
                        .then(|| format!("write #{id} token-starved {stalled} cycles"))
                }
                _ => None,
            },
        }?;
        Some(BreakHit {
            index,
            event: ev.clone(),
            reason,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_grammar() {
        for e in [
            "degraded",
            "brownout",
            "verify-fail",
            "cancelled",
            "watchdog",
            "truncated",
            "stage:paused",
            "stage:token-stalled",
            "stage:ts",
            "write:42",
            "token-stalled>500",
            "  DEGRADED  ",
        ] {
            assert!(Breakpoint::parse(e).is_ok(), "{e}");
        }
        for e in ["", "bogus", "stage:nowhere", "write:abc", "token-stalled>x"] {
            assert!(Breakpoint::parse(e).is_err(), "{e}");
        }
    }

    #[test]
    fn degraded_fires_on_first_degraded_write_only() {
        let mut bp = Breakpoint::parse("degraded").unwrap();
        let clean = LifecycleEvent::WriteCreated {
            id: 1,
            line: 9,
            bank: 0,
            at: 5,
            rounds: 1,
            degraded: false,
        };
        let degraded = LifecycleEvent::WriteCreated {
            id: 2,
            line: 9,
            bank: 0,
            at: 6,
            rounds: 1,
            degraded: true,
        };
        assert!(bp.check(0, &clean).is_none());
        let hit = bp.check(1, &degraded).unwrap();
        assert_eq!(hit.index, 1);
        assert!(hit.reason.contains("write #2"), "{}", hit.reason);
    }

    #[test]
    fn token_stall_bound_measures_duration() {
        let mut bp = Breakpoint::parse("token-stalled>100").unwrap();
        let enter = |id, at| LifecycleEvent::Stage {
            id,
            bank: 0,
            at,
            from: WriteStage::Iterating,
            to: WriteStage::TokenStalled,
        };
        let leave = |id, at| LifecycleEvent::Stage {
            id,
            bank: 0,
            at,
            from: WriteStage::TokenStalled,
            to: WriteStage::Iterating,
        };
        assert!(bp.check(0, &enter(1, 0)).is_none());
        assert!(
            bp.check(1, &leave(1, 50)).is_none(),
            "50 cycles is under the bound"
        );
        assert!(bp.check(2, &enter(2, 100)).is_none());
        let hit = bp.check(3, &leave(2, 300)).unwrap();
        assert!(hit.reason.contains("200 cycles"), "{}", hit.reason);
    }

    #[test]
    fn first_hit_returns_the_first_match_or_none() {
        let evs = [
            LifecycleEvent::BrownoutEnd { at: 1 },
            LifecycleEvent::BrownoutStart { at: 2 },
            LifecycleEvent::BrownoutStart { at: 3 },
        ];
        let hit = Breakpoint::parse("brownout")
            .unwrap()
            .first_hit(&evs)
            .unwrap();
        assert_eq!(hit.index, 1);
        assert_eq!(hit.event, LifecycleEvent::BrownoutStart { at: 2 });
        let mut never = Breakpoint::parse("watchdog").unwrap();
        assert_eq!(never.first_hit(&evs), None);
        assert_eq!(never.first_hit(&[]), None);
    }

    #[test]
    fn write_filter_matches_any_event_of_that_write() {
        let mut bp = Breakpoint::parse("write:7").unwrap();
        let other = LifecycleEvent::WatchdogTripped {
            id: 3,
            bank: 1,
            at: 10,
        };
        let mine = LifecycleEvent::WatchdogTripped {
            id: 7,
            bank: 1,
            at: 11,
        };
        assert!(bp.check(0, &other).is_none());
        assert!(bp.check(1, &mine).is_some());
    }
}
