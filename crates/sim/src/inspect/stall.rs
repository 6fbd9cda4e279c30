//! Stall attribution: where writes spent time *not* programming.
//!
//! Replays the `Stage` transitions of a recorded stream and charges
//! every interval a write spent in a waiting stage to that stage:
//! token starvation, scheme pauses, verify-failure backoff, awaiting
//! round re-admission, and worst-case draining. The result answers the
//! question a power-budgeting paper keeps asking — *which* budget
//! mechanism is serializing the writes.

use std::collections::BTreeMap;
use std::fmt;

use crate::scheme::WriteStage;

use super::event::LifecycleEvent;

/// A waiting stage a write can be charged for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StallKind {
    /// Power tokens refused at an iteration boundary or round admission.
    TokenStalled,
    /// Scheme pause hook yielded the bank to reads.
    Paused,
    /// Verify-failure recovery backoff.
    Backoff,
    /// Between rounds, waiting for re-admission.
    RoundPending,
    /// Feedback-less worst-case hold after early completion.
    Draining,
}

impl StallKind {
    /// All kinds, in display order.
    pub const ALL: [StallKind; 5] = [
        StallKind::TokenStalled,
        StallKind::Paused,
        StallKind::Backoff,
        StallKind::RoundPending,
        StallKind::Draining,
    ];

    /// The waiting stage this kind charges, if `stage` is a waiting
    /// stage at all.
    pub fn from_stage(stage: WriteStage) -> Option<StallKind> {
        Some(match stage {
            WriteStage::TokenStalled => StallKind::TokenStalled,
            WriteStage::Paused => StallKind::Paused,
            WriteStage::Backoff => StallKind::Backoff,
            WriteStage::RoundPending => StallKind::RoundPending,
            WriteStage::Draining => StallKind::Draining,
            _ => return None,
        })
    }

    /// Stable display label.
    pub fn label(self) -> &'static str {
        match self {
            StallKind::TokenStalled => "token-stalled",
            StallKind::Paused => "paused",
            StallKind::Backoff => "backoff",
            StallKind::RoundPending => "round-pending",
            StallKind::Draining => "draining",
        }
    }
}

impl fmt::Display for StallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-kind and per-write stall totals over one recorded stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StallReport {
    /// `(kind, episodes, total cycles)` for every kind, display order.
    pub by_kind: Vec<(StallKind, u64, u64)>,
    /// `(write id, total stalled cycles)` sorted by cycles descending
    /// (id ascending on ties, for determinism).
    pub by_write: Vec<(u64, u64)>,
}

impl StallReport {
    /// Replays `events` and attributes every waiting interval.
    ///
    /// An interval opens when a `Stage` transition enters a waiting
    /// stage and closes when the same write transitions out of it; a
    /// write still waiting when the stream ends is charged nothing for
    /// the open interval (the stream holds no later timestamp to close
    /// it against).
    pub fn analyze(events: &[LifecycleEvent]) -> StallReport {
        let mut open: BTreeMap<(u64, WriteStage), u64> = BTreeMap::new();
        let mut kind_totals: BTreeMap<StallKind, (u64, u64)> = BTreeMap::new();
        let mut write_totals: BTreeMap<u64, u64> = BTreeMap::new();
        for ev in events {
            let LifecycleEvent::Stage {
                id, at, from, to, ..
            } = ev
            else {
                continue;
            };
            if let Some(kind) = StallKind::from_stage(*from) {
                if let Some(since) = open.remove(&(*id, *from)) {
                    let dur = at.saturating_sub(since);
                    let slot = kind_totals.entry(kind).or_insert((0, 0));
                    slot.0 += 1;
                    slot.1 += dur;
                    *write_totals.entry(*id).or_insert(0) += dur;
                }
            }
            if StallKind::from_stage(*to).is_some() {
                open.insert((*id, *to), *at);
            }
        }
        let by_kind = StallKind::ALL
            .iter()
            .map(|&k| {
                let (n, cyc) = kind_totals.get(&k).copied().unwrap_or((0, 0));
                (k, n, cyc)
            })
            .collect();
        let mut by_write: Vec<(u64, u64)> = write_totals.into_iter().collect();
        by_write.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        StallReport { by_kind, by_write }
    }

    /// Total stalled cycles across all kinds.
    pub fn total_cycles(&self) -> u64 {
        self.by_kind.iter().map(|&(_, _, c)| c).sum()
    }

    /// Renders the report as fixed-order text: one line per kind, then
    /// the `top` worst writes.
    pub fn render(&self, top: usize) -> String {
        let mut out = String::new();
        out.push_str("stall attribution (cycles writes spent waiting):\n");
        for &(kind, episodes, cycles) in &self.by_kind {
            out.push_str(&format!(
                "  {:<14} {episodes:>8} episode(s) {cycles:>12} cycle(s)\n",
                kind.label()
            ));
        }
        out.push_str(&format!(
            "  {:<14} {:>31} cycle(s)\n",
            "total",
            self.total_cycles()
        ));
        if top > 0 && !self.by_write.is_empty() {
            out.push_str("worst writes:\n");
            for &(id, cycles) in self.by_write.iter().take(top) {
                out.push_str(&format!("  write #{id:<10} {cycles:>12} cycle(s)\n"));
            }
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn st(id: u64, at: u64, from: WriteStage, to: WriteStage) -> LifecycleEvent {
        LifecycleEvent::Stage {
            id,
            bank: 0,
            at,
            from,
            to,
        }
    }

    #[test]
    fn charges_waiting_intervals_to_their_kind() {
        use WriteStage::*;
        let evs = vec![
            st(1, 10, Iterating, TokenStalled),
            st(1, 50, TokenStalled, Iterating), // 40 cycles starved
            st(2, 20, Iterating, Paused),
            st(2, 90, Paused, Iterating),        // 70 cycles paused
            st(1, 100, Iterating, TokenStalled), // still open at stream end
        ];
        let r = StallReport::analyze(&evs);
        let find = |k: StallKind| r.by_kind.iter().find(|e| e.0 == k).copied().unwrap();
        assert_eq!(
            find(StallKind::TokenStalled),
            (StallKind::TokenStalled, 1, 40)
        );
        assert_eq!(find(StallKind::Paused), (StallKind::Paused, 1, 70));
        assert_eq!(find(StallKind::Backoff), (StallKind::Backoff, 0, 0));
        assert_eq!(r.total_cycles(), 110);
        assert_eq!(r.by_write, vec![(2, 70), (1, 40)]);
    }

    #[test]
    fn render_is_deterministic_and_bounded() {
        use WriteStage::*;
        let evs = vec![
            st(5, 0, Iterating, Draining),
            st(5, 30, Draining, RoundPending),
            st(5, 45, RoundPending, Iterating),
        ];
        let r = StallReport::analyze(&evs);
        let text = r.render(1);
        assert_eq!(text, r.render(1));
        assert!(text.contains("draining"));
        assert!(text.contains("write #5"));
        // top = 0 omits the per-write section.
        assert!(!r.render(0).contains("worst writes"));
    }
}
