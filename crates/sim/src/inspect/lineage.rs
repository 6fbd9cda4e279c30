//! Per-write lineage: one write's complete story, extracted from a
//! recorded stream.
//!
//! Every event carries enough identity ([`LifecycleEvent::write_id`])
//! to slice the global stream down to a single write: creation,
//! coalescing, admission attempts, every stage transition, every power
//! grant and refusal, round closes, faults, and recovery. That slice —
//! the lineage — is what `fpb inspect lineage --write N` prints.

use std::fmt;

use super::event::LifecycleEvent;

/// One write's event trace, in stream order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lineage {
    /// The write this lineage describes.
    pub id: u64,
    /// `(stream index, event)` for every event concerning the write.
    pub events: Vec<(usize, LifecycleEvent)>,
}

impl Lineage {
    /// Slices `events` down to write `id`.
    pub fn of(events: &[LifecycleEvent], id: u64) -> Lineage {
        let events = events
            .iter()
            .enumerate()
            .filter(|(_, ev)| ev.write_id() == Some(id))
            .map(|(i, ev)| (i, ev.clone()))
            .collect();
        Lineage { id, events }
    }

    /// True if the stream never mentions the write.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Simulation time of the write's first appearance.
    pub fn created_at(&self) -> Option<u64> {
        self.events.iter().find_map(|(_, ev)| ev.at())
    }

    /// Simulation time of the write's last appearance.
    pub fn last_at(&self) -> Option<u64> {
        self.events.iter().rev().find_map(|(_, ev)| ev.at())
    }

    /// Rounds this write closed within the stream.
    pub fn rounds_closed(&self) -> usize {
        self.events
            .iter()
            .filter(|(_, ev)| matches!(ev, LifecycleEvent::RoundClosed { .. }))
            .count()
    }

    /// True if the write ran to completion inside the stream.
    pub fn completed(&self) -> bool {
        self.events.iter().any(|(_, ev)| {
            matches!(
                ev,
                LifecycleEvent::RoundClosed {
                    final_round: true,
                    ..
                }
            )
        })
    }

    /// Renders the lineage: a one-line summary, then one indexed line
    /// per event.
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.events.len() + 1);
        out.push(self.to_string());
        for (idx, ev) in &self.events {
            out.push(format!("  [{idx}] {ev}"));
        }
        out
    }
}

impl fmt::Display for Lineage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "write #{}: not present in this stream", self.id);
        }
        write!(
            f,
            "write #{}: {} event(s), cycles {}..{}, {} round(s) closed{}",
            self.id,
            self.events.len(),
            self.created_at().unwrap_or(0),
            self.last_at().unwrap_or(0),
            self.rounds_closed(),
            if self.completed() {
                ", completed"
            } else {
                ", in flight at stream end"
            }
        )
    }
}

/// Convenience: [`Lineage::of`] + [`Lineage::lines`] in one call — the
/// CLI's whole `lineage` verb.
pub fn lineage_lines(events: &[LifecycleEvent], id: u64) -> Vec<String> {
    Lineage::of(events, id).lines()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::scheme::WriteStage;

    fn stream() -> Vec<LifecycleEvent> {
        vec![
            LifecycleEvent::WriteCreated {
                id: 3,
                line: 40,
                bank: 1,
                at: 5,
                rounds: 1,
                degraded: false,
            },
            LifecycleEvent::BrownoutStart { at: 6 }, // not write 3's
            LifecycleEvent::Stage {
                id: 3,
                bank: 1,
                at: 7,
                from: WriteStage::Queued,
                to: WriteStage::Iterating,
            },
            LifecycleEvent::WatchdogTripped {
                id: 9,
                bank: 0,
                at: 8,
            }, // different write
            LifecycleEvent::RoundClosed {
                id: 3,
                line: 40,
                bank: 1,
                at: 20,
                cells: 64,
                truncated: false,
                final_round: true,
                per_chip: vec![64],
            },
        ]
    }

    #[test]
    fn slices_one_write_with_stream_indices() {
        let l = Lineage::of(&stream(), 3);
        assert_eq!(l.events.len(), 3);
        assert_eq!(l.events[0].0, 0);
        assert_eq!(l.events[1].0, 2);
        assert_eq!(l.events[2].0, 4);
        assert_eq!(l.created_at(), Some(5));
        assert_eq!(l.last_at(), Some(20));
        assert_eq!(l.rounds_closed(), 1);
        assert!(l.completed());
        let lines = l.lines();
        assert_eq!(lines.len(), 4, "summary + 3 events");
        assert!(lines[0].contains("write #3"), "{}", lines[0]);
        assert!(lines[0].contains("completed"));
        assert!(lines[1].starts_with("  [0] "));
    }

    #[test]
    fn absent_write_renders_gracefully() {
        let l = Lineage::of(&stream(), 77);
        assert!(l.is_empty());
        assert!(!l.completed());
        let lines = lineage_lines(&stream(), 77);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("not present"));
    }
}
