//! Replay: step/seek/reset over a recorded event stream.
//!
//! [`Cursor`] walks a stream forward one event at a time, jumps to
//! arbitrary positions, and runs to the next [`super::Breakpoint`] hit.
//! The stream is immutable, so every position replays exactly; the
//! run's metrics and timeline are folds over the same stream
//! ([`crate::Metrics::apply`], [`crate::Timeline::from_events`]).

use super::breakpoint::{BreakHit, Breakpoint};
use super::event::LifecycleEvent;

/// A replay position inside a recorded event stream.
#[derive(Debug, Clone)]
pub struct Cursor {
    events: Vec<LifecycleEvent>,
    pos: usize,
}

impl Cursor {
    /// Wraps a recorded stream, positioned before the first event.
    pub fn new(events: Vec<LifecycleEvent>) -> Cursor {
        Cursor { events, pos: 0 }
    }

    /// Total events in the stream.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the stream holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Index of the next event [`Cursor::step`] would yield.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The whole stream (replay helpers like
    /// [`super::lineage_lines`] take the raw slice).
    pub fn events(&self) -> &[LifecycleEvent] {
        &self.events
    }

    /// The next event without advancing.
    pub fn peek(&self) -> Option<&LifecycleEvent> {
        self.events.get(self.pos)
    }

    /// Yields the next event and advances past it; `None` at the end.
    pub fn step(&mut self) -> Option<&LifecycleEvent> {
        let ev = self.events.get(self.pos)?;
        self.pos += 1;
        Some(ev)
    }

    /// Jumps so the next [`Cursor::step`] yields event `index` (clamped
    /// to one-past-the-end).
    pub fn seek(&mut self, index: usize) {
        self.pos = index.min(self.events.len());
    }

    /// Rewinds to before the first event — time travel in one call:
    /// the stream is immutable, so replaying from the start is always
    /// exact.
    pub fn reset(&mut self) {
        self.pos = 0;
    }

    /// Advances until `bp` fires, returning the hit (the cursor rests
    /// just past the matching event); `None` if the stream ends first.
    pub fn run_until(&mut self, bp: &mut Breakpoint) -> Option<BreakHit> {
        while self.pos < self.events.len() {
            let idx = self.pos;
            self.pos += 1;
            if let Some(hit) = bp.check(idx, &self.events[idx]) {
                return Some(hit);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_steps_seeks_resets() {
        let evs = vec![
            LifecycleEvent::BrownoutStart { at: 1 },
            LifecycleEvent::BrownoutEnd { at: 2 },
            LifecycleEvent::RunEnd { at: 3 },
        ];
        let mut c = Cursor::new(evs);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.peek(), Some(&LifecycleEvent::BrownoutStart { at: 1 }));
        assert_eq!(c.step(), Some(&LifecycleEvent::BrownoutStart { at: 1 }));
        assert_eq!(c.pos(), 1);
        c.seek(2);
        assert_eq!(c.step(), Some(&LifecycleEvent::RunEnd { at: 3 }));
        assert_eq!(c.step(), None);
        c.reset();
        assert_eq!(c.pos(), 0);
        c.seek(99);
        assert_eq!(c.pos(), 3, "seek clamps");
    }
}
