//! Event-sourced run inspection: record a run's lifecycle event stream,
//! replay it, and interrogate it (`fpb inspect`).
//!
//! The engine's stage modules emit one [`LifecycleEvent`] per stage
//! transition. Every event is folded into the run's [`crate::Metrics`]
//! by [`crate::Metrics::apply`] — the engine's only producer of metrics
//! — and then forwarded to the caller's [`EventSink`], threaded into
//! [`crate::System`] as a type parameter. The default sink is
//! [`NullSink`], whose `ENABLED = false` constant turns the forwarding
//! off. With a live sink, the stream is a *complete* record: folding it
//! again reproduces the run's metrics and [`crate::Timeline`] by
//! construction, and the recorded stream answers breakpoints, stall
//! attribution and per-write lineage.
//!
//! * [`event`] — the event vocabulary and its exact ASCII wire codec.
//! * [`recorder`] — the durable `fpbi1` event log (CRC-framed, fsync'd,
//!   torn-tail tolerant — a [`crate::store`] format).
//! * [`breakpoint`] — halt predicates ("first degraded write",
//!   "token-stalled>N") and the scan to their first hit, for `fpb
//!   inspect break`.
//! * [`stall`] — where writes waited: token stalls, pauses, backoffs.
//! * [`lineage`] — one write's admission→iteration→power→completion
//!   trace.

pub mod breakpoint;
pub mod event;
pub mod lineage;
pub mod recorder;
pub mod stall;

pub use breakpoint::{BreakHit, Breakpoint};
pub use event::{stage_code, stage_from_code, LifecycleEvent, PowerOp, SchemeHook};
pub use lineage::{lineage_lines, Lineage};
pub use recorder::{read_event_log, EventLog, EventLogWriter, FileSink, EVENT_LOG_MAGIC};
pub use stall::{StallKind, StallReport};

/// Receives the engine's lifecycle events.
///
/// The engine builds every event and folds it into its own metrics
/// whatever the sink; `ENABLED` only decides whether the event is then
/// forwarded to the sink. A sink whose `ENABLED` is `false` (the default
/// [`NullSink`]) is never called, and the one event the metrics fold
/// ignores and that costs work to build — the per-step bank snapshot —
/// is skipped entirely. Implementations must be infallible from the
/// engine's point of view — a sink that can fail (like [`FileSink`])
/// records its first error internally and reports it when the caller
/// finishes the sink.
pub trait EventSink {
    /// Whether the engine should forward events to [`EventSink::emit`].
    /// `false` const-folds the forwarding away.
    const ENABLED: bool = true;

    /// Accepts one event. Called only when [`EventSink::ENABLED`] is
    /// `true`.
    fn emit(&mut self, event: LifecycleEvent);
}

/// The default sink: no recording. `System<S>` means
/// `System<S, NullSink>`; the engine still folds every event into its
/// metrics, but forwards none and skips the per-step bank snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl EventSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&mut self, _event: LifecycleEvent) {}
}

/// Buffers every event in memory — the sink behind in-process replay
/// (breakpoints without a log file) and the equivalence tests.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    events: Vec<LifecycleEvent>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// The events recorded so far, in emission order.
    pub fn events(&self) -> &[LifecycleEvent] {
        &self.events
    }

    /// Consumes the sink, yielding the recorded stream.
    pub fn into_events(self) -> Vec<LifecycleEvent> {
        self.events
    }
}

impl EventSink for MemorySink {
    fn emit(&mut self, event: LifecycleEvent) {
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        const { assert!(!NullSink::ENABLED) };
        let mut s = NullSink;
        s.emit(LifecycleEvent::RunEnd { at: 1 }); // must be a no-op
    }

    #[test]
    fn memory_sink_buffers_in_order() {
        let mut s = MemorySink::new();
        const { assert!(MemorySink::ENABLED) };
        s.emit(LifecycleEvent::BrownoutStart { at: 5 });
        s.emit(LifecycleEvent::BrownoutEnd { at: 9 });
        assert_eq!(s.events().len(), 2);
        let evs = s.into_events();
        assert_eq!(evs[1], LifecycleEvent::BrownoutEnd { at: 9 });
    }
}
