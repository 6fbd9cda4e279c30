//! The benchmark's counting event sink: per-layer work counts tallied at
//! the engine's stage boundaries, plus a bounded sample of raw events for
//! the inspect-layer codec replays.

use fpb_sim::inspect::PowerOp;
use fpb_sim::{EventSink, LifecycleEvent, Metrics};

/// Tallies lifecycle events by kind.
#[derive(Debug, Clone, Default)]
pub struct CountingSink {
    /// Every event received.
    pub events: u64,
    /// `StepSnapshot`s: one per engine step.
    pub steps: u64,
    /// `WriteCreated`: one change set sampled per write.
    pub writes_created: u64,
    /// Sum of `WriteCreated::rounds`: line-write rounds built.
    pub rounds_built: u64,
    /// Granted `try_admit` calls.
    pub admit_ok: u64,
    /// Refused `try_admit` calls.
    pub admit_refused: u64,
    /// `try_advance` calls.
    pub advance_attempts: u64,
    /// Refused `try_advance` calls.
    pub advance_stalls: u64,
    /// `release` calls.
    pub releases: u64,
    /// `RoundClosed` events.
    pub rounds_closed: u64,
    /// `RoundClosed` events that completed their line write.
    pub writes_closed: u64,
    /// Cells programmed by closed rounds.
    pub cells_closed: u64,
    /// GCP grants in the last power snapshot.
    pub gcp_grants: u64,
    /// The first events of the run, kept for codec replays.
    pub sample: Vec<LifecycleEvent>,
    sample_cap: usize,
}

impl CountingSink {
    /// A sink that keeps the first `sample_cap` events verbatim.
    pub fn new(sample_cap: usize) -> CountingSink {
        CountingSink {
            sample_cap,
            ..CountingSink::default()
        }
    }

    /// Checks the tallies against the run's own metrics, naming the first
    /// counter that disagrees.
    pub fn cross_check(&self, m: &Metrics) -> Result<(), String> {
        let pairs = [
            ("granted admits", self.admit_ok, m.power.admissions()),
            (
                "refused admits",
                self.admit_refused,
                m.power.admission_failures(),
            ),
            (
                "advance stalls",
                self.advance_stalls,
                m.power.advance_stalls(),
            ),
            ("closed rounds", self.rounds_closed, m.write_rounds),
            ("completed writes", self.writes_closed, m.pcm_writes),
            ("gcp grants", self.gcp_grants, m.power.gcp_grants()),
        ];
        for (what, sink, metrics) in pairs {
            if sink != metrics {
                return Err(format!(
                    "{what}: sink counted {sink}, Metrics says {metrics}"
                ));
            }
        }
        Ok(())
    }
}

impl EventSink for CountingSink {
    fn emit(&mut self, event: LifecycleEvent) {
        self.events += 1;
        match &event {
            LifecycleEvent::StepSnapshot { .. } => self.steps += 1,
            LifecycleEvent::WriteCreated { rounds, .. } => {
                self.writes_created += 1;
                self.rounds_built += rounds;
            }
            LifecycleEvent::Power { op, ok, stats, .. } => {
                self.gcp_grants = stats[4];
                match (op, ok) {
                    (PowerOp::Admit, true) => self.admit_ok += 1,
                    (PowerOp::Admit, false) => self.admit_refused += 1,
                    (PowerOp::Advance, ok) => {
                        self.advance_attempts += 1;
                        self.advance_stalls += u64::from(!ok);
                    }
                    (PowerOp::Release, _) => self.releases += 1,
                    (PowerOp::BrownoutBegin | PowerOp::BrownoutEnd, _) => {}
                }
            }
            LifecycleEvent::RoundClosed {
                cells, final_round, ..
            } => {
                self.rounds_closed += 1;
                self.writes_closed += u64::from(*final_round);
                self.cells_closed += cells;
            }
            _ => {}
        }
        if self.sample.len() < self.sample_cap {
            self.sample.push(event);
        }
    }
}
