//! Bank-activity timelines: a view over a run's lifecycle events, and an
//! ASCII Gantt rendering of what the DIMM was doing.
//!
//! The engine records queue depths, burst mode and per-bank write
//! occupancy in a `StepSnapshot` event at the top of every step;
//! [`Timeline::from_events`] turns those into samples and renders a
//! fixed-width strip per bank — the fastest way to *see* write bursts
//! serializing reads, or FPB overlapping writes that the baseline runs
//! back to back.

use std::fmt;

use fpb_types::Cycles;

use crate::inspect::LifecycleEvent;
use crate::metrics::Metrics;

/// Why [`Timeline::render`] could not produce a chart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RenderError {
    /// The requested chart width was zero.
    ZeroWidth,
    /// Nothing was recorded (the timeline holds no samples).
    Empty,
}

impl fmt::Display for RenderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RenderError::ZeroWidth => write!(f, "chart width must be nonzero"),
            RenderError::Empty => write!(f, "timeline holds no samples"),
        }
    }
}

impl std::error::Error for RenderError {}

/// One sampled instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Simulation time of the sample.
    pub at: Cycles,
    /// Per-bank: does the bank hold a write (in any state)?
    pub bank_writes: Vec<bool>,
    /// Controller in write-burst mode?
    pub burst: bool,
    /// Write-queue depth.
    pub wrq: usize,
    /// Read-queue depth.
    pub rdq: usize,
}

/// A recorded run: every event-round snapshot plus the final metrics.
#[derive(Debug, Clone)]
pub struct Timeline {
    samples: Vec<Sample>,
    metrics: Metrics,
}

impl Timeline {
    /// Folds a recorded event stream: one [`Sample`] per `StepSnapshot`,
    /// and the run's [`Metrics`] from every event.
    ///
    /// # Examples
    ///
    /// ```
    /// use fpb_sim::inspect::MemorySink;
    /// use fpb_sim::timeline::Timeline;
    /// use fpb_sim::{run_workload_recorded, SchemeSetup, SimOptions};
    /// use fpb_trace::catalog;
    /// use fpb_types::SystemConfig;
    ///
    /// let cfg = SystemConfig::default();
    /// let wl = catalog::workload("cop_m").unwrap();
    /// let opts = SimOptions::with_instructions(20_000);
    /// let (m, sink) =
    ///     run_workload_recorded(&wl, &cfg, &SchemeSetup::fpb(&cfg), &opts, MemorySink::new())
    ///         .unwrap();
    /// let tl = Timeline::from_events(sink.events());
    /// assert!(!tl.samples().is_empty());
    /// assert_eq!(tl.metrics(), &m);
    /// ```
    pub fn from_events(events: &[LifecycleEvent]) -> Timeline {
        let mut metrics = Metrics::default();
        let mut banks = 0;
        let mut samples = Vec::new();
        for ev in events {
            metrics.apply(ev);
            match ev {
                LifecycleEvent::RunStart { banks: b, .. } => banks = *b,
                LifecycleEvent::StepSnapshot {
                    at,
                    bank_mask,
                    burst,
                    wrq,
                    rdq,
                } => {
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "queue depths count entries of in-memory queues"
                    )]
                    samples.push(Sample {
                        at: Cycles::new(*at),
                        bank_writes: (0..u32::from(banks))
                            .map(|b| bank_mask.checked_shr(b).is_some_and(|m| m & 1 != 0))
                            .collect(),
                        burst: *burst,
                        wrq: *wrq as usize,
                        rdq: *rdq as usize,
                    });
                }
                _ => {}
            }
        }
        Timeline { samples, metrics }
    }

    /// The recorded samples, in time order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The run's final metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Fraction of samples during which `bank` held a write.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range or nothing was recorded.
    pub fn bank_write_occupancy(&self, bank: usize) -> f64 {
        assert!(!self.samples.is_empty(), "empty timeline");
        let hits = self.samples.iter().filter(|s| s.bank_writes[bank]).count();
        hits as f64 / self.samples.len() as f64
    }

    /// Renders an ASCII strip chart: one row per bank (`#` = write
    /// resident, `.` = not), plus a burst row (`B`/`.`), `width` columns
    /// spanning the run (each column aggregates a time slice by majority).
    ///
    /// # Errors
    ///
    /// Returns [`RenderError`] if `width` is zero or nothing was
    /// recorded.
    pub fn render(&self, width: usize) -> Result<String, RenderError> {
        if width == 0 {
            return Err(RenderError::ZeroWidth);
        }
        let Some(last) = self.samples.last() else {
            return Err(RenderError::Empty);
        };
        let banks = self.samples[0].bank_writes.len();
        let end = last.at.get().max(1);
        let mut out = String::new();

        // Bucket samples by time slice.
        let mut buckets: Vec<Vec<&Sample>> = vec![Vec::new(); width];
        for s in &self.samples {
            let col = ((s.at.get() as u128 * width as u128) / (end as u128 + 1)) as usize;
            buckets[col.min(width - 1)].push(s);
        }

        for bank in 0..banks {
            out.push_str(&format!("bank{bank} "));
            for b in &buckets {
                let (mut on, mut n) = (0usize, 0usize);
                for s in b {
                    n += 1;
                    on += s.bank_writes[bank] as usize;
                }
                out.push(if n == 0 {
                    ' '
                } else if on * 2 >= n {
                    '#'
                } else {
                    '.'
                });
            }
            out.push('\n');
        }
        out.push_str("burst ");
        for b in &buckets {
            let (mut on, mut n) = (0usize, 0usize);
            for s in b {
                n += 1;
                on += s.burst as usize;
            }
            out.push(if n == 0 {
                ' '
            } else if on * 2 >= n {
                'B'
            } else {
                '.'
            });
        }
        out.push('\n');
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inspect::MemorySink;
    use crate::scheme::SchemeSetup;
    use crate::SimOptions;
    use fpb_trace::catalog;
    use fpb_types::SystemConfig;

    fn recorded(scheme: fn(&SystemConfig) -> SchemeSetup) -> Timeline {
        let cfg = SystemConfig::default();
        let wl = catalog::workload("lbm_m").expect("workload");
        let opts = SimOptions::with_instructions(40_000);
        let (m, sink) =
            crate::run_workload_recorded(&wl, &cfg, &scheme(&cfg), &opts, MemorySink::new())
                .unwrap();
        let tl = Timeline::from_events(sink.events());
        assert_eq!(
            tl.metrics(),
            &m,
            "the fold must reproduce the run's metrics"
        );
        tl
    }

    #[test]
    fn recording_matches_plain_run() {
        let cfg = SystemConfig::default();
        let wl = catalog::workload("lbm_m").expect("workload");
        let opts = SimOptions::with_instructions(40_000);
        let plain = crate::run_workload(&wl, &cfg, &SchemeSetup::fpb(&cfg), &opts);
        let tl = recorded(SchemeSetup::fpb);
        assert_eq!(tl.metrics(), &plain, "recording must not change results");
    }

    #[test]
    fn snapshots_become_samples() {
        let evs = vec![
            LifecycleEvent::RunStart {
                cores: 2,
                instructions_per_core: 100,
                chips: 4,
                banks: 8,
                total_lines: 1024,
                cells_per_chip_per_line: 64,
                seed: 7,
            },
            LifecycleEvent::StepSnapshot {
                at: 0,
                bank_mask: 0b101,
                burst: false,
                wrq: 1,
                rdq: 2,
            },
            LifecycleEvent::StepSnapshot {
                at: 9,
                bank_mask: 0,
                burst: true,
                wrq: 0,
                rdq: 0,
            },
            LifecycleEvent::RunEnd { at: 9 },
        ];
        let tl = Timeline::from_events(&evs);
        assert_eq!(tl.samples().len(), 2);
        let s0 = &tl.samples()[0];
        assert_eq!(s0.at, Cycles::new(0));
        assert_eq!(s0.bank_writes.len(), 8);
        assert!(s0.bank_writes[0] && s0.bank_writes[2] && !s0.bank_writes[1]);
        assert_eq!((s0.wrq, s0.rdq), (1, 2));
        assert_eq!(tl.metrics().cycles, 9);
        assert_eq!(tl.metrics().cores, 2);
        assert!(tl.metrics().endurance.is_some());
    }

    #[test]
    fn samples_are_time_ordered() {
        let tl = recorded(SchemeSetup::dimm_chip);
        let mut last = Cycles::ZERO;
        for s in tl.samples() {
            assert!(s.at >= last);
            last = s.at;
        }
    }

    #[test]
    fn write_heavy_run_occupies_banks() {
        let tl = recorded(SchemeSetup::dimm_chip);
        let any: f64 = (0..8).map(|b| tl.bank_write_occupancy(b)).sum();
        assert!(any > 0.1, "some bank must carry writes: {any}");
    }

    #[test]
    fn render_shape_is_stable() {
        let tl = recorded(SchemeSetup::fpb);
        let chart = tl.render(60).unwrap();
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 9, "8 banks + burst row");
        assert!(lines[0].starts_with("bank0 "));
        assert!(lines[8].starts_with("burst "));
        for l in &lines {
            assert_eq!(l.len(), 6 + 60, "fixed width: {l}");
        }
    }

    #[test]
    fn zero_width_is_a_typed_error() {
        let tl = recorded(SchemeSetup::fpb);
        assert_eq!(tl.render(0), Err(RenderError::ZeroWidth));
        let empty = Timeline {
            samples: Vec::new(),
            metrics: Metrics::default(),
        };
        assert_eq!(empty.render(10), Err(RenderError::Empty));
    }
}
