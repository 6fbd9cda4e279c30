//! Simulation results, and the fold that computes them from a run's
//! lifecycle events.

use fpb_core::PowerStats;
use fpb_pcm::EnduranceTracker;
use fpb_types::LineAddr;

use crate::inspect::LifecycleEvent;
use crate::scheme::WriteStage;

/// Everything one simulation run reports.
///
/// # Examples
///
/// ```
/// use fpb_sim::Metrics;
///
/// let m = Metrics::default();
/// assert_eq!(m.cycles, 0);
/// ```
/// `PartialEq`/`Eq` let determinism tests — and the parallel sweep's
/// serial-equivalence guarantee — compare whole runs bit-for-bit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Total elapsed cycles until every core retired its instruction
    /// budget.
    pub cycles: u64,
    /// Instructions retired per core (the run target).
    pub instructions_per_core: u64,
    /// Number of cores.
    pub cores: u8,
    /// Demand reads serviced by PCM.
    pub pcm_reads: u64,
    /// Line writes fully completed (all rounds).
    pub pcm_writes: u64,
    /// Write rounds completed (≥ `pcm_writes` when multi-round splits
    /// occur).
    pub write_rounds: u64,
    /// Total cells programmed by completed write *rounds* (accumulated
    /// when a round closes, so it always equals the
    /// [`Metrics::per_chip_cells`] sum even if a later round of the same
    /// line write is still in flight when the run ends).
    pub cells_written: u64,
    /// Cycles during which the controller was in write-burst mode.
    pub burst_cycles: u64,
    /// Cycles during which at least one write was actively iterating.
    pub write_active_cycles: u64,
    /// Sum of per-write queueing delays (arrival to first admission), in
    /// cycles.
    pub write_queue_delay: u64,
    /// Writes cancelled by write cancellation.
    pub cancellations: u64,
    /// Writes paused by write pausing.
    pub pauses: u64,
    /// Writes ended early by write truncation.
    pub truncations: u64,
    /// Sum of PCM read service latencies (queue entry to data return), in
    /// cycles.
    pub read_latency_sum: u64,
    /// Background drift-scrub reads serviced.
    pub scrub_reads: u64,
    /// Cells written per chip across completed write rounds (length =
    /// chip count; empty if no writes completed).
    pub per_chip_cells: Vec<u64>,
    /// Power-manager statistics (GCP usage, stalls, Multi-RESET splits).
    pub power: PowerStats,
    /// Wear accounting and lifetime projection for the run's writes.
    pub endurance: Option<EnduranceTracker>,
    /// Fault-injection and recovery counters (all zero when injection is
    /// disabled).
    pub faults: FaultMetrics,
}

/// Counters for injected faults and the controller's recovery actions.
///
/// `PartialEq`/`Eq` so determinism tests can compare two runs directly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultMetrics {
    /// Write rounds whose final verify failed (injected, including
    /// deterministic failures on stuck lines).
    pub verify_failures: u64,
    /// Retry rounds issued in response to verify failures.
    pub retries: u64,
    /// Lines marked stuck-at by the endurance-triggered fault model.
    pub stuck_lines_marked: u64,
    /// Lines remapped to spares after retries were exhausted.
    pub remaps: u64,
    /// Rounds rewritten in SLC fallback mode (single-level programming on
    /// weak cells).
    pub slc_fallbacks: u64,
    /// Rounds force-closed by the controller watchdog.
    pub watchdog_trips: u64,
    /// Brownout windows entered.
    pub brownout_windows: u64,
    /// Cycles spent with brownout-shrunk token budgets.
    pub brownout_cycles: u64,
    /// New writes issued in degraded (SLC) mode.
    pub degraded_writes: u64,
    /// Cycles spent in degraded mode.
    pub degraded_cycles: u64,
    /// Token-conservation violations found by the opt-in ledger auditor.
    pub audit_violations: u64,
}

impl FaultMetrics {
    /// True if any fault fired or any recovery action was taken.
    pub fn any_activity(&self) -> bool {
        *self != FaultMetrics::default()
    }
}

impl Metrics {
    /// Cycles per instruction of the run (elapsed cycles over the per-core
    /// instruction budget — every core retires the same budget).
    ///
    /// # Panics
    ///
    /// Panics if the run retired no instructions.
    pub fn cpi(&self) -> f64 {
        assert!(self.instructions_per_core > 0, "empty run has no CPI");
        self.cycles as f64 / self.instructions_per_core as f64
    }

    /// Speedup of this run relative to a baseline (`CPI_base / CPI_self`,
    /// Eq. 7).
    pub fn speedup_over(&self, baseline: &Metrics) -> f64 {
        baseline.cpi() / self.cpi()
    }

    /// Write throughput: completed line writes per kilocycle of
    /// write-active time. Schemes that overlap writes better finish the
    /// same write volume in less active time.
    pub fn write_throughput(&self) -> f64 {
        if self.write_active_cycles == 0 {
            0.0
        } else {
            self.pcm_writes as f64 * 1000.0 / self.write_active_cycles as f64
        }
    }

    /// Fraction of execution time spent in write bursts (Fig. 10).
    pub fn burst_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.burst_cycles as f64 / self.cycles as f64
        }
    }

    /// Average cells changed per completed line write (Fig. 2).
    pub fn avg_cell_changes(&self) -> f64 {
        if self.pcm_writes == 0 {
            0.0
        } else {
            self.cells_written as f64 / self.pcm_writes as f64
        }
    }

    /// Average PCM read service latency in cycles (WC/WP's target metric).
    pub fn avg_read_latency(&self) -> f64 {
        if self.pcm_reads == 0 {
            0.0
        } else {
            self.read_latency_sum as f64 / self.pcm_reads as f64
        }
    }

    /// Per-chip write-wear imbalance: max over mean cells written per
    /// chip (1.0 = perfectly even). Returns 0 when nothing was written.
    pub fn chip_imbalance(&self) -> f64 {
        let Some(&max) = self.per_chip_cells.iter().max() else {
            return 0.0; // no chips recorded
        };
        let max = max as f64;
        let mean =
            self.per_chip_cells.iter().sum::<u64>() as f64 / self.per_chip_cells.len() as f64;
        // `mean` is an integer sum over a nonzero count: it is exactly 0.0
        // iff no cells were written, so exact equality is the right guard.
        // fpb-lint: allow(float_eq)
        if mean == 0.0 {
            0.0
        } else {
            max / mean
        }
    }

    /// Folds one lifecycle event in. This is the only place a run's
    /// metrics are computed: the engine applies every event it emits, and
    /// replay applies a recorded stream in order, so a live run and its
    /// replay agree by construction.
    ///
    /// Deltas accumulate (`TimeAdvance` → activity cycles, `RoundClosed`
    /// → cells); `Power` snapshots overwrite, because outstanding and
    /// peak tokens are not additive. `RunStart` builds the run's one wear
    /// tracker, which every `RoundClosed` feeds.
    ///
    /// `#[inline]` so the engine's emission sites, monomorphized in the
    /// caller's crate, fold each event they build down to its counter
    /// updates.
    #[inline]
    pub fn apply(&mut self, ev: &LifecycleEvent) {
        match ev {
            LifecycleEvent::RunStart {
                cores,
                instructions_per_core,
                chips,
                total_lines,
                cells_per_chip_per_line,
                ..
            } => {
                self.cores = *cores;
                self.instructions_per_core = *instructions_per_core;
                // Coarse wear tracking: 64 regions, PCM-typical 10^7
                // endurance.
                self.endurance = Some(
                    EnduranceTracker::new(*total_lines, 64, *chips, 10_000_000)
                        .with_cells_per_chip(*cells_per_chip_per_line),
                );
            }
            LifecycleEvent::TimeAdvance {
                from,
                to,
                burst,
                writing,
                brownout,
                degraded,
            } => {
                let delta = to.saturating_sub(*from);
                if *burst {
                    self.burst_cycles += delta;
                }
                if *writing {
                    self.write_active_cycles += delta;
                }
                if *brownout {
                    self.faults.brownout_cycles += delta;
                }
                if *degraded {
                    self.faults.degraded_cycles += delta;
                }
            }
            LifecycleEvent::WriteCreated { degraded, .. } => {
                self.faults.degraded_writes += u64::from(*degraded);
            }
            LifecycleEvent::WriteAdmitted { queue_delay, .. } => {
                self.write_queue_delay += queue_delay;
            }
            LifecycleEvent::Stage { to, .. } => match to {
                WriteStage::Paused => self.pauses += 1,
                // The only transition *back* to Queued is cancellation.
                WriteStage::Queued => self.cancellations += 1,
                _ => {}
            },
            LifecycleEvent::Power { stats, audit, .. } => {
                self.power = PowerStats::from_raw(*stats);
                self.faults.audit_violations = *audit;
            }
            LifecycleEvent::ReadIssued { latency, scrub, .. } => {
                if !scrub {
                    self.read_latency_sum += latency;
                }
            }
            LifecycleEvent::ReadDone { scrub, .. } => {
                if *scrub {
                    self.scrub_reads += 1;
                } else {
                    self.pcm_reads += 1;
                }
            }
            LifecycleEvent::RoundClosed {
                line,
                cells,
                truncated,
                final_round,
                per_chip,
                ..
            } => {
                self.write_rounds += 1;
                // Sized on the first closed round, so a run that closes
                // none reports an empty array.
                if self.per_chip_cells.is_empty() {
                    self.per_chip_cells = vec![0; per_chip.len()];
                }
                for (acc, c) in self.per_chip_cells.iter_mut().zip(per_chip) {
                    *acc += u64::from(*c);
                }
                if let Some(e) = self.endurance.as_mut() {
                    e.record_write(LineAddr::new(*line), per_chip);
                }
                self.cells_written += cells;
                self.truncations += u64::from(*truncated);
                self.pcm_writes += u64::from(*final_round);
            }
            LifecycleEvent::StuckMarked { lines, .. } => {
                self.faults.stuck_lines_marked += lines;
            }
            LifecycleEvent::VerifyFailed { remapped, .. } => {
                self.faults.verify_failures += 1;
                if *remapped {
                    self.faults.remaps += 1;
                    self.faults.slc_fallbacks += 1;
                } else {
                    self.faults.retries += 1;
                }
            }
            LifecycleEvent::WatchdogTripped { .. } => self.faults.watchdog_trips += 1,
            LifecycleEvent::BrownoutStart { .. } => self.faults.brownout_windows += 1,
            LifecycleEvent::RunEnd { at } => self.cycles = *at,
            LifecycleEvent::StepSnapshot { .. }
            | LifecycleEvent::WriteCoalesced { .. }
            | LifecycleEvent::SchemeDecision { .. }
            | LifecycleEvent::BrownoutEnd { .. }
            | LifecycleEvent::CoreDone { .. } => {}
        }
    }

    /// Average usable GCP tokens requested per completed line write
    /// (Fig. 14).
    pub fn avg_gcp_tokens_per_write(&self) -> f64 {
        if self.pcm_writes == 0 {
            0.0
        } else {
            self.power.gcp_usable_total().as_f64() / self.pcm_writes as f64
        }
    }

    /// The top-level scalar counters, in the fixed JSON field order
    /// shared by [`Metrics::to_json`] and [`Metrics::to_json_inline`].
    fn scalar_fields(&self) -> [(&'static str, u64); 15] {
        [
            ("cycles", self.cycles),
            ("instructions_per_core", self.instructions_per_core),
            ("cores", self.cores as u64),
            ("pcm_reads", self.pcm_reads),
            ("pcm_writes", self.pcm_writes),
            ("write_rounds", self.write_rounds),
            ("cells_written", self.cells_written),
            ("burst_cycles", self.burst_cycles),
            ("write_active_cycles", self.write_active_cycles),
            ("write_queue_delay", self.write_queue_delay),
            ("cancellations", self.cancellations),
            ("pauses", self.pauses),
            ("truncations", self.truncations),
            ("read_latency_sum", self.read_latency_sum),
            ("scrub_reads", self.scrub_reads),
        ]
    }

    /// The `power` object's fields, in fixed order.
    fn power_fields(&self) -> [(&'static str, u64); 7] {
        [
            ("admissions", self.power.admissions()),
            ("admission_failures", self.power.admission_failures()),
            ("advance_stalls", self.power.advance_stalls()),
            ("multi_reset_splits", self.power.multi_reset_splits()),
            ("gcp_grants", self.power.gcp_grants()),
            (
                "gcp_usable_millitokens",
                self.power.gcp_usable_total().millis(),
            ),
            (
                "gcp_waste_millitokens",
                self.power.gcp_waste_total().millis(),
            ),
        ]
    }

    /// The `faults` object's fields, in fixed order.
    fn fault_fields(&self) -> [(&'static str, u64); 11] {
        [
            ("verify_failures", self.faults.verify_failures),
            ("retries", self.faults.retries),
            ("stuck_lines_marked", self.faults.stuck_lines_marked),
            ("remaps", self.faults.remaps),
            ("slc_fallbacks", self.faults.slc_fallbacks),
            ("watchdog_trips", self.faults.watchdog_trips),
            ("brownout_windows", self.faults.brownout_windows),
            ("brownout_cycles", self.faults.brownout_cycles),
            ("degraded_writes", self.faults.degraded_writes),
            ("degraded_cycles", self.faults.degraded_cycles),
            ("audit_violations", self.faults.audit_violations),
        ]
    }

    /// Renders the non-scalar sections (`per_chip_cells` array, `power`
    /// object, `endurance_cells`, `faults` object) into `s`, joined by
    /// `sep` and prefixed by `pad`.
    fn push_composite_fields(&self, s: &mut String, sep: &str, pad: &str) {
        s.push_str(pad);
        s.push_str("\"per_chip_cells\": [");
        for (i, c) in self.per_chip_cells.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&c.to_string());
        }
        s.push(']');
        s.push_str(sep);
        s.push_str(pad);
        s.push_str("\"power\": {");
        push_object_fields(s, &self.power_fields());
        s.push('}');
        s.push_str(sep);
        s.push_str(pad);
        s.push_str("\"endurance_cells\": ");
        match &self.endurance {
            Some(e) => s.push_str(&e.total_cells_written().to_string()),
            None => s.push_str("null"),
        }
        s.push_str(sep);
        s.push_str(pad);
        s.push_str("\"faults\": {");
        push_object_fields(s, &self.fault_fields());
        s.push('}');
    }

    /// Deterministic JSON rendering of the full run result.
    ///
    /// Every field is an exact integer (token totals are reported in raw
    /// millitokens), so two runs that are bit-for-bit identical produce
    /// byte-identical documents — the property the pooled-vs-fresh write
    /// path tests compare. Field order is fixed.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        s.push_str("  \"schema\": \"fpb-metrics/v1\",\n");
        for (k, v) in self.scalar_fields() {
            s.push_str(&format!("  \"{k}\": {v},\n"));
        }
        self.push_composite_fields(&mut s, ",\n", "  ");
        s.push_str("\n}\n");
        s
    }

    /// Flattens the full run result into one line of space-separated
    /// decimal integers — an *exact* encoding (no floats anywhere in
    /// `Metrics`), so `decode_record(encode_record(m)) == m` bit for
    /// bit. This is the storage form of the persistent sweep result
    /// cache; byte-identical JSON after a cache splice rests on this
    /// round trip being lossless.
    ///
    /// Layout: 15 scalars, per-chip length + values, 9 raw power
    /// counters, endurance flag (+ parts when present), 11 fault
    /// counters.
    pub fn encode_record(&self) -> String {
        let mut out = String::with_capacity(256);
        let mut push = |v: u64| {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&v.to_string());
        };
        for (_, v) in self.scalar_fields() {
            push(v);
        }
        push(self.per_chip_cells.len() as u64);
        for &c in &self.per_chip_cells {
            push(c);
        }
        for v in self.power.to_raw() {
            push(v);
        }
        match &self.endurance {
            None => push(0),
            Some(e) => {
                let (lines_per_region, per_region, per_chip, cells, endurance) = e.to_parts();
                push(1);
                push(lines_per_region);
                push(per_region.len() as u64);
                for v in per_region {
                    push(v);
                }
                push(per_chip.len() as u64);
                for v in per_chip {
                    push(v);
                }
                push(cells);
                push(endurance);
            }
        }
        for (_, v) in self.fault_fields() {
            push(v);
        }
        out
    }

    /// Parses [`Metrics::encode_record`] output. Returns `None` on any
    /// malformed input (wrong token count, non-integer, invariant
    /// violation) — callers treat that as a cache miss, never an error.
    pub fn decode_record(text: &str) -> Option<Metrics> {
        let mut it = text.split_ascii_whitespace().map(|t| t.parse::<u64>().ok());
        let mut next = || it.next().flatten();
        let mut m = Metrics {
            cycles: next()?,
            instructions_per_core: next()?,
            cores: u8::try_from(next()?).ok()?,
            ..Metrics::default()
        };
        m.pcm_reads = next()?;
        m.pcm_writes = next()?;
        m.write_rounds = next()?;
        m.cells_written = next()?;
        m.burst_cycles = next()?;
        m.write_active_cycles = next()?;
        m.write_queue_delay = next()?;
        m.cancellations = next()?;
        m.pauses = next()?;
        m.truncations = next()?;
        m.read_latency_sum = next()?;
        m.scrub_reads = next()?;
        let chips = usize::try_from(next()?).ok()?;
        if chips > 1 << 16 {
            return None; // implausible chip count: refuse the allocation
        }
        m.per_chip_cells = (0..chips).map(|_| next()).collect::<Option<Vec<u64>>>()?;
        let mut power = [0u64; 9];
        for slot in &mut power {
            *slot = next()?;
        }
        m.power = fpb_core::PowerStats::from_raw(power);
        m.endurance = match next()? {
            0 => None,
            1 => {
                let lines_per_region = next()?;
                let regions = usize::try_from(next()?).ok()?;
                if regions > 1 << 24 {
                    return None;
                }
                let per_region = (0..regions).map(|_| next()).collect::<Option<Vec<u64>>>()?;
                let chips = usize::try_from(next()?).ok()?;
                if chips > 1 << 16 {
                    return None;
                }
                let per_chip = (0..chips).map(|_| next()).collect::<Option<Vec<u64>>>()?;
                let cells = next()?;
                let endurance = next()?;
                Some(EnduranceTracker::from_parts(
                    lines_per_region,
                    per_region,
                    per_chip,
                    cells,
                    endurance,
                )?)
            }
            _ => return None,
        };
        m.faults = FaultMetrics {
            verify_failures: next()?,
            retries: next()?,
            stuck_lines_marked: next()?,
            remaps: next()?,
            slc_fallbacks: next()?,
            watchdog_trips: next()?,
            brownout_windows: next()?,
            brownout_cycles: next()?,
            degraded_writes: next()?,
            degraded_cycles: next()?,
            audit_violations: next()?,
        };
        if it.next().is_some() {
            return None; // trailing tokens: not a record we wrote
        }
        Some(m)
    }

    /// [`Metrics::to_json`] on one line: same fields, same order, same
    /// integer-only values, `", "`-separated with no indentation and no
    /// `schema` field (the embedding document carries the schema). This
    /// is the form the sweep journal stores verbatim — byte-identical
    /// resume rests on this rendering being a pure function of the
    /// metrics.
    pub fn to_json_inline(&self) -> String {
        let mut s = String::with_capacity(768);
        s.push('{');
        for (k, v) in self.scalar_fields() {
            s.push_str(&format!("\"{k}\": {v}, "));
        }
        self.push_composite_fields(&mut s, ", ", "");
        s.push('}');
        s
    }
}

/// Appends `"key": value` pairs joined by `", "`.
fn push_object_fields(s: &mut String, fields: &[(&str, u64)]) {
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("\"{k}\": {v}"));
    }
}

/// Renders `s` as a JSON string literal (quotes, backslashes, and
/// control characters escaped) — the one escaper every hand-rendered
/// report in this crate shares.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Geometric mean of a slice of positive values (the paper reports
/// `gmean` across workloads).
///
/// # Examples
///
/// ```
/// use fpb_sim::metrics::gmean;
/// assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if `xs` is empty or contains a non-positive value.
pub fn gmean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "gmean of nothing");
    assert!(xs.iter().all(|&x| x > 0.0), "gmean needs positive values");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn cpi_and_speedup() {
        let base = Metrics {
            cycles: 2_000_000,
            instructions_per_core: 1_000_000,
            ..Metrics::default()
        };
        let fast = Metrics {
            cycles: 1_000_000,
            instructions_per_core: 1_000_000,
            ..Metrics::default()
        };
        assert_eq!(base.cpi(), 2.0);
        assert_eq!(fast.speedup_over(&base), 2.0);
        assert_eq!(base.speedup_over(&base), 1.0);
    }

    #[test]
    fn throughput_counts_active_time_only() {
        let m = Metrics {
            pcm_writes: 100,
            write_active_cycles: 50_000,
            ..Metrics::default()
        };
        assert_eq!(m.write_throughput(), 2.0);
        assert_eq!(Metrics::default().write_throughput(), 0.0);
    }

    #[test]
    fn fractions_and_averages() {
        let m = Metrics {
            cycles: 1000,
            burst_cycles: 520,
            pcm_writes: 10,
            cells_written: 2500,
            ..Metrics::default()
        };
        assert!((m.burst_fraction() - 0.52).abs() < 1e-12);
        assert_eq!(m.avg_cell_changes(), 250.0);
        assert_eq!(Metrics::default().burst_fraction(), 0.0);
        assert_eq!(Metrics::default().avg_cell_changes(), 0.0);
    }

    #[test]
    fn read_latency_and_imbalance() {
        let m = Metrics {
            pcm_reads: 4,
            read_latency_sum: 4400,
            per_chip_cells: vec![10, 10, 20, 0],
            ..Metrics::default()
        };
        assert_eq!(m.avg_read_latency(), 1100.0);
        assert_eq!(m.chip_imbalance(), 2.0);
        assert_eq!(Metrics::default().avg_read_latency(), 0.0);
        assert_eq!(Metrics::default().chip_imbalance(), 0.0);
    }

    #[test]
    fn apply_accumulates_deltas_and_overwrites_absolutes() {
        let mut m = Metrics::default();
        m.apply(&LifecycleEvent::TimeAdvance {
            from: 0,
            to: 10,
            burst: true,
            writing: true,
            brownout: false,
            degraded: false,
        });
        m.apply(&LifecycleEvent::TimeAdvance {
            from: 10,
            to: 15,
            burst: false,
            writing: true,
            brownout: true,
            degraded: true,
        });
        for (stats, audit) in [([1; 9], 0), ([2; 9], 3)] {
            m.apply(&LifecycleEvent::Power {
                id: 1,
                op: crate::inspect::PowerOp::Admit,
                ok: true,
                at: 5,
                stats,
                audit,
            });
        }
        m.apply(&LifecycleEvent::RunEnd { at: 15 });
        assert_eq!(m.burst_cycles, 10);
        assert_eq!(m.write_active_cycles, 15);
        assert_eq!(m.faults.brownout_cycles, 5);
        assert_eq!(m.faults.degraded_cycles, 5);
        assert_eq!(
            m.power,
            PowerStats::from_raw([2; 9]),
            "latest snapshot wins"
        );
        assert_eq!(m.faults.audit_violations, 3);
        assert_eq!(m.cycles, 15);
    }

    #[test]
    fn json_is_deterministic_and_integer_only() {
        let m = Metrics {
            cycles: 123,
            pcm_writes: 7,
            per_chip_cells: vec![1, 2, 3],
            ..Metrics::default()
        };
        let j = m.to_json();
        assert_eq!(j, m.clone().to_json(), "same metrics, same bytes");
        assert!(j.contains("\"schema\": \"fpb-metrics/v1\""));
        assert!(j.contains("\"cycles\": 123"));
        assert!(j.contains("\"per_chip_cells\": [1, 2, 3]"));
        assert!(j.contains("\"endurance_cells\": null"));
        assert!(j.contains("\"gcp_usable_millitokens\": 0"));
        assert!(!j.contains('.'), "integers only, no floats: {j}");
    }

    #[test]
    fn inline_json_matches_multiline_fields() {
        let m = Metrics {
            cycles: 987,
            instructions_per_core: 40,
            pcm_reads: 5,
            per_chip_cells: vec![4, 4, 5],
            ..Metrics::default()
        };
        let inline = m.to_json_inline();
        assert!(!inline.contains('\n'), "must be single-line: {inline}");
        assert!(
            !inline.contains("schema"),
            "embedding document owns the schema"
        );
        // Same fields, same order, same values as the multi-line form.
        let multiline = m.to_json();
        let squeezed: String = multiline
            .lines()
            .filter(|l| !l.contains("schema"))
            .map(str::trim)
            .collect::<Vec<_>>()
            .join(" ");
        for field in [
            "\"cycles\": 987",
            "\"per_chip_cells\": [4, 4, 5]",
            "\"endurance_cells\": null",
        ] {
            assert!(inline.contains(field), "missing {field}: {inline}");
            assert!(
                squeezed.contains(field),
                "field drifted from to_json: {field}"
            );
        }
        assert_eq!(
            inline,
            m.clone().to_json_inline(),
            "pure function of the metrics"
        );
    }

    #[test]
    fn record_round_trip_is_exact() {
        let mut endurance = fpb_pcm::EnduranceTracker::new(1024, 16, 8, 1_000_000);
        endurance.record_write(fpb_types::LineAddr::new(3), &[10, 0, 4, 0, 0, 0, 0, 2]);
        let m = Metrics {
            cycles: 123_456,
            instructions_per_core: 40_000,
            cores: 8,
            pcm_reads: 77,
            pcm_writes: 55,
            write_rounds: 60,
            cells_written: 9_001,
            burst_cycles: 11,
            write_active_cycles: 22,
            write_queue_delay: 33,
            cancellations: 1,
            pauses: 2,
            truncations: 3,
            read_latency_sum: 44,
            scrub_reads: 5,
            per_chip_cells: vec![1, 2, 3, 4, 5, 6, 7, 8],
            power: PowerStats::from_raw([9, 8, 7, 6, 5, 4_500, 3_250, 2_125, 1_000]),
            endurance: Some(endurance),
            faults: FaultMetrics {
                verify_failures: 9,
                retries: 10,
                audit_violations: 11,
                ..FaultMetrics::default()
            },
        };
        let rec = m.encode_record();
        assert!(rec.bytes().all(|b| b == b' ' || b.is_ascii_digit()));
        assert_eq!(Metrics::decode_record(&rec), Some(m.clone()));
        // The JSON splice the cache feeds must be byte-identical too.
        assert_eq!(
            Metrics::decode_record(&rec).map(|d| d.to_json_inline()),
            Some(m.to_json_inline())
        );
        // Default metrics (no endurance) round-trip as well.
        let d = Metrics::default();
        assert_eq!(Metrics::decode_record(&d.encode_record()), Some(d));
    }

    #[test]
    fn decode_rejects_malformed_records() {
        let rec = Metrics::default().encode_record();
        assert!(Metrics::decode_record("").is_none());
        assert!(Metrics::decode_record("1 2 3").is_none());
        assert!(
            Metrics::decode_record(&format!("{rec} 7")).is_none(),
            "trailing tokens"
        );
        assert!(Metrics::decode_record(&rec.replace(' ', " x ")).is_none());
        // Endurance flag other than 0/1 is rejected.
        let m = Metrics {
            cores: 1,
            ..Metrics::default()
        };
        let bad = m.encode_record().replacen(" 0 ", " 2 ", 1);
        let _ = Metrics::decode_record(&bad); // must not panic, whatever it parses to
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\n\t\r"), "\"x\\n\\t\\r\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn gmean_matches_hand_math() {
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((gmean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "gmean of nothing")]
    fn gmean_empty_panics() {
        let _ = gmean(&[]);
    }
}
