//! Result reporting: CSV export and summary formatting.
//!
//! Experiment scripts and notebooks want machine-readable output; this
//! module renders [`Metrics`] rows as CSV (no serialization dependency —
//! the format is a fixed, documented column set).

use std::io::{self, Write};

use crate::metrics::Metrics;

/// The CSV column set, in order.
pub const CSV_COLUMNS: [&str; 14] = [
    "label",
    "cycles",
    "instructions_per_core",
    "cpi",
    "pcm_reads",
    "pcm_writes",
    "write_rounds",
    "cells_written",
    "burst_fraction",
    "write_throughput",
    "avg_read_latency",
    "gcp_peak_tokens",
    "gcp_usable_total",
    "chip_imbalance",
];

/// Writes the CSV header row.
///
/// # Errors
///
/// Propagates the writer's I/O errors.
pub fn write_csv_header<W: Write>(mut w: W) -> io::Result<()> {
    writeln!(w, "{}", CSV_COLUMNS.join(","))
}

/// Writes one labeled metrics row.
///
/// # Errors
///
/// Propagates the writer's I/O errors.
///
/// # Panics
///
/// Panics if `label` contains a comma (labels become a CSV field).
///
/// # Examples
///
/// ```
/// use fpb_sim::report::{write_csv_header, write_csv_row};
/// use fpb_sim::Metrics;
///
/// let m = Metrics {
///     cycles: 1000,
///     instructions_per_core: 500,
///     pcm_reads: 3,
///     ..Metrics::default()
/// };
/// let mut out = Vec::new();
/// write_csv_header(&mut out).unwrap();
/// write_csv_row(&mut out, "FPB", &m).unwrap();
/// let text = String::from_utf8(out).unwrap();
/// assert!(text.lines().nth(1).unwrap().starts_with("FPB,1000,500,2"));
/// ```
pub fn write_csv_row<W: Write>(mut w: W, label: &str, m: &Metrics) -> io::Result<()> {
    assert!(!label.contains(','), "label must not contain commas");
    writeln!(
        w,
        "{},{},{},{:.6},{},{},{},{},{:.6},{:.6},{:.3},{},{:.3},{:.4}",
        label,
        m.cycles,
        m.instructions_per_core,
        m.cpi(),
        m.pcm_reads,
        m.pcm_writes,
        m.write_rounds,
        m.cells_written,
        m.burst_fraction(),
        m.write_throughput(),
        m.avg_read_latency(),
        m.power.peak_gcp_tokens(),
        m.power.gcp_usable_total().as_f64(),
        m.chip_imbalance(),
    )
}

/// Renders a one-paragraph human summary of a run.
pub fn summary(label: &str, m: &Metrics) -> String {
    format!(
        "{label}: CPI {:.2} over {} instr/core; {} reads (avg latency {:.0} cy), \
         {} line writes ({} rounds, {:.0} cells/write); {:.1}% of time in write \
         bursts; GCP peak {} tokens",
        m.cpi(),
        m.instructions_per_core,
        m.pcm_reads,
        m.avg_read_latency(),
        m.pcm_writes,
        m.write_rounds,
        m.avg_cell_changes(),
        m.burst_fraction() * 100.0,
        m.power.peak_gcp_tokens(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> Metrics {
        Metrics {
            cycles: 2_000,
            instructions_per_core: 1_000,
            pcm_reads: 10,
            pcm_writes: 5,
            write_rounds: 6,
            cells_written: 1_000,
            burst_cycles: 500,
            write_active_cycles: 900,
            read_latency_sum: 11_000,
            ..Metrics::default()
        }
    }

    #[test]
    fn header_matches_columns() {
        let mut out = Vec::new();
        write_csv_header(&mut out).unwrap();
        let line = String::from_utf8(out).unwrap();
        assert_eq!(line.trim().split(',').count(), CSV_COLUMNS.len());
        assert!(line.starts_with("label,cycles"));
    }

    #[test]
    fn row_has_all_fields_and_parses_back() {
        let mut out = Vec::new();
        write_csv_row(&mut out, "test", &metrics()).unwrap();
        let line = String::from_utf8(out).unwrap();
        let fields: Vec<&str> = line.trim().split(',').collect();
        assert_eq!(fields.len(), CSV_COLUMNS.len());
        assert_eq!(fields[0], "test");
        assert_eq!(fields[1], "2000");
        let cpi: f64 = fields[3].parse().unwrap();
        assert!((cpi - 2.0).abs() < 1e-9);
        let burst: f64 = fields[8].parse().unwrap();
        assert!((burst - 0.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "commas")]
    fn comma_label_panics() {
        let mut out = Vec::new();
        let _ = write_csv_row(&mut out, "a,b", &metrics());
    }

    #[test]
    fn summary_mentions_key_numbers() {
        let s = summary("FPB", &metrics());
        assert!(s.contains("FPB"));
        assert!(s.contains("CPI 2.00"));
        assert!(s.contains("5 line writes"));
        assert!(s.contains("25.0%"));
    }
}
