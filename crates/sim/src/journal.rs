//! Durable, append-only sweep journal: checkpoint/resume for long runs.
//!
//! A journal is a [`crate::store`] file. The first line is a header
//! binding the journal to one exact sweep (a fingerprint of workload,
//! schemes, grid, and config); every following line records one
//! completed sweep point. Appends are fsync'd before the point is
//! reported complete, so a sweep killed at any moment — panic, SIGINT,
//! SIGKILL, power loss — loses at most its in-flight points and can be
//! resumed with `fpb sweep --resume`.
//!
//! Line bodies (framed as `fpbj2 <crc32-8hex> <body>`):
//!
//! ```text
//! h <fingerprint-16hex> <points> <meta…>
//! r <index> <payload…>
//! ```
//!
//! A sweep's payload is [`encode_point`]: the scheme's and the baseline's
//! exact [`Metrics::encode_record`], tab-separated. Since
//! `decode_record(encode_record(m)) == m`, a restored point is the very
//! [`Metrics`] the original run produced, and its report renders
//! byte-for-byte as it would have then — the basis of the
//! byte-identical-resume guarantee.
//!
//! Corrupt-tail policy: the store's scan, which also stops at the first
//! body that is not a record. Resuming truncates the file back to the
//! last valid byte before appending. A CRC-valid record that is
//! semantically impossible (a point index beyond the grid, or a payload
//! that does not decode) is *not* tail damage and is refused as an error:
//! it means the journal belongs to a different sweep than its header
//! claims, and guessing would corrupt results silently.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::metrics::Metrics;
use crate::store::{self, Appender, StoreError};

/// Magic tag opening every journal line; bump the digit on any format
/// change so old journals are refused instead of misparsed.
const MAGIC: &str = "fpbj2";

/// How a run attaches to a journal file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalMode {
    /// Start a fresh journal at this path (refusing to clobber an
    /// existing file).
    Fresh(PathBuf),
    /// Resume an existing journal: restore its completed points, then
    /// append the rest.
    Resume(PathBuf),
}

/// The header line: binds a journal to one exact sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// [`store::fingerprint64`] of the canonical sweep description
    /// (workload, scheme specs, instruction budget, base config, grid
    /// labels).
    pub fingerprint: u64,
    /// Total points in the grid; resume refuses a journal whose grid
    /// size differs even if the fingerprint matches.
    pub points: usize,
    /// Free-form human-readable context (shown in diagnostics; never
    /// parsed). Must not contain `\n`.
    pub meta: String,
}

/// One completed-point record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Grid index of the completed point.
    pub index: usize,
    /// Stored payload ([`encode_point`] for sweeps). Must not contain
    /// `\n`.
    pub payload: String,
}

/// Everything recovered from reading a journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalContents {
    /// The validated header.
    pub header: JournalHeader,
    /// Valid records in file order (duplicates for an index possible if
    /// a run was resumed mid-append race; first occurrence wins).
    pub records: Vec<JournalRecord>,
    /// Lines dropped at the tail (an unterminated trailing fragment
    /// counts as one).
    pub dropped_lines: usize,
    /// Byte offset of the end of the last valid line — the truncation
    /// point for resume.
    pub valid_bytes: u64,
}

/// Why a journal could not be created, read, resumed, or appended to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The file itself failed: I/O, no clobber, no valid header.
    Store(StoreError),
    /// The header is valid but describes a different sweep.
    HeaderMismatch {
        /// What the resuming sweep expected.
        expected: JournalHeader,
        /// What the file contains.
        found: JournalHeader,
    },
    /// A CRC-valid record names an index beyond the grid — not tail
    /// damage, refused outright.
    IndexOutOfRange {
        /// The impossible index.
        index: usize,
        /// The grid size from the header.
        points: usize,
    },
    /// A CRC-valid record's payload is not a point — not tail damage,
    /// refused outright.
    BadPayload {
        /// Grid index of the record.
        index: usize,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Store(e @ StoreError::AlreadyExists(_)) => {
                write!(f, "{e} (use --resume to continue it)")
            }
            JournalError::Store(e) => e.fmt(f),
            JournalError::HeaderMismatch { expected, found } => write!(
                f,
                "journal belongs to a different sweep: expected fingerprint {:016x} over {} points, found {:016x} over {} points ({})",
                expected.fingerprint, expected.points, found.fingerprint, found.points, found.meta
            ),
            JournalError::IndexOutOfRange { index, points } => write!(
                f,
                "journal record index {index} is outside the {points}-point grid; refusing to guess"
            ),
            JournalError::BadPayload { index } => write!(
                f,
                "journal record for point {index} does not decode as {MAGIC} metrics; refusing to guess"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<StoreError> for JournalError {
    fn from(e: StoreError) -> Self {
        JournalError::Store(e)
    }
}

/// A completed sweep point's payload: the scheme's and the baseline's
/// exact metrics records, tab-separated.
pub fn encode_point(metrics: &Metrics, baseline: &Metrics) -> String {
    format!("{}\t{}", metrics.encode_record(), baseline.encode_record())
}

/// Inverse of [`encode_point`]: `(metrics, baseline)`, or `None` if
/// `payload` is not a point.
pub fn decode_point(payload: &str) -> Option<(Metrics, Metrics)> {
    let (metrics, baseline) = payload.split_once('\t')?;
    Some((
        Metrics::decode_record(metrics)?,
        Metrics::decode_record(baseline)?,
    ))
}

fn header_body(h: &JournalHeader) -> String {
    format!("h {:016x} {} {}", h.fingerprint, h.points, h.meta)
}

fn parse_header(body: &str) -> Option<JournalHeader> {
    let rest = body.strip_prefix("h ")?;
    let (fp_hex, rest) = rest.split_at_checked(16)?;
    let rest = rest.strip_prefix(' ')?;
    let fingerprint = u64::from_str_radix(fp_hex, 16).ok()?;
    let (points, meta) = match rest.split_once(' ') {
        Some((p, meta)) => (p, meta),
        None => (rest, ""),
    };
    Some(JournalHeader {
        fingerprint,
        points: points.parse().ok()?,
        meta: meta.to_string(),
    })
}

fn parse_record(body: &str) -> Option<JournalRecord> {
    let rest = body.strip_prefix("r ")?;
    let (index, payload) = rest.split_once(' ')?;
    Some(JournalRecord {
        index: index.parse().ok()?,
        payload: payload.to_string(),
    })
}

/// Reads and validates a journal file: header first, then records, with
/// the corrupt-tail policy described in the module docs.
pub fn read_journal(path: &Path) -> Result<JournalContents, JournalError> {
    let mut header: Option<JournalHeader> = None;
    let mut records = Vec::new();
    let mut out_of_range = None;
    let tail = store::read(path, MAGIC, |body| match &header {
        None => {
            header = parse_header(body);
            header.is_some()
        }
        Some(h) => match parse_record(body) {
            Some(rec) if rec.index >= h.points => {
                out_of_range = Some(rec.index);
                false
            }
            Some(rec) => {
                records.push(rec);
                true
            }
            None => false,
        },
    })?;
    let header = header.ok_or_else(|| StoreError::MissingHeader {
        path: path.to_path_buf(),
        magic: MAGIC,
    })?;
    if let Some(index) = out_of_range {
        return Err(JournalError::IndexOutOfRange {
            index,
            points: header.points,
        });
    }
    Ok(JournalContents {
        header,
        records,
        dropped_lines: tail.dropped_lines,
        valid_bytes: tail.valid_bytes,
    })
}

/// An open journal accepting fsync'd appends.
#[derive(Debug)]
pub struct JournalWriter {
    out: Appender,
}

impl JournalWriter {
    /// Creates a fresh journal (refusing to clobber an existing file)
    /// and syncs its header.
    pub fn create(path: &Path, header: &JournalHeader) -> Result<JournalWriter, JournalError> {
        Ok(JournalWriter {
            out: Appender::create(path, MAGIC, &header_body(header))?,
        })
    }

    /// Reopens an existing journal for appending: validates the header
    /// against `expected`, truncates any corrupt tail back to the last
    /// valid byte, and returns the recovered contents alongside the
    /// writer.
    pub fn resume(
        path: &Path,
        expected: &JournalHeader,
    ) -> Result<(JournalWriter, JournalContents), JournalError> {
        let contents = read_journal(path)?;
        if contents.header != *expected {
            return Err(JournalError::HeaderMismatch {
                expected: expected.clone(),
                found: contents.header,
            });
        }
        let out = Appender::resume(path, MAGIC, contents.valid_bytes)?;
        Ok((JournalWriter { out }, contents))
    }

    /// Appends one completed-point record and syncs it to disk; when
    /// this returns `Ok`, the record survives any subsequent kill.
    pub fn append_record(&mut self, index: usize, payload: &str) -> Result<(), JournalError> {
        self.out.push(&format!("r {index} {payload}"))?;
        Ok(self.out.sync()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;

    #[allow(
        clippy::disallowed_methods,
        reason = "scratch files for the test; the path never reaches a result"
    )]
    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("fpb-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        std::fs::remove_file(&p).ok();
        p
    }

    fn header() -> JournalHeader {
        JournalHeader {
            fingerprint: 0xDEAD_BEEF_0123_4567,
            points: 9,
            meta: "mcf_m fpb 3x3".into(),
        }
    }

    #[test]
    fn round_trip_create_append_read() {
        let path = tmp("round_trip.fpbj");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.append_record(0, "payload zero").unwrap();
        w.append_record(3, "payload\tthree").unwrap();
        drop(w);
        let c = read_journal(&path).unwrap();
        assert_eq!(c.header, header());
        assert_eq!(c.records.len(), 2);
        assert_eq!(c.records[0].index, 0);
        assert_eq!(c.records[1].payload, "payload\tthree");
        assert_eq!(c.dropped_lines, 0);
        assert_eq!(c.valid_bytes, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_refuses_existing_file() {
        let path = tmp("no_clobber.fpbj");
        drop(JournalWriter::create(&path, &header()).unwrap());
        let err = JournalWriter::create(&path, &header()).unwrap_err();
        assert_eq!(
            err,
            JournalError::Store(StoreError::AlreadyExists(path.clone()))
        );
        assert!(
            err.to_string().ends_with("(use --resume to continue it)"),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated_on_resume() {
        let path = tmp("torn_tail.fpbj");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.append_record(1, "payload one").unwrap();
        drop(w);
        let good_len = std::fs::metadata(&path).unwrap().len();
        // Simulate a kill mid-append: a torn, unterminated record.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"fpbj2 00b1ff00 r 2 half-writ").unwrap();
        drop(f);

        let c = read_journal(&path).unwrap();
        assert_eq!(c.records.len(), 1);
        assert_eq!(c.dropped_lines, 1);
        assert_eq!(c.valid_bytes, good_len);

        let (mut w, recovered) = JournalWriter::resume(&path, &header()).unwrap();
        assert_eq!(recovered.records.len(), 1);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            good_len,
            "tail truncated"
        );
        w.append_record(2, "payload two").unwrap();
        drop(w);
        let c = read_journal(&path).unwrap();
        assert_eq!(c.records.len(), 2);
        assert_eq!(c.dropped_lines, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_checksum_line_ends_the_valid_region() {
        let path = tmp("bad_crc.fpbj");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.append_record(0, "alpha").unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte in the last record: CRC now fails.
        let n = bytes.len();
        bytes[n - 2] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        // And append a structurally fine line *after* the corruption —
        // it must be dropped too (tail policy: stop at first bad line).
        let mut out = Appender::resume(&path, MAGIC, n as u64).unwrap();
        out.push("r 1 beta").unwrap();
        out.sync().unwrap();
        drop(out);

        let c = read_journal(&path).unwrap();
        assert!(c.records.is_empty());
        assert_eq!(c.dropped_lines, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_or_invalid_header_is_an_error() {
        let path = tmp("no_header.fpbj");
        let missing = JournalError::Store(StoreError::MissingHeader {
            path: path.clone(),
            magic: MAGIC,
        });
        std::fs::write(&path, "not a journal\n").unwrap();
        assert_eq!(read_journal(&path), Err(missing.clone()));
        std::fs::write(&path, "").unwrap();
        assert_eq!(read_journal(&path), Err(missing));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn an_fpbj1_journal_is_refused_on_resume() {
        // A journal the previous format wrote: the same grammar under
        // the old magic, with a rendered JSON fragment as its payload.
        let path = tmp("fpbj1.fpbj");
        let old = [
            header_body(&header()),
            "r 0 {\"index\": 0, \"metrics\": {}}".to_string(),
        ];
        store::replace(&path, "fpbj1", old.iter().map(String::as_str)).unwrap();
        let err = JournalWriter::resume(&path, &header()).unwrap_err();
        assert!(err.to_string().contains("no valid header"), "{err}");
        assert!(err.to_string().contains(MAGIC), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_wrong_sweep() {
        let path = tmp("wrong_sweep.fpbj");
        drop(JournalWriter::create(&path, &header()).unwrap());
        let other = JournalHeader {
            fingerprint: 1,
            ..header()
        };
        let err = JournalWriter::resume(&path, &other).unwrap_err();
        assert!(matches!(err, JournalError::HeaderMismatch { .. }));
        assert!(err.to_string().contains("different sweep"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_index_is_refused_not_truncated() {
        let path = tmp("oob.fpbj");
        // The writer does not check indices; the reader must.
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.append_record(99, "whatever").unwrap();
        drop(w);
        assert_eq!(
            read_journal(&path).unwrap_err(),
            JournalError::IndexOutOfRange {
                index: 99,
                points: 9
            }
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn newlines_in_payload_and_meta_are_rejected() {
        let path = tmp("newline.fpbj");
        let bad = JournalHeader {
            meta: "two\nlines".into(),
            ..header()
        };
        let newline = JournalError::Store(StoreError::EmbeddedNewline);
        assert_eq!(JournalWriter::create(&path, &bad).unwrap_err(), newline);
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        assert_eq!(w.append_record(0, "a\nb").unwrap_err(), newline);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn point_payload_round_trips_exact_metrics() {
        let m = Metrics {
            cycles: 2_000,
            instructions_per_core: 1_000,
            ..Metrics::default()
        };
        let b = Metrics {
            cycles: 3_000,
            per_chip_cells: vec![1, 2],
            ..Metrics::default()
        };
        let payload = encode_point(&m, &b);
        assert!(!payload.contains('\n'));
        assert_eq!(decode_point(&payload), Some((m.clone(), b)));
        for bad in [
            "",
            "1 2 3",
            &m.encode_record(),
            &format!("{payload}\t{payload}"),
        ] {
            assert_eq!(decode_point(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn header_without_meta_parses() {
        let h = JournalHeader {
            fingerprint: 5,
            points: 2,
            meta: String::new(),
        };
        let body = header_body(&h);
        assert_eq!(parse_header(&body), Some(h));
    }
}
