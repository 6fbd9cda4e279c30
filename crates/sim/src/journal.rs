//! Durable, append-only sweep journal: checkpoint/resume for long runs.
//!
//! A journal is a text file of checksummed single-line records. The
//! first line is a header binding the journal to one exact sweep (a
//! fingerprint of workload, schemes, grid, and config); every following
//! line stores the verbatim rendered result fragment of one completed
//! sweep point. Appends are flushed *and fsync'd* before the point is
//! reported complete, so a sweep killed at any moment — panic, SIGINT,
//! SIGKILL, power loss — loses at most its in-flight points and can be
//! resumed with `fpb sweep --resume`.
//!
//! Line format (one record per line, `\n`-terminated):
//!
//! ```text
//! fpbj1 <crc32-8hex> h <fingerprint-16hex> <points> <meta…>
//! fpbj1 <crc32-8hex> r <index> <payload…>
//! ```
//!
//! The CRC covers everything after its own field. Because results are
//! stored as verbatim payload strings (not re-encoded), resuming splices
//! restored fragments into the final report byte-for-byte — the basis of
//! the byte-identical-resume guarantee.
//!
//! Corrupt-tail policy: a torn append (kill mid-write) leaves at most
//! one trailing line that is unterminated or fails its CRC. Reading
//! stops at the first invalid line and reports everything before it;
//! resuming truncates the file back to the last valid byte before
//! appending. A CRC-valid line that is semantically impossible (e.g. a
//! point index beyond the grid) is *not* tail damage and is rejected as
//! an error — it means the journal belongs to a different sweep than its
//! header claims, and guessing would corrupt results silently.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic tag opening every journal line; bump the digit on any format
/// change so old readers fail loudly instead of misparsing.
const MAGIC: &str = "fpbj1";

/// CRC-32 (IEEE 802.3, reflected, the `cksum`/zlib polynomial), bitwise.
/// Speed is irrelevant here — journal lines are short and appends are
/// dominated by the fsync.
///
/// # Examples
///
/// ```
/// // Check value from the CRC catalogue ("123456789").
/// assert_eq!(fpb_sim::journal::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = 0u32.wrapping_sub(crc & 1);
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// FNV-1a 64-bit over a string — the sweep fingerprint hash. Not
/// adversarial-collision-resistant, and does not need to be: it guards
/// against *accidentally* resuming the wrong journal, not sabotage.
pub fn fingerprint64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

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

impl JournalMode {
    /// The journal file path in either mode.
    pub fn path(&self) -> &Path {
        match self {
            JournalMode::Fresh(p) | JournalMode::Resume(p) => p,
        }
    }
}

/// The header line: binds a journal to one exact sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// [`fingerprint64`] of the canonical sweep description (workload,
    /// scheme specs, instruction budget, base config, grid labels).
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
    /// Verbatim stored payload (a rendered JSON fragment for sweeps).
    /// Must not contain `\n`.
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
    /// Complete-but-invalid lines dropped at the tail (plus one for an
    /// unterminated trailing fragment, if any).
    pub dropped_lines: usize,
    /// Byte offset of the end of the last valid line — the truncation
    /// point for resume.
    pub valid_bytes: u64,
}

/// Why a journal could not be created, read, resumed, or appended to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// An underlying filesystem operation failed.
    Io {
        /// Operation being attempted (e.g. `create`, `append`, `fsync`).
        op: &'static str,
        /// Path involved.
        path: PathBuf,
        /// Rendered OS error.
        detail: String,
    },
    /// `create` refuses to clobber an existing file (resume it, or
    /// delete it explicitly).
    AlreadyExists(PathBuf),
    /// The file has no valid header line (empty, corrupt from byte 0, or
    /// not a journal at all).
    MissingHeader(PathBuf),
    /// The header is valid but describes a different sweep.
    HeaderMismatch {
        /// What the resuming sweep expected.
        expected: JournalHeader,
        /// What the file contains.
        found: JournalHeader,
    },
    /// A CRC-valid record is semantically impossible for this sweep
    /// (index beyond the grid) — not tail damage, refused outright.
    IndexOutOfRange {
        /// The impossible index.
        index: usize,
        /// The grid size from the header.
        points: usize,
    },
    /// A payload or meta string contained a newline (records are
    /// line-framed; embedded newlines would break the format).
    EmbeddedNewline,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { op, path, detail } => {
                write!(f, "journal {op} failed for {}: {detail}", path.display())
            }
            JournalError::AlreadyExists(p) => write!(
                f,
                "journal {} already exists (use --resume to continue it)",
                p.display()
            ),
            JournalError::MissingHeader(p) => {
                write!(f, "{} is not a sweep journal (no valid header line)", p.display())
            }
            JournalError::HeaderMismatch { expected, found } => write!(
                f,
                "journal belongs to a different sweep: expected fingerprint {:016x} over {} points, found {:016x} over {} points ({})",
                expected.fingerprint, expected.points, found.fingerprint, found.points, found.meta
            ),
            JournalError::IndexOutOfRange { index, points } => write!(
                f,
                "journal record index {index} is outside the {points}-point grid; refusing to guess"
            ),
            JournalError::EmbeddedNewline => {
                write!(f, "journal payloads must not contain newlines")
            }
        }
    }
}

impl std::error::Error for JournalError {}

fn io_err(op: &'static str, path: &Path, e: &std::io::Error) -> JournalError {
    JournalError::Io { op, path: path.to_path_buf(), detail: e.to_string() }
}

/// Renders one framed line (with trailing newline) for `body`.
fn frame(body: &str) -> String {
    format!("{MAGIC} {:08x} {body}\n", crc32(body.as_bytes()))
}

/// Parses one complete line (no trailing newline); `None` if the frame
/// or checksum is invalid (tail damage).
fn unframe(line: &str) -> Option<&str> {
    let rest = line.strip_prefix(MAGIC)?.strip_prefix(' ')?;
    let (crc_hex, body) = rest.split_at_checked(8)?;
    let body = body.strip_prefix(' ')?;
    let crc = u32::from_str_radix(crc_hex, 16).ok()?;
    (crc == crc32(body.as_bytes())).then_some(body)
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
    Some(JournalHeader { fingerprint, points: points.parse().ok()?, meta: meta.to_string() })
}

fn parse_record(body: &str) -> Option<JournalRecord> {
    let rest = body.strip_prefix("r ")?;
    let (index, payload) = rest.split_once(' ')?;
    Some(JournalRecord { index: index.parse().ok()?, payload: payload.to_string() })
}

/// Reads and validates a journal file: header first, then records, with
/// the corrupt-tail policy described in the module docs.
pub fn read_journal(path: &Path) -> Result<JournalContents, JournalError> {
    let mut buf = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut buf))
        .map_err(|e| io_err("read", path, &e))?;
    let text = String::from_utf8_lossy(&buf);

    let mut offset = 0u64; // bytes consumed including each line's '\n'
    let mut lines = Vec::new(); // (line, end_offset) for complete lines
    let mut saw_partial_tail = false;
    for chunk in text.split_inclusive('\n') {
        offset += chunk.len() as u64;
        match chunk.strip_suffix('\n') {
            Some(line) => lines.push((line, offset)),
            None => saw_partial_tail = true, // unterminated torn tail
        }
    }

    let mut it = lines.iter();
    let Some(header) = it.next().and_then(|(l, _)| unframe(l)).and_then(parse_header) else {
        return Err(JournalError::MissingHeader(path.to_path_buf()));
    };
    let mut valid_bytes = lines[0].1;
    let mut records = Vec::new();
    let mut dropped = usize::from(saw_partial_tail);
    let mut remaining = it.len();
    for (line, end) in it {
        remaining -= 1;
        match unframe(line).and_then(parse_record) {
            Some(rec) => {
                if rec.index >= header.points {
                    return Err(JournalError::IndexOutOfRange {
                        index: rec.index,
                        points: header.points,
                    });
                }
                records.push(rec);
                valid_bytes = *end;
            }
            None => {
                // First invalid line: everything from here is tail.
                dropped += 1 + remaining;
                break;
            }
        }
    }
    Ok(JournalContents { header, records, dropped_lines: dropped, valid_bytes })
}

/// An open journal accepting fsync'd appends.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
}

impl JournalWriter {
    /// Creates a fresh journal (refusing to clobber an existing file),
    /// writes the header, and syncs it — plus a best-effort sync of the
    /// parent directory so the *name* survives a crash too.
    pub fn create(path: &Path, header: &JournalHeader) -> Result<JournalWriter, JournalError> {
        if header.meta.contains('\n') {
            return Err(JournalError::EmbeddedNewline);
        }
        let mut opts = OpenOptions::new();
        opts.write(true).create_new(true);
        let file = opts.open(path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::AlreadyExists {
                JournalError::AlreadyExists(path.to_path_buf())
            } else {
                io_err("create", path, &e)
            }
        })?;
        let mut w = JournalWriter { file, path: path.to_path_buf() };
        w.write_line(&frame(&header_body(header)))?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(w)
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
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err("open", path, &e))?;
        file.set_len(contents.valid_bytes).map_err(|e| io_err("truncate", path, &e))?;
        let mut w = JournalWriter { file, path: path.to_path_buf() };
        w.file
            .seek(SeekFrom::Start(contents.valid_bytes))
            .map_err(|e| io_err("seek", path, &e))?;
        Ok((w, contents))
    }

    /// Appends one completed-point record and syncs it to disk; when
    /// this returns `Ok`, the record survives any subsequent kill.
    pub fn append_record(&mut self, index: usize, payload: &str) -> Result<(), JournalError> {
        if payload.contains('\n') {
            return Err(JournalError::EmbeddedNewline);
        }
        self.write_line(&frame(&format!("r {index} {payload}")))
    }

    fn write_line(&mut self, line: &str) -> Result<(), JournalError> {
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| io_err("append", &self.path, &e))?;
        self.file.sync_data().map_err(|e| io_err("fsync", &self.path, &e))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    // Scratch files for the test; the path never reaches a result.
    #[allow(clippy::disallowed_methods)]
    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("fpb-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        std::fs::remove_file(&p).ok();
        p
    }

    fn header() -> JournalHeader {
        JournalHeader { fingerprint: 0xDEAD_BEEF_0123_4567, points: 9, meta: "mcf_m fpb 3x3".into() }
    }

    #[test]
    fn round_trip_create_append_read() {
        let path = tmp("round_trip.fpbj");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.append_record(0, r#"{"index": 0, "cycles": 12}"#).unwrap();
        w.append_record(3, r#"{"index": 3, "cycles": 9}"#).unwrap();
        drop(w);
        let c = read_journal(&path).unwrap();
        assert_eq!(c.header, header());
        assert_eq!(c.records.len(), 2);
        assert_eq!(c.records[0].index, 0);
        assert_eq!(c.records[1].payload, r#"{"index": 3, "cycles": 9}"#);
        assert_eq!(c.dropped_lines, 0);
        assert_eq!(c.valid_bytes, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_refuses_existing_file() {
        let path = tmp("no_clobber.fpbj");
        drop(JournalWriter::create(&path, &header()).unwrap());
        let err = JournalWriter::create(&path, &header()).unwrap_err();
        assert_eq!(err, JournalError::AlreadyExists(path.clone()));
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
        f.write_all(b"fpbj1 00b1ff00 r 2 half-writ").unwrap();
        drop(f);

        let c = read_journal(&path).unwrap();
        assert_eq!(c.records.len(), 1);
        assert_eq!(c.dropped_lines, 1);
        assert_eq!(c.valid_bytes, good_len);

        let (mut w, recovered) = JournalWriter::resume(&path, &header()).unwrap();
        assert_eq!(recovered.records.len(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len, "tail truncated");
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
        // And append a structurally fine line *after* the corruption —
        // it must be dropped too (tail policy: stop at first bad line).
        let tail = frame("r 1 beta");
        bytes.extend_from_slice(tail.as_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let c = read_journal(&path).unwrap();
        assert!(c.records.is_empty());
        assert_eq!(c.dropped_lines, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_or_invalid_header_is_an_error() {
        let path = tmp("no_header.fpbj");
        std::fs::write(&path, "not a journal\n").unwrap();
        assert!(matches!(read_journal(&path), Err(JournalError::MissingHeader(_))));
        std::fs::write(&path, "").unwrap();
        assert!(matches!(read_journal(&path), Err(JournalError::MissingHeader(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_wrong_sweep() {
        let path = tmp("wrong_sweep.fpbj");
        drop(JournalWriter::create(&path, &header()).unwrap());
        let other = JournalHeader { fingerprint: 1, ..header() };
        let err = JournalWriter::resume(&path, &other).unwrap_err();
        assert!(matches!(err, JournalError::HeaderMismatch { .. }));
        assert!(err.to_string().contains("different sweep"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_index_is_refused_not_truncated() {
        let path = tmp("oob.fpbj");
        drop(JournalWriter::create(&path, &header()).unwrap());
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(frame("r 99 whatever").as_bytes()).unwrap();
        drop(f);
        assert_eq!(
            read_journal(&path).unwrap_err(),
            JournalError::IndexOutOfRange { index: 99, points: 9 }
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn newlines_in_payload_and_meta_are_rejected() {
        let path = tmp("newline.fpbj");
        let bad = JournalHeader { meta: "two\nlines".into(), ..header() };
        assert_eq!(JournalWriter::create(&path, &bad).unwrap_err(), JournalError::EmbeddedNewline);
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        assert_eq!(w.append_record(0, "a\nb").unwrap_err(), JournalError::EmbeddedNewline);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crc32_and_fingerprint_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        // FNV-1a 64 reference vectors.
        assert_eq!(fingerprint64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint64("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn header_without_meta_parses() {
        let h = JournalHeader { fingerprint: 5, points: 2, meta: String::new() };
        let body = header_body(&h);
        assert_eq!(parse_header(&body), Some(h));
    }
}
