//! The durable `fpbi1` event log: where a recorded run lives on disk.
//!
//! Same discipline as the sweep journal ([`crate::journal`]): a text
//! file of CRC-framed single-line records, append-only, fsync'd in
//! batches, refusing to clobber, tolerant of a torn tail. The format:
//!
//! ```text
//! fpbi1 <crc32-8hex> h <fingerprint-16hex> <meta…>
//! fpbi1 <crc32-8hex> e <seq> <event-wire-form…>
//! fpbi1 <crc32-8hex> z <count>
//! ```
//!
//! The header binds the log to one run description (`meta`, typically
//! `workload scheme instructions seed`); each `e` line carries one
//! [`LifecycleEvent`] in its exact wire form with a strictly increasing
//! sequence number; the `z` trailer marks a clean close. A log without
//! its trailer (crash mid-record) is still readable — every CRC-valid
//! prefix replays — but reports `complete = false` so callers that need
//! the whole run (`--require-complete`) can refuse it.
//!
//! Unlike the journal's per-line fsync (sweep points are minutes of
//! work), events are microseconds of work, so the writer batches:
//! appends buffer in memory and hit the disk every
//! [`EventLogWriter::SYNC_BATCH`] events and at close.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

use crate::journal::{crc32, fingerprint64};

use super::event::LifecycleEvent;
use super::EventSink;

/// Magic tag opening every event-log line; bump the digit on any format
/// change so old readers fail loudly instead of misparsing.
pub const EVENT_LOG_MAGIC: &str = "fpbi1";

/// Why an event log could not be created, written, or read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InspectError {
    /// An underlying filesystem operation failed.
    Io {
        /// Operation being attempted (e.g. `create`, `append`, `fsync`).
        op: &'static str,
        /// Path involved.
        path: PathBuf,
        /// Rendered OS error.
        detail: String,
    },
    /// `create` refuses to clobber an existing file.
    AlreadyExists(PathBuf),
    /// The file has no valid header line (empty, corrupt from byte 0, or
    /// not an event log at all).
    MissingHeader(PathBuf),
    /// The log has no clean-close trailer (or the trailer count
    /// disagrees) and the caller demanded a complete run.
    Incomplete {
        /// The offending log.
        path: PathBuf,
        /// Events recovered before the tail.
        events: usize,
    },
    /// Header meta must be single-line (the log is line-framed).
    EmbeddedNewline,
}

impl fmt::Display for InspectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InspectError::Io { op, path, detail } => {
                write!(f, "event log {op} failed for {}: {detail}", path.display())
            }
            InspectError::AlreadyExists(p) => write!(
                f,
                "event log {} already exists (delete it explicitly to re-record)",
                p.display()
            ),
            InspectError::MissingHeader(p) => {
                write!(f, "{} is not an event log (no valid header line)", p.display())
            }
            InspectError::Incomplete { path, events } => write!(
                f,
                "event log {} is incomplete: {events} event(s) recovered but no clean-close \
                 trailer (the recording run was killed mid-write)",
                path.display()
            ),
            InspectError::EmbeddedNewline => {
                write!(f, "event log meta must not contain newlines")
            }
        }
    }
}

impl std::error::Error for InspectError {}

fn io_err(op: &'static str, path: &Path, e: &std::io::Error) -> InspectError {
    InspectError::Io { op, path: path.to_path_buf(), detail: e.to_string() }
}

/// Renders one framed line (with trailing newline) for `body`.
fn frame(body: &str) -> String {
    format!("{EVENT_LOG_MAGIC} {:08x} {body}\n", crc32(body.as_bytes()))
}

/// Parses one complete line (no trailing newline); `None` if the frame
/// or checksum is invalid (tail damage).
fn unframe(line: &str) -> Option<&str> {
    let rest = line.strip_prefix(EVENT_LOG_MAGIC)?.strip_prefix(' ')?;
    let (crc_hex, body) = rest.split_at_checked(8)?;
    let body = body.strip_prefix(' ')?;
    let crc = u32::from_str_radix(crc_hex, 16).ok()?;
    (crc == crc32(body.as_bytes())).then_some(body)
}

/// An open event log accepting batched appends.
#[derive(Debug)]
pub struct EventLogWriter {
    file: File,
    path: PathBuf,
    seq: u64,
    buf: String,
    pending: u64,
}

impl EventLogWriter {
    /// Events buffered between fsyncs. Large enough to amortize the
    /// sync, small enough that a crash loses under a millisecond of
    /// simulated history.
    pub const SYNC_BATCH: u64 = 1024;

    /// Creates a fresh log (refusing to clobber), writes and syncs the
    /// header — plus a best-effort sync of the parent directory so the
    /// *name* survives a crash too. The header fingerprint is
    /// [`fingerprint64`] of `meta`.
    ///
    /// # Errors
    ///
    /// [`InspectError::AlreadyExists`] if the path exists,
    /// [`InspectError::EmbeddedNewline`] for a multi-line meta, or
    /// [`InspectError::Io`] for filesystem failures.
    pub fn create(path: &Path, meta: &str) -> Result<EventLogWriter, InspectError> {
        if meta.contains('\n') {
            return Err(InspectError::EmbeddedNewline);
        }
        let mut opts = OpenOptions::new();
        opts.write(true).create_new(true);
        let file = opts.open(path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::AlreadyExists {
                InspectError::AlreadyExists(path.to_path_buf())
            } else {
                io_err("create", path, &e)
            }
        })?;
        let mut w = EventLogWriter {
            file,
            path: path.to_path_buf(),
            seq: 0,
            buf: String::new(),
            pending: 0,
        };
        w.buf.push_str(&frame(&format!("h {:016x} {meta}", fingerprint64(meta))));
        w.flush_sync()?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(w)
    }

    /// Appends one event (buffered; synced every
    /// [`EventLogWriter::SYNC_BATCH`] events).
    ///
    /// # Errors
    ///
    /// [`InspectError::Io`] if the batched flush fails.
    pub fn append(&mut self, ev: &LifecycleEvent) -> Result<(), InspectError> {
        self.buf.push_str(&frame(&format!("e {} {}", self.seq, ev.encode())));
        self.seq += 1;
        self.pending += 1;
        if self.pending >= Self::SYNC_BATCH {
            self.flush_sync()?;
        }
        Ok(())
    }

    /// Events appended so far.
    pub fn events_written(&self) -> u64 {
        self.seq
    }

    /// Writes the clean-close trailer and syncs everything; when this
    /// returns `Ok`, the log replays completely after any subsequent
    /// kill. Returns the event count.
    ///
    /// # Errors
    ///
    /// [`InspectError::Io`] if the final write or sync fails.
    pub fn finish(mut self) -> Result<u64, InspectError> {
        self.buf.push_str(&frame(&format!("z {}", self.seq)));
        self.flush_sync()?;
        Ok(self.seq)
    }

    fn flush_sync(&mut self) -> Result<(), InspectError> {
        self.file
            .write_all(self.buf.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| io_err("append", &self.path, &e))?;
        self.buf.clear();
        self.pending = 0;
        self.file.sync_data().map_err(|e| io_err("fsync", &self.path, &e))
    }
}

/// Everything recovered from reading an event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventLog {
    /// The header's free-form run description.
    pub meta: String,
    /// [`fingerprint64`] of `meta`, as stored (a reader sanity check).
    pub fingerprint: u64,
    /// Valid events in sequence order.
    pub events: Vec<LifecycleEvent>,
    /// True iff the clean-close trailer was found and its count matches.
    pub complete: bool,
    /// Complete-but-invalid lines dropped at the tail (plus one for an
    /// unterminated trailing fragment, if any).
    pub dropped_lines: usize,
}

/// Reads and validates an event log: header first, then events, with
/// the corrupt-tail policy of [`crate::journal`] — reading stops at the
/// first invalid line (bad CRC, bad decode, out-of-order sequence) and
/// everything before it is reported.
///
/// # Errors
///
/// [`InspectError::Io`] if the file cannot be read, or
/// [`InspectError::MissingHeader`] if line one is not a valid header.
pub fn read_event_log(path: &Path) -> Result<EventLog, InspectError> {
    let mut buf = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut buf))
        .map_err(|e| io_err("read", path, &e))?;
    let text = String::from_utf8_lossy(&buf);

    let mut lines = Vec::new();
    let mut saw_partial_tail = false;
    for chunk in text.split_inclusive('\n') {
        match chunk.strip_suffix('\n') {
            Some(line) => lines.push(line),
            None => saw_partial_tail = true, // unterminated torn tail
        }
    }

    let mut it = lines.iter();
    let header = it.next().and_then(|l| unframe(l)).and_then(|body| {
        let rest = body.strip_prefix("h ")?;
        let (fp_hex, rest) = rest.split_at_checked(16)?;
        let fingerprint = u64::from_str_radix(fp_hex, 16).ok()?;
        let meta = rest.strip_prefix(' ').unwrap_or("").to_string();
        Some((fingerprint, meta))
    });
    let Some((fingerprint, meta)) = header else {
        return Err(InspectError::MissingHeader(path.to_path_buf()));
    };

    let mut events = Vec::new();
    let mut complete = false;
    let mut dropped = usize::from(saw_partial_tail);
    let mut remaining = it.len();
    for line in it {
        remaining -= 1;
        let parsed = unframe(line).and_then(|body| {
            if let Some(rest) = body.strip_prefix("e ") {
                let (seq, payload) = rest.split_once(' ')?;
                // Sequence numbers are dense from 0: a gap or repeat
                // means the tail belongs to some other write attempt.
                if seq.parse::<u64>().ok()? != events.len() as u64 {
                    return None;
                }
                Some(Some(LifecycleEvent::decode(payload)?))
            } else if let Some(count) = body.strip_prefix("z ") {
                (count.parse::<u64>().ok()? == events.len() as u64).then_some(None)
            } else {
                None
            }
        });
        match parsed {
            Some(Some(ev)) if !complete => events.push(ev),
            Some(None) if !complete => complete = true,
            _ => {
                // First invalid line (or anything after a trailer):
                // everything from here is tail.
                dropped += 1 + remaining;
                break;
            }
        }
    }
    Ok(EventLog { meta, fingerprint, events, complete, dropped_lines: dropped })
}

/// An [`EventSink`] that streams events straight into an
/// [`EventLogWriter`]. The engine's sink contract is infallible, so I/O
/// failures are latched internally: the first error stops further
/// writes and is reported when the caller [`FileSink::finish`]es.
#[derive(Debug)]
pub struct FileSink {
    writer: Option<EventLogWriter>,
    error: Option<InspectError>,
}

impl FileSink {
    /// Opens a fresh log at `path` (see [`EventLogWriter::create`]).
    ///
    /// # Errors
    ///
    /// Propagates [`EventLogWriter::create`] failures.
    pub fn create(path: &Path, meta: &str) -> Result<FileSink, InspectError> {
        Ok(FileSink { writer: Some(EventLogWriter::create(path, meta)?), error: None })
    }

    /// Closes the log cleanly, returning the event count — or the first
    /// error any append hit.
    ///
    /// # Errors
    ///
    /// The first latched append error, or the final flush's failure.
    pub fn finish(self) -> Result<u64, InspectError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        match self.writer {
            Some(w) => w.finish(),
            None => Ok(0),
        }
    }
}

impl EventSink for FileSink {
    fn emit(&mut self, event: LifecycleEvent) {
        if self.error.is_some() {
            return;
        }
        if let Some(w) = self.writer.as_mut() {
            if let Err(e) = w.append(&event) {
                self.error = Some(e);
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    // Scratch files for the test; the path never reaches a result.
    #[allow(clippy::disallowed_methods)]
    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("fpb-inspect-recorder-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        std::fs::remove_file(&p).ok();
        p
    }

    fn sample_events() -> Vec<LifecycleEvent> {
        vec![
            LifecycleEvent::BrownoutStart { at: 10 },
            LifecycleEvent::StuckMarked { lines: 1, at: 12 },
            LifecycleEvent::BrownoutEnd { at: 20 },
            LifecycleEvent::RunEnd { at: 99 },
        ]
    }

    #[test]
    fn round_trip_create_append_read() {
        let path = tmp("round_trip.fpbi");
        let mut w = EventLogWriter::create(&path, "cop_m fpb 40000 1").unwrap();
        for ev in sample_events() {
            w.append(&ev).unwrap();
        }
        assert_eq!(w.events_written(), 4);
        assert_eq!(w.finish().unwrap(), 4);
        let log = read_event_log(&path).unwrap();
        assert_eq!(log.meta, "cop_m fpb 40000 1");
        assert_eq!(log.fingerprint, fingerprint64("cop_m fpb 40000 1"));
        assert_eq!(log.events, sample_events());
        assert!(log.complete);
        assert_eq!(log.dropped_lines, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_refuses_existing_file() {
        let path = tmp("no_clobber.fpbi");
        drop(EventLogWriter::create(&path, "m").unwrap());
        let err = EventLogWriter::create(&path, "m").unwrap_err();
        assert_eq!(err, InspectError::AlreadyExists(path.clone()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_trailer_reads_incomplete() {
        let path = tmp("no_trailer.fpbi");
        let mut w = EventLogWriter::create(&path, "m").unwrap();
        w.append(&LifecycleEvent::RunEnd { at: 5 }).unwrap();
        // Simulate a kill: flush the batch but never write the trailer.
        w.flush_sync().unwrap();
        drop(w);
        let log = read_event_log(&path).unwrap();
        assert_eq!(log.events.len(), 1);
        assert!(!log.complete);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let path = tmp("torn_tail.fpbi");
        let mut w = EventLogWriter::create(&path, "m").unwrap();
        for ev in sample_events() {
            w.append(&ev).unwrap();
        }
        w.finish().unwrap();
        // Corrupt the trailer line: flip a payload byte mid-line.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let log = read_event_log(&path).unwrap();
        assert_eq!(log.events, sample_events());
        assert!(!log.complete, "trailer was destroyed");
        assert_eq!(log.dropped_lines, 1);
        // Truncate mid-line: unterminated fragment also drops cleanly.
        let cut = n - 10;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let log = read_event_log(&path).unwrap();
        assert!(!log.complete);
        assert!(log.dropped_lines >= 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_order_sequence_stops_the_read() {
        let path = tmp("bad_seq.fpbi");
        let mut text = frame(&format!("h {:016x} m", fingerprint64("m")));
        text.push_str(&frame(&format!("e 0 {}", LifecycleEvent::RunEnd { at: 1 }.encode())));
        // Valid CRC, wrong sequence number: belongs to another attempt.
        text.push_str(&frame(&format!("e 7 {}", LifecycleEvent::RunEnd { at: 2 }.encode())));
        std::fs::write(&path, text).unwrap();
        let log = read_event_log(&path).unwrap();
        assert_eq!(log.events.len(), 1);
        assert!(!log.complete);
        assert_eq!(log.dropped_lines, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn not_a_log_is_a_typed_error() {
        let path = tmp("not_a_log.fpbi");
        std::fs::write(&path, "hello world\n").unwrap();
        assert_eq!(
            read_event_log(&path),
            Err(InspectError::MissingHeader(path.clone()))
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_sink_latches_errors_and_finishes() {
        let path = tmp("file_sink.fpbi");
        let mut sink = FileSink::create(&path, "m").unwrap();
        use super::super::EventSink as _;
        sink.emit(LifecycleEvent::RunEnd { at: 3 });
        assert_eq!(sink.finish().unwrap(), 1);
        let log = read_event_log(&path).unwrap();
        assert!(log.complete);
        assert_eq!(log.events.len(), 1);
        std::fs::remove_file(&path).ok();
    }
}
