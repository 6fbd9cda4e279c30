//! The durable `fpbi1` event log: where a recorded run lives on disk.
//!
//! A [`crate::store`] file, like the sweep journal: CRC-framed single
//! lines, append-only, fsync'd in batches, refusing to clobber, tolerant
//! of a torn tail. Line bodies (framed as `fpbi1 <crc32-8hex> <body>`):
//!
//! ```text
//! h <fingerprint-16hex> <meta…>
//! e <seq> <event-wire-form…>
//! z <count>
//! ```
//!
//! The header binds the log to one run description (`meta`, typically
//! `workload scheme instructions seed`); each `e` line carries one
//! [`LifecycleEvent`] in its exact wire form with a strictly increasing
//! sequence number; the store's `z` trailer marks a clean close. A log
//! without its trailer (crash mid-record) is still readable — every
//! CRC-valid prefix replays — but reports `complete = false` so callers
//! that need the whole run (`--require-complete`) can refuse it.
//!
//! Unlike the journal's per-line fsync (sweep points are minutes of
//! work), events are microseconds of work, so the writer batches:
//! appends buffer in memory and hit the disk every
//! [`EventLogWriter::SYNC_BATCH`] events and at close.

use std::path::Path;

use crate::store::{self, fingerprint64, Appender, StoreError};

use super::event::LifecycleEvent;
use super::EventSink;

/// Magic tag opening every event-log line; bump the digit on any format
/// change so old readers fail loudly instead of misparsing.
pub const EVENT_LOG_MAGIC: &str = "fpbi1";

/// An open event log accepting batched appends.
#[derive(Debug)]
pub struct EventLogWriter {
    out: Appender,
    seq: u64,
    pending: u64,
}

impl EventLogWriter {
    /// Events buffered between fsyncs. Large enough to amortize the
    /// sync, small enough that a crash loses under a millisecond of
    /// simulated history.
    pub const SYNC_BATCH: u64 = 1024;

    /// Creates a fresh log (refusing to clobber) and syncs its header.
    /// The header fingerprint is [`fingerprint64`] of `meta`.
    ///
    /// # Errors
    ///
    /// [`StoreError::AlreadyExists`] if the path exists,
    /// [`StoreError::EmbeddedNewline`] for a multi-line meta, or
    /// [`StoreError::Io`] for filesystem failures.
    pub fn create(path: &Path, meta: &str) -> Result<EventLogWriter, StoreError> {
        let header = format!("h {:016x} {meta}", fingerprint64(meta));
        let out = Appender::create(path, EVENT_LOG_MAGIC, &header)?;
        Ok(EventLogWriter {
            out,
            seq: 0,
            pending: 0,
        })
    }

    /// Appends one event (buffered; synced every
    /// [`EventLogWriter::SYNC_BATCH`] events).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the batched flush fails.
    pub fn append(&mut self, ev: &LifecycleEvent) -> Result<(), StoreError> {
        self.out.push(&format!("e {} {}", self.seq, ev.encode()))?;
        self.seq += 1;
        self.pending += 1;
        if self.pending >= Self::SYNC_BATCH {
            self.out.sync()?;
            self.pending = 0;
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
    /// [`StoreError::Io`] if the final write or sync fails.
    pub fn finish(mut self) -> Result<u64, StoreError> {
        self.out.push(&store::trailer(self.seq))?;
        self.out.sync()?;
        Ok(self.seq)
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
    /// Lines dropped at the tail (an unterminated trailing fragment
    /// counts as one).
    pub dropped_lines: usize,
}

fn parse_header(body: &str) -> Option<(u64, String)> {
    let rest = body.strip_prefix("h ")?;
    let (fp_hex, rest) = rest.split_at_checked(16)?;
    let fingerprint = u64::from_str_radix(fp_hex, 16).ok()?;
    Some((
        fingerprint,
        rest.strip_prefix(' ').unwrap_or("").to_string(),
    ))
}

/// Parses an `e` body, which must carry sequence number `seq`: numbers
/// are dense from 0, so a gap or repeat means the line belongs to some
/// other write attempt.
fn parse_event(body: &str, seq: usize) -> Option<LifecycleEvent> {
    let (n, payload) = body.strip_prefix("e ")?.split_once(' ')?;
    if n.parse::<u64>().ok()? != seq as u64 {
        return None;
    }
    LifecycleEvent::decode(payload)
}

/// Reads and validates an event log: header first, then events, with
/// the store's corrupt-tail policy — reading stops at the first invalid
/// line (bad CRC, bad decode, out-of-order sequence, anything after the
/// trailer) and everything before it is reported.
///
/// # Errors
///
/// [`StoreError::Io`] if the file cannot be read, or
/// [`StoreError::MissingHeader`] if line one is not a valid header.
pub fn read_event_log(path: &Path) -> Result<EventLog, StoreError> {
    let mut header = None;
    let mut events = Vec::new();
    let mut complete = false;
    let tail = store::read(path, EVENT_LOG_MAGIC, |body| {
        if complete {
            return false;
        }
        if header.is_none() {
            header = parse_header(body);
            return header.is_some();
        }
        if let Some(count) = store::trailer_count(body) {
            complete = count == events.len() as u64;
            return complete;
        }
        match parse_event(body, events.len()) {
            Some(ev) => {
                events.push(ev);
                true
            }
            None => false,
        }
    })?;
    let Some((fingerprint, meta)) = header else {
        return Err(StoreError::MissingHeader {
            path: path.to_path_buf(),
            magic: EVENT_LOG_MAGIC,
        });
    };
    Ok(EventLog {
        meta,
        fingerprint,
        events,
        complete,
        dropped_lines: tail.dropped_lines,
    })
}

/// An [`EventSink`] that streams events straight into an
/// [`EventLogWriter`]. The engine's sink contract is infallible, so I/O
/// failures are latched internally: the first error stops further
/// writes and is reported when the caller [`FileSink::finish`]es.
#[derive(Debug)]
pub struct FileSink {
    writer: Option<EventLogWriter>,
    error: Option<StoreError>,
}

impl FileSink {
    /// Opens a fresh log at `path` (see [`EventLogWriter::create`]).
    ///
    /// # Errors
    ///
    /// Propagates [`EventLogWriter::create`] failures.
    pub fn create(path: &Path, meta: &str) -> Result<FileSink, StoreError> {
        Ok(FileSink {
            writer: Some(EventLogWriter::create(path, meta)?),
            error: None,
        })
    }

    /// Closes the log cleanly, returning the event count — or the first
    /// error any append hit.
    ///
    /// # Errors
    ///
    /// The first latched append error, or the final flush's failure.
    pub fn finish(self) -> Result<u64, StoreError> {
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
    use std::path::PathBuf;

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
        assert_eq!(err, StoreError::AlreadyExists(path.clone()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_trailer_reads_incomplete() {
        let path = tmp("no_trailer.fpbi");
        let mut w = EventLogWriter::create(&path, "m").unwrap();
        w.append(&LifecycleEvent::RunEnd { at: 5 }).unwrap();
        // Simulate a kill: flush the batch but never write the trailer.
        w.out.sync().unwrap();
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
        let mut w = EventLogWriter::create(&path, "m").unwrap();
        w.append(&LifecycleEvent::RunEnd { at: 1 }).unwrap();
        // Valid CRC, wrong sequence number: belongs to another attempt.
        w.out
            .push(&format!(
                "e 7 {}",
                LifecycleEvent::RunEnd { at: 2 }.encode()
            ))
            .unwrap();
        w.out.sync().unwrap();
        drop(w);
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
            Err(StoreError::MissingHeader {
                path: path.clone(),
                magic: EVENT_LOG_MAGIC
            })
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
