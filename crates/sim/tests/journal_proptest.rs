//! Property tests for the sweep journal: arbitrary payloads round-trip
//! losslessly, and arbitrary tail corruption never destroys valid
//! records or sneaks an invalid one past the reader.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use fpb_sim::journal::{read_journal, JournalHeader, JournalWriter};

static CASE: AtomicU64 = AtomicU64::new(0);

#[allow(
    clippy::disallowed_methods,
    reason = "scratch files for the test; the path never reaches a result"
)]
fn tmp() -> PathBuf {
    let dir = std::env::temp_dir().join("fpb-journal-proptests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let n = CASE.fetch_add(1, Ordering::SeqCst);
    let p = dir.join(format!("case-{}-{n}.fpbj", std::process::id()));
    std::fs::remove_file(&p).ok();
    p
}

/// Payload fragments: printable ASCII, newline-free (the writer's
/// contract). The vendored proptest shim has no regex strategies, so
/// the string is built from a byte vector.
fn payload_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0x20u8..0x7f, 0..120)
        .prop_map(|bytes| bytes.into_iter().map(char::from).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn round_trip_preserves_every_record(
        fingerprint in any::<u64>(),
        meta in payload_strategy(),
        entries in prop::collection::vec((0usize..64, payload_strategy()), 0..24),
    ) {
        let header = JournalHeader { fingerprint, points: 64, meta };
        let path = tmp();
        let mut w = JournalWriter::create(&path, &header).expect("create");
        for (index, payload) in &entries {
            w.append_record(*index, payload).expect("append");
        }
        drop(w);

        let c = read_journal(&path).expect("read back");
        prop_assert_eq!(&c.header, &header);
        prop_assert_eq!(c.dropped_lines, 0);
        prop_assert_eq!(c.records.len(), entries.len());
        for (rec, (index, payload)) in c.records.iter().zip(&entries) {
            prop_assert_eq!(rec.index, *index);
            prop_assert_eq!(&rec.payload, payload);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn appended_garbage_never_corrupts_valid_records(
        entries in prop::collection::vec((0usize..16, payload_strategy()), 1..8),
        garbage in prop::collection::vec(any::<u8>(), 1..200),
    ) {
        let header = JournalHeader { fingerprint: 7, points: 16, meta: "prop".to_string() };
        let path = tmp();
        let mut w = JournalWriter::create(&path, &header).expect("create");
        for (index, payload) in &entries {
            w.append_record(*index, payload).expect("append");
        }
        drop(w);
        let clean_len = std::fs::metadata(&path).expect("meta").len();

        // A torn/overwritten tail: arbitrary bytes after the good region.
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        f.write_all(&garbage).expect("write garbage");
        drop(f);

        match read_journal(&path) {
            Ok(c) => {
                // Whatever the garbage parsed as, every original record
                // survives, in order, and the valid region never extends
                // past bytes that verify.
                prop_assert!(c.records.len() >= entries.len());
                for (rec, (index, payload)) in c.records.iter().zip(&entries) {
                    prop_assert_eq!(rec.index, *index);
                    prop_assert_eq!(&rec.payload, payload);
                }
                prop_assert!(c.valid_bytes >= clean_len);

                // Resume truncates the tail; a re-read is then clean.
                let (w, recovered) = JournalWriter::resume(&path, &header).expect("resume");
                drop(w);
                prop_assert_eq!(recovered.records.len(), c.records.len());
                let reread = read_journal(&path).expect("re-read");
                prop_assert_eq!(reread.dropped_lines, 0);
                prop_assert_eq!(reread.records.len(), c.records.len());
            }
            Err(e) => {
                // Only a semantically-impossible CRC-valid record may
                // hard-error; random garbage essentially never builds
                // one, but if it does the refusal is the right call.
                prop_assert!(
                    e.to_string().contains("refusing to guess"),
                    "unexpected error: {e}"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_at_any_byte_keeps_a_valid_prefix(
        entries in prop::collection::vec((0usize..16, payload_strategy()), 1..6),
        cut_fraction in 0.0f64..1.0,
    ) {
        let header = JournalHeader { fingerprint: 9, points: 16, meta: "cut".to_string() };
        let path = tmp();
        let mut w = JournalWriter::create(&path, &header).expect("create");
        for (index, payload) in &entries {
            w.append_record(*index, payload).expect("append");
        }
        drop(w);
        let bytes = std::fs::read(&path).expect("read");
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        std::fs::write(&path, &bytes[..cut]).expect("truncate");

        match read_journal(&path) {
            Ok(c) => {
                // Kill-at-any-moment: the surviving records are a prefix
                // of what was written, unchanged.
                prop_assert!(c.records.len() <= entries.len());
                for (rec, (index, payload)) in c.records.iter().zip(&entries) {
                    prop_assert_eq!(rec.index, *index);
                    prop_assert_eq!(&rec.payload, payload);
                }
                prop_assert!(c.valid_bytes as usize <= cut);
            }
            Err(e) => {
                // The cut landed inside the header line.
                prop_assert!(
                    e.to_string().contains("no valid header"),
                    "unexpected error: {e}"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
