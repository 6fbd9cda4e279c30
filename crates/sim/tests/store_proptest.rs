//! Property tests for the record codec every durable file shares. For
//! each format's magic, an arbitrary record sequence is damaged three
//! ways — truncated at any byte, one bit flipped anywhere, arbitrary
//! bytes appended — and the scan must keep exactly the intact records
//! before the first damaged byte, byte for byte, and stop there. A
//! resume cut at that valid prefix must then re-scan with nothing
//! dropped. The result cache, which trusts a file only whole, must load
//! every damaged copy as empty.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use fpb_sim::inspect::EVENT_LOG_MAGIC;
use fpb_sim::resultcache::CACHE_SCHEMA;
use fpb_sim::store::{self, Appender};
use fpb_sim::{Metrics, ResultCache};

/// The journal's, the event log's and the result cache's magics.
const MAGICS: [&str; 3] = ["fpbj2", EVENT_LOG_MAGIC, CACHE_SCHEMA];

static CASE: AtomicU64 = AtomicU64::new(0);

// Scratch files for the test; the path never reaches a result.
#[allow(clippy::disallowed_methods)]
fn tmp(ext: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("fpb-store-proptests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let n = CASE.fetch_add(1, Ordering::SeqCst);
    let p = dir.join(format!("case-{}-{n}.{ext}", std::process::id()));
    std::fs::remove_file(&p).ok();
    p
}

/// Record bodies: newline-free text with tabs and a two-byte character
/// (the vendored proptest shim has no regex strategies, so the string
/// is built from a byte vector).
fn body_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0x1fu8..0x80, 0..60).prop_map(|bytes| {
        bytes
            .into_iter()
            .map(|b| match b {
                0x1f => '\t',
                0x7f => 'é',
                b => char::from(b),
            })
            .collect()
    })
}

/// The three damages, each with the offset of its first damaged byte.
fn damages(
    written: &[u8],
    pos: u64,
    bit: u8,
    garbage: &[u8],
) -> [(&'static str, Vec<u8>, usize); 3] {
    let len = written.len();
    let cut = (pos % (len as u64 + 1)) as usize;
    let flip_at = (pos % len as u64) as usize;
    let mut flipped = written.to_vec();
    flipped[flip_at] ^= 1 << bit;
    [
        ("truncated", written[..cut].to_vec(), cut),
        ("bit-flipped", flipped, flip_at),
        ("appended", [written, garbage].concat(), len),
    ]
}

/// Scans `bytes`, accepting every verified body.
fn scan_all(bytes: &[u8], magic: &str) -> (Vec<String>, store::Tail) {
    let mut kept = Vec::new();
    let tail = store::scan(bytes, magic, |body| {
        kept.push(body.to_string());
        true
    });
    (kept, tail)
}

/// Checks the scan of a damaged copy of `written` (the framed `bodies`)
/// whose first damaged byte is `at`; returns how many records it kept
/// and where their bytes end.
fn check_scan(
    magic: &str,
    bodies: &[String],
    written: &[u8],
    damaged: &[u8],
    at: usize,
) -> Result<(usize, u64), TestCaseError> {
    let ends: Vec<usize> = written
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1)
        .collect();
    let intact = ends.iter().filter(|&&end| end <= at).count();
    let valid = if intact == 0 { 0 } else { ends[intact - 1] };

    let (kept, tail) = scan_all(damaged, magic);
    prop_assert_eq!(&kept[..], &bodies[..intact]);
    prop_assert_eq!(tail.valid_bytes, valid as u64);
    prop_assert!(valid <= at);
    let rest = damaged[valid..].split_inclusive(|&b| b == b'\n').count();
    prop_assert_eq!(tail.dropped_lines, rest);
    Ok((intact, tail.valid_bytes))
}

/// [`check_scan`], then resumes the damaged file at its valid prefix and
/// re-scans it.
fn check(
    magic: &'static str,
    bodies: &[String],
    written: &[u8],
    damaged: &[u8],
    at: usize,
) -> Result<(), TestCaseError> {
    let (intact, valid_bytes) = check_scan(magic, bodies, written, damaged, at)?;

    // Resume at the valid prefix: the tail is cut off, the next record
    // lands behind the kept ones, and nothing is dropped.
    let path = tmp("resume");
    std::fs::write(&path, damaged).expect("write damaged copy");
    let mut out = Appender::resume(&path, magic, valid_bytes).expect("resume");
    out.push("after resume").expect("push");
    out.sync().expect("sync");
    drop(out);
    let (kept, tail) = scan_all(&std::fs::read(&path).expect("re-read"), magic);
    prop_assert_eq!(tail.dropped_lines, 0);
    prop_assert_eq!(kept.len(), intact + 1);
    prop_assert_eq!(&kept[..intact], &bodies[..intact]);
    prop_assert_eq!(kept[intact].as_str(), "after resume");
    std::fs::remove_file(&path).ok();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn damage_keeps_exactly_the_intact_prefix_for_every_format(
        bodies in prop::collection::vec(body_strategy(), 1..12),
        pos in any::<u64>(),
        bit in 0u8..8,
        garbage in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        for magic in MAGICS {
            let path = tmp("store");
            let mut out = Appender::create(&path, magic, &bodies[0]).expect("create");
            for body in &bodies[1..] {
                out.push(body).expect("push");
            }
            out.sync().expect("sync");
            drop(out);
            let written = std::fs::read(&path).expect("read back");
            std::fs::remove_file(&path).ok();

            let (kept, tail) = scan_all(&written, magic);
            prop_assert_eq!(&kept, &bodies);
            prop_assert_eq!(tail.dropped_lines, 0);
            prop_assert_eq!(tail.valid_bytes, written.len() as u64);

            for (what, damaged, at) in damages(&written, pos, bit, &garbage) {
                check(magic, &bodies, &written, &damaged, at)
                    .map_err(|e| TestCaseError::Fail(format!("{magic}, {what} at {at}: {e:?}")))?;
            }
            // The flip at every byte, not only at `pos`: each line's
            // frame fields are a small target for one random position.
            for at in 0..written.len() {
                let mut flipped = written.clone();
                flipped[at] ^= 1 << bit;
                check_scan(magic, &bodies, &written, &flipped, at)
                    .map_err(|e| TestCaseError::Fail(format!("{magic}, flip at {at}: {e:?}")))?;
            }
        }
    }

    #[test]
    fn a_damaged_result_cache_loads_empty(
        entries in prop::collection::vec((body_strategy(), any::<u64>()), 1..6),
        pos in any::<u64>(),
        bit in 0u8..8,
        garbage in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        let path = tmp("v1");
        let mut cache = ResultCache::empty(&path);
        for (desc, cycles) in &entries {
            cache.insert(desc.clone(), Metrics { cycles: *cycles, ..Metrics::default() });
        }
        cache.save().expect("save");
        let saved = ResultCache::load(&path).len();
        prop_assert_eq!(saved, cache.len());
        let written = std::fs::read(&path).expect("read back");

        for (what, damaged, at) in damages(&written, pos, bit, &garbage) {
            if at == written.len() && damaged.len() == written.len() {
                continue; // a cut at the very end damages nothing
            }
            std::fs::write(&path, &damaged).expect("write damaged copy");
            prop_assert!(
                ResultCache::load(&path).is_empty(),
                "{} cache (first damaged byte {}) kept entries",
                what,
                at
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
