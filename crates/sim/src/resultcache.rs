//! Persistent sweep result cache: level 2 of the result-reuse ladder.
//!
//! Level 1 (semantic dedup, [`crate::sweep`]) shares simulations *within*
//! one sweep; this cache shares them *across* sweeps — repeated grids,
//! `--resume` restarts, and the bench ladder's repeated rungs all
//! warm-start from `target/fpb-sweep-cache.v1`.
//!
//! The file is a [`crate::store`] file: a salt header, one record per
//! entry, and the store's `z <count>` trailer, each line under its own
//! CRC-32. The policy is whole-cache discard: any dropped line (torn,
//! bit-flipped, unparseable), a missing or miscounted trailer, or a
//! schema or salt drift throws the entire file away and the sweep runs
//! cold. A cache can only ever *miss*, never lie:
//!
//! - Entries are keyed by the full effective-config description (the
//!   dedup unit key); lookups compare it byte-for-byte.
//! - Values are [`Metrics::encode_record`] strings — exact integer
//!   round-trips, so a cache hit produces byte-identical JSON to a
//!   fresh simulation. The CRC covers the whole entry, so a changed
//!   digit in a value is damage, not a different result.
//! - The header carries [`CODE_SALT`]; bumping it on any
//!   semantics-affecting engine change orphans every old cache at once.
//! - Saves go through [`store::replace`] (temp file and rename), so a
//!   reader racing a writer sees either the old cache or the new one.
//!
//! Line bodies (framed as `fpb-sweep-cache/v2 <crc32-8hex> <body>`):
//!
//! ```text
//! h <salt>
//! r <escaped-description>\t<metrics-record>
//! z <count>
//! ```

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::metrics::Metrics;
use crate::store::{self, StoreError};

/// Magic opening every cache line; bump the version on format changes.
pub const CACHE_SCHEMA: &str = "fpb-sweep-cache/v2";

/// Code-version salt carried in the header. Bump whenever an engine
/// change alters what any cached simulation *would* produce — every
/// existing cache is then discarded wholesale on load.
pub const CODE_SALT: &str = "s1";

/// Default cache location, relative to the working directory.
pub const DEFAULT_CACHE_PATH: &str = "target/fpb-sweep-cache.v1";

/// An in-memory view of the persistent cache: loaded once per sweep,
/// consulted per dedup unit, merged + rewritten at the end.
#[derive(Debug)]
pub struct ResultCache {
    path: PathBuf,
    entries: BTreeMap<String, Metrics>,
    dirty: bool,
}

impl ResultCache {
    /// Loads the cache at `path`. A missing, unreadable, or in any way
    /// damaged file yields an *empty* cache — cold is always safe.
    pub fn load(path: &Path) -> ResultCache {
        ResultCache {
            entries: parse(path).unwrap_or_default(),
            ..ResultCache::empty(path)
        }
    }

    /// An empty cache bound to `path` (used by tests and `--no-result-cache`
    /// comparisons).
    pub fn empty(path: &Path) -> ResultCache {
        ResultCache {
            path: path.to_path_buf(),
            entries: BTreeMap::new(),
            dirty: false,
        }
    }

    /// The metrics stored for an exact unit description.
    pub fn lookup(&self, desc: &str) -> Option<Metrics> {
        self.entries.get(desc).cloned()
    }

    /// Records freshly simulated metrics for a unit description.
    pub fn insert(&mut self, desc: String, metrics: Metrics) {
        if self.entries.insert(desc, metrics).is_none() {
            self.dirty = true;
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Writes the cache back to its path. No-op when nothing new was
    /// inserted. Errors are returned for the caller to report — a failed
    /// save only costs warm starts, never correctness.
    pub fn save(&self) -> Result<(), StoreError> {
        if !self.dirty {
            return Ok(());
        }
        let mut bodies = Vec::with_capacity(self.entries.len() + 2);
        bodies.push(format!("h {CODE_SALT}"));
        for (desc, metrics) in &self.entries {
            bodies.push(format!("r {}\t{}", esc(desc), metrics.encode_record()));
        }
        bodies.push(store::trailer(self.entries.len() as u64));
        store::replace(&self.path, CACHE_SCHEMA, bodies.iter().map(String::as_str))
    }
}

/// Reads a cache file. Returns `None` — discarding the whole cache — on
/// a wrong magic or salt, *any* dropped line, or a missing or miscounted
/// trailer: partial trust would risk splicing stale or torn entries into
/// results.
fn parse(path: &Path) -> Option<BTreeMap<String, Metrics>> {
    let mut salted = false;
    let mut entries = BTreeMap::new();
    let mut records = 0u64;
    let mut closed = false;
    let tail = store::read(path, CACHE_SCHEMA, |body| {
        if closed {
            return false;
        }
        if !salted {
            salted = body.strip_prefix("h ") == Some(CODE_SALT);
            return salted;
        }
        if let Some(count) = store::trailer_count(body) {
            closed = count == records;
            return closed;
        }
        let Some((desc, record)) = body.strip_prefix("r ").and_then(|r| r.split_once('\t')) else {
            return false;
        };
        let (Some(desc), Some(metrics)) = (unesc(desc), Metrics::decode_record(record)) else {
            return false;
        };
        entries.insert(desc, metrics);
        records += 1;
        true
    })
    .ok()?;
    (tail.dropped_lines == 0 && closed).then_some(entries)
}

/// Escapes tabs, newlines, and backslashes so descriptions survive the
/// tab-separated framing.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`esc`]; `None` on any unknown escape (malformed record).
fn unesc(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::fs;

    // Scratch files for the test; the path never reaches a result.
    #[allow(clippy::disallowed_methods)]
    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("fpb-resultcache-tests");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        fs::remove_file(&p).ok();
        p
    }

    fn sample_metrics(cycles: u64) -> Metrics {
        Metrics {
            cycles,
            instructions_per_core: 1000,
            cores: 4,
            pcm_writes: 17,
            per_chip_cells: vec![1, 2, 3, 4],
            ..Metrics::default()
        }
    }

    /// A saved two-entry cache and its text.
    fn saved(name: &str) -> (PathBuf, String) {
        let path = tmp(name);
        let mut c = ResultCache::empty(&path);
        c.insert("alpha".into(), sample_metrics(51_655));
        c.insert("beta".into(), sample_metrics(2));
        c.save().unwrap();
        let text = fs::read_to_string(&path).unwrap();
        (path, text)
    }

    #[test]
    fn round_trip_hits_exactly() {
        let path = tmp("round_trip.v1");
        let mut c = ResultCache::empty(&path);
        c.insert("unit a".into(), sample_metrics(11));
        c.insert("unit\tb\\with\nescapes".into(), sample_metrics(22));
        c.save().unwrap();

        let r = ResultCache::load(&path);
        assert_eq!(r.len(), 2);
        assert_eq!(r.lookup("unit a"), Some(sample_metrics(11)));
        assert_eq!(r.lookup("unit\tb\\with\nescapes"), Some(sample_metrics(22)));
        assert_eq!(r.lookup("unit c"), None);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_empty_cache() {
        let c = ResultCache::load(Path::new("/nonexistent/fpb-cache.v1"));
        assert!(c.is_empty());
    }

    #[test]
    fn a_changed_digit_in_a_stored_metric_discards_the_cache() {
        let (path, text) = saved("digit.v1");
        assert_eq!(ResultCache::load(&path).len(), 2);
        // The first entry's metrics record follows the last tab of its
        // line; bump the last digit of its first field (cycles).
        let line_start = text.find('\n').unwrap() + 1;
        let line_end = line_start + text[line_start..].find('\n').unwrap();
        let record = line_start + text[line_start..line_end].rfind('\t').unwrap() + 1;
        let field_end = record + text[record..].find(' ').unwrap();
        let mut bytes = text.into_bytes();
        let digit = &mut bytes[field_end - 1];
        *digit = if *digit == b'9' { b'0' } else { *digit + 1 };
        fs::write(&path, &bytes).unwrap();
        assert!(
            ResultCache::load(&path).is_empty(),
            "a changed metric must never splice"
        );
        fs::remove_file(&path).ok();
    }

    #[test]
    fn a_cache_cut_at_a_line_boundary_is_discarded() {
        let (path, text) = saved("lines.v1");
        // Keep the header and the first entry: every kept line is intact,
        // but the trailer is gone.
        let kept: String = text.split_inclusive('\n').take(2).collect();
        fs::write(&path, kept).unwrap();
        assert!(
            ResultCache::load(&path).is_empty(),
            "a partial cache must not be trusted"
        );
        fs::remove_file(&path).ok();
    }

    #[test]
    fn damage_anywhere_discards_the_whole_cache() {
        let (path, good) = saved("malformed.v1");
        let mut damaged = vec![
            good[..good.len() / 2].to_string(),  // truncated mid-record
            format!("{good}trailing garbage\n"), // anything after the trailer
            good.replacen(CACHE_SCHEMA, "fpb-sweep-cache/v1", 1), // old schema
        ];
        // Bit flips anywhere: header, record, trailer, framing.
        for at in [0, 30, good.len() / 2, good.len() - 3] {
            let mut bytes = good.clone().into_bytes();
            bytes[at] ^= 0x04;
            damaged.push(String::from_utf8_lossy(&bytes).into_owned());
        }
        for text in &damaged {
            fs::write(&path, text).unwrap();
            assert!(
                ResultCache::load(&path).is_empty(),
                "kept entries after: {text:?}"
            );
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn a_salt_bump_or_a_miscounted_trailer_discards_the_cache() {
        let path = tmp("salt.v1");
        let record = format!("r alpha\t{}", sample_metrics(1).encode_record());
        for bodies in [
            ["h s999", record.as_str(), "z 1"],
            ["h s1", record.as_str(), "z 2"],
            ["h s1", record.as_str(), "z 0"],
        ] {
            store::replace(&path, CACHE_SCHEMA, bodies).unwrap();
            assert!(ResultCache::load(&path).is_empty(), "{bodies:?}");
        }
        store::replace(&path, CACHE_SCHEMA, ["h s1", record.as_str(), "z 1"]).unwrap();
        assert_eq!(ResultCache::load(&path).len(), 1);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn save_is_a_noop_without_new_entries() {
        let path = tmp("noop.v1");
        let mut c = ResultCache::empty(&path);
        c.insert("x".into(), sample_metrics(9));
        c.save().unwrap();
        let r = ResultCache::load(&path);
        r.save().unwrap(); // clean cache: no rewrite, no error
        assert_eq!(ResultCache::load(&path).len(), 1);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn escape_round_trip() {
        for s in [
            "plain",
            "tab\there",
            "nl\nhere",
            "back\\slash",
            "\\t literal",
        ] {
            assert_eq!(unesc(&esc(s)).as_deref(), Some(s));
        }
        assert_eq!(unesc("bad\\q"), None);
        assert_eq!(unesc("trailing\\"), None);
    }

    #[test]
    fn empty_cache_file_parses_empty() {
        let path = tmp("empty.v1");
        store::replace(&path, CACHE_SCHEMA, ["h s1", "z 0"]).unwrap();
        let c = ResultCache::load(&path);
        assert!(c.is_empty());
        fs::remove_file(&path).ok();
    }
}
