//! Persistent sweep result cache: level 2 of the result-reuse ladder.
//!
//! Level 1 (semantic dedup, [`crate::sweep`]) shares simulations *within*
//! one sweep; this cache shares them *across* sweeps — repeated grids,
//! `--resume` restarts, and the bench ladder's repeated rungs all
//! warm-start from `target/fpb-sweep-cache.v1`.
//!
//! The file is line-oriented text: a schema line, then one
//! tab-separated record per entry, FNV-1a-64 keys, and a
//! whole-cache-discard policy — any malformed record, checksum mismatch,
//! or schema/salt drift throws the entire file away and the sweep runs
//! cold. A cache can only ever *miss*, never lie:
//!
//! - Entries are keyed by the full effective-config description (the
//!   dedup unit key). The FNV hash column is an integrity check only;
//!   lookups compare the stored description byte-for-byte, so a hash
//!   collision is a miss, not a wrong splice.
//! - Values are [`Metrics::encode_record`] strings — exact integer
//!   round-trips, so a cache hit produces byte-identical JSON to a
//!   fresh simulation.
//! - The schema line carries [`CODE_SALT`]; bumping it on any
//!   semantics-affecting engine change orphans every old cache at once.
//! - Saves write a temp file and rename it into place, so a reader
//!   racing a writer sees either the old cache or the new one, never a
//!   torn file (and a torn file would only mean a cold run anyway).
//!
//! File format:
//!
//! ```text
//! fpb-sweep-cache/v1 <salt>
//! R\t<fnv64-16hex>\t<escaped-description>\t<metrics-record>
//! ```

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::journal::fingerprint64;
use crate::metrics::Metrics;

/// First token of the schema line; bump the version on format changes.
pub const CACHE_SCHEMA: &str = "fpb-sweep-cache/v1";

/// Code-version salt carried in the schema line. Bump whenever an engine
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
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that missed (including everything after a discard).
    pub misses: usize,
    dirty: bool,
}

impl ResultCache {
    /// Loads the cache at `path`. A missing, unreadable, or in any way
    /// malformed file yields an *empty* cache — cold is always safe.
    pub fn load(path: &Path) -> ResultCache {
        let entries = fs::read_to_string(path)
            .ok()
            .and_then(|text| parse(&text))
            .unwrap_or_default();
        ResultCache { path: path.to_path_buf(), entries, hits: 0, misses: 0, dirty: false }
    }

    /// An empty cache bound to `path` (used by tests and `--no-result-cache`
    /// comparisons).
    pub fn empty(path: &Path) -> ResultCache {
        ResultCache {
            path: path.to_path_buf(),
            entries: BTreeMap::new(),
            hits: 0,
            misses: 0,
            dirty: false,
        }
    }

    /// Looks up the metrics stored for an exact unit description,
    /// counting the hit or miss.
    pub fn lookup(&mut self, desc: &str) -> Option<Metrics> {
        match self.entries.get(desc) {
            Some(m) => {
                self.hits += 1;
                Some(m.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
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

    /// Writes the cache back to its path (temp file + rename, so racing
    /// readers never observe a torn file). No-op when nothing new was
    /// inserted. Errors are returned for the caller to report — a failed
    /// save only costs warm starts, never correctness.
    pub fn save(&self) -> io::Result<()> {
        if !self.dirty {
            return Ok(());
        }
        let mut out = String::with_capacity(64 + self.entries.len() * 128);
        out.push_str(CACHE_SCHEMA);
        out.push(' ');
        out.push_str(CODE_SALT);
        out.push('\n');
        for (desc, metrics) in &self.entries {
            out.push_str(&format!(
                "R\t{:016x}\t{}\t{}\n",
                fingerprint64(desc),
                esc(desc),
                metrics.encode_record()
            ));
        }
        if let Some(dir) = self.path.parent().filter(|d| !d.as_os_str().is_empty()) {
            fs::create_dir_all(dir)?;
        }
        let tmp = self.path.with_extension("tmp");
        fs::write(&tmp, &out)?;
        fs::rename(&tmp, &self.path)
    }
}

/// Parses a cache file. Returns `None` — discarding the whole cache — on
/// a wrong schema line, wrong salt, or *any* malformed record: partial
/// trust would risk splicing stale or torn entries into results.
fn parse(text: &str) -> Option<BTreeMap<String, Metrics>> {
    let mut lines = text.lines();
    let schema = lines.next()?;
    let salt = schema.strip_prefix(CACHE_SCHEMA)?.strip_prefix(' ')?;
    if salt != CODE_SALT {
        return None;
    }
    let mut entries = BTreeMap::new();
    for line in lines {
        let rest = line.strip_prefix("R\t")?;
        let (fnv_hex, rest) = rest.split_once('\t')?;
        let (desc_esc, record) = rest.split_once('\t')?;
        let fnv = u64::from_str_radix(fnv_hex, 16).ok()?;
        let desc = unesc(desc_esc)?;
        if fingerprint64(&desc) != fnv {
            return None; // bit rot or a hand-edited file: trust nothing
        }
        let metrics = Metrics::decode_record(record)?;
        entries.insert(desc, metrics);
    }
    Some(entries)
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

    #[test]
    fn round_trip_hits_exactly() {
        let path = tmp("round_trip.v1");
        let mut c = ResultCache::empty(&path);
        c.insert("unit a".into(), sample_metrics(11));
        c.insert("unit\tb\\with\nescapes".into(), sample_metrics(22));
        c.save().unwrap();

        let mut r = ResultCache::load(&path);
        assert_eq!(r.len(), 2);
        assert_eq!(r.lookup("unit a"), Some(sample_metrics(11)));
        assert_eq!(r.lookup("unit\tb\\with\nescapes"), Some(sample_metrics(22)));
        assert_eq!(r.lookup("unit c"), None);
        assert_eq!((r.hits, r.misses), (2, 1));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_empty_cache() {
        let c = ResultCache::load(Path::new("/nonexistent/fpb-cache.v1"));
        assert!(c.is_empty());
    }

    #[test]
    fn malformed_record_discards_the_whole_cache() {
        let path = tmp("malformed.v1");
        let mut c = ResultCache::empty(&path);
        c.insert("alpha".into(), sample_metrics(1));
        c.insert("beta".into(), sample_metrics(2));
        c.save().unwrap();

        let good = fs::read_to_string(&path).unwrap();
        for mutation in [
            good.replacen("R\t", "X\t", 1),          // wrong record tag
            good.replace(CODE_SALT, "s999"),         // salt bump
            good.replacen(CACHE_SCHEMA, "bogus/v9", 1), // wrong schema
            good[..good.len() / 2].to_string(),      // truncated mid-record
        ] {
            fs::write(&path, &mutation).unwrap();
            assert!(ResultCache::load(&path).is_empty(), "kept entries after: {mutation:?}");
        }

        // Bit-flip inside a record's hash column: integrity check trips.
        let mut bytes = good.clone().into_bytes();
        let first_r = good.find("R\t").unwrap();
        bytes[first_r + 3] = if bytes[first_r + 3] == b'0' { b'1' } else { b'0' };
        fs::write(&path, &bytes).unwrap();
        assert!(ResultCache::load(&path).is_empty(), "hash mismatch must discard");
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
        for s in ["plain", "tab\there", "nl\nhere", "back\\slash", "\\t literal"] {
            assert_eq!(unesc(&esc(s)).as_deref(), Some(s));
        }
        assert_eq!(unesc("bad\\q"), None);
        assert_eq!(unesc("trailing\\"), None);
    }

    #[test]
    fn empty_cache_file_parses_empty() {
        let path = tmp("empty.v1");
        fs::write(&path, format!("{CACHE_SCHEMA} {CODE_SALT}\n")).unwrap();
        assert!(ResultCache::load(&path).is_empty());
        fs::remove_file(&path).ok();
    }
}
