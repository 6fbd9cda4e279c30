//! The one record codec behind every durable file: the sweep journal
//! (`fpbj2`), the result cache (`fpb-sweep-cache/v2`) and the event log
//! (`fpbi1`). Each format owns only its body grammar; this module owns
//! the framing, the checksum and the file discipline.
//!
//! Every file is text, one `<magic> <crc32-8hex> <body>\n` line per
//! record. The CRC-32 covers the body and is written in lowercase hex.
//!
//! Recovery policy: [`scan`] stops at the first line that is
//! unterminated, is not UTF-8, or fails its frame or CRC, and a format
//! may stop it earlier by refusing a body it cannot parse. The lines
//! before the stop are the valid prefix; the stopping line and everything
//! after it are dropped. A kill mid-append therefore loses at most the
//! records after the last [`Appender::sync`], and damage anywhere loses
//! only the records from the damaged line on.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{ErrorKind, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// CRC-32 lookup table (IEEE 802.3, reflected polynomial `0xEDB88320`),
/// built at compile time. Cache lines run to about 18 KB, so the
/// bitwise form would show in `resultcache.load_s`.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected, the `cksum`/zlib polynomial).
///
/// # Examples
///
/// ```
/// // Check value from the CRC catalogue ("123456789").
/// assert_eq!(fpb_sim::store::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(!0u32, |crc, &b| {
        CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8)
    })
}

/// FNV-1a 64-bit over a string: the hash of sweep identities, warm keys
/// and event-log headers. Not collision-resistant against an adversary,
/// and it need not be: it guards against *accidentally* resuming the
/// wrong journal, not sabotage.
pub fn fingerprint64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why a store file could not be created, read or written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// Operation being attempted (e.g. `create`, `append`, `fsync`).
        op: &'static str,
        /// Path involved.
        path: PathBuf,
        /// Rendered OS error.
        detail: String,
    },
    /// A create found the path taken: files are never clobbered.
    AlreadyExists(PathBuf),
    /// The first line is not a valid header of the expected format: an
    /// empty file, damage from byte 0, another format, or an older
    /// version of this one.
    MissingHeader {
        /// The file read.
        path: PathBuf,
        /// The magic its lines should carry.
        magic: &'static str,
    },
    /// A record body contained a newline, which would break the framing.
    EmbeddedNewline,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, detail } => {
                write!(f, "{op} failed for {}: {detail}", path.display())
            }
            StoreError::AlreadyExists(p) => {
                write!(
                    f,
                    "{} already exists; refusing to overwrite it",
                    p.display()
                )
            }
            StoreError::MissingHeader { path, magic } => {
                write!(
                    f,
                    "{} is not a {magic} file (no valid header line)",
                    path.display()
                )
            }
            StoreError::EmbeddedNewline => write!(f, "record bodies must not contain newlines"),
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(op: &'static str, path: &Path, e: &std::io::Error) -> StoreError {
    StoreError::Io {
        op,
        path: path.to_path_buf(),
        detail: e.to_string(),
    }
}

/// Appends the framed line `<magic> <crc32-8hex> <body>\n` to `out`.
fn push_frame(out: &mut String, magic: &str, body: &str) -> Result<(), StoreError> {
    if body.contains('\n') {
        return Err(StoreError::EmbeddedNewline);
    }
    use fmt::Write as _;
    // Writing into a String cannot fail.
    let _ = writeln!(out, "{magic} {:08x} {body}", crc32(body.as_bytes()));
    Ok(())
}

/// The body of one complete line (without its `\n`), or `None` if the
/// line is not UTF-8, lacks the frame, or fails its CRC. Only lowercase
/// hex is accepted, so every bit of the CRC field is checked.
fn unframe<'a>(magic: &str, line: &'a [u8]) -> Option<&'a str> {
    let rest = std::str::from_utf8(line)
        .ok()?
        .strip_prefix(magic)?
        .strip_prefix(' ')?;
    let (hex, body) = rest.split_at_checked(8)?;
    let body = body.strip_prefix(' ')?;
    let mut crc = 0u32;
    for d in hex.bytes() {
        let nibble = match d {
            b'0'..=b'9' => d - b'0',
            b'a'..=b'f' => d - b'a' + 10,
            _ => return None,
        };
        crc = crc << 4 | u32::from(nibble);
    }
    (crc == crc32(body.as_bytes())).then_some(body)
}

/// Where a scan stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tail {
    /// Lines dropped from the first invalid or refused one on. An
    /// unterminated final fragment counts as one line.
    pub dropped_lines: usize,
    /// Byte offset just past the last accepted line: the truncation
    /// point for [`Appender::resume`].
    pub valid_bytes: u64,
}

/// The torn-tail scan. Hands each verified body of `bytes` to `accept`
/// in file order, and stops at the first line that is unterminated or
/// fails its frame or CRC, or whose body `accept` refuses by returning
/// `false`.
pub fn scan(bytes: &[u8], magic: &str, mut accept: impl FnMut(&str) -> bool) -> Tail {
    let mut valid_bytes = 0u64;
    let mut lines = bytes.split_inclusive(|&b| b == b'\n');
    while let Some(line) = lines.next() {
        let body = line.strip_suffix(b"\n").and_then(|l| unframe(magic, l));
        if !body.is_some_and(&mut accept) {
            return Tail {
                dropped_lines: 1 + lines.count(),
                valid_bytes,
            };
        }
        valid_bytes += line.len() as u64;
    }
    Tail {
        dropped_lines: 0,
        valid_bytes,
    }
}

/// Reads `path` whole and [`scan`]s it.
pub(crate) fn read(
    path: &Path,
    magic: &str,
    accept: impl FnMut(&str) -> bool,
) -> Result<Tail, StoreError> {
    let bytes = fs::read(path).map_err(|e| io_err("read", path, &e))?;
    Ok(scan(&bytes, magic, accept))
}

/// Body of the clean-close trailer that ends a file of `count` records.
pub(crate) fn trailer(count: u64) -> String {
    format!("z {count}")
}

/// The record count a trailer body declares; `None` if `body` is not a
/// trailer.
pub(crate) fn trailer_count(body: &str) -> Option<u64> {
    body.strip_prefix("z ")?.parse().ok()
}

/// An open store file taking framed appends.
#[derive(Debug)]
pub struct Appender {
    file: File,
    path: PathBuf,
    magic: &'static str,
    buf: String,
}

impl Appender {
    /// Creates `path`, refusing to clobber an existing file, writes and
    /// syncs the `header` line, then syncs the parent directory (best
    /// effort) so the name survives a crash too. A multi-line header is
    /// refused before anything is created.
    pub fn create(path: &Path, magic: &'static str, header: &str) -> Result<Appender, StoreError> {
        let mut buf = String::new();
        push_frame(&mut buf, magic, header)?;
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
            .map_err(|e| {
                if e.kind() == ErrorKind::AlreadyExists {
                    StoreError::AlreadyExists(path.to_path_buf())
                } else {
                    io_err("create", path, &e)
                }
            })?;
        let mut out = Appender {
            file,
            path: path.to_path_buf(),
            magic,
            buf,
        };
        out.sync()?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(out)
    }

    /// Reopens `path` for appending after truncating it to
    /// `valid_bytes` (a scan's [`Tail::valid_bytes`]), so a torn tail is
    /// cut off before anything new lands behind it.
    pub fn resume(
        path: &Path,
        magic: &'static str,
        valid_bytes: u64,
    ) -> Result<Appender, StoreError> {
        let mut file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err("open", path, &e))?;
        file.set_len(valid_bytes)
            .map_err(|e| io_err("truncate", path, &e))?;
        file.seek(SeekFrom::Start(valid_bytes))
            .map_err(|e| io_err("seek", path, &e))?;
        Ok(Appender {
            file,
            path: path.to_path_buf(),
            magic,
            buf: String::new(),
        })
    }

    /// Buffers one framed line; nothing reaches the file before
    /// [`Appender::sync`].
    pub fn push(&mut self, body: &str) -> Result<(), StoreError> {
        push_frame(&mut self.buf, self.magic, body)
    }

    /// Writes every buffered line and fsyncs the file. When this returns
    /// `Ok`, those lines survive any later kill.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.file
            .write_all(self.buf.as_bytes())
            .map_err(|e| io_err("append", &self.path, &e))?;
        self.buf.clear();
        self.file
            .sync_data()
            .map_err(|e| io_err("fsync", &self.path, &e))
    }
}

/// Writes `bodies` as the whole of `path`: framed into a temp file beside
/// it, then renamed over it, so a reader sees the old file or the new
/// one, never a mix. Missing parent directories are created. Nothing is
/// fsync'd: a file torn by a crash fails its scan, which each format
/// already treats as damage.
pub(crate) fn replace<'a>(
    path: &Path,
    magic: &str,
    bodies: impl IntoIterator<Item = &'a str>,
) -> Result<(), StoreError> {
    let mut out = String::new();
    for body in bodies {
        push_frame(&mut out, magic, body)?;
    }
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        fs::create_dir_all(dir).map_err(|e| io_err("create", dir, &e))?;
    }
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, out).map_err(|e| io_err("write", &tmp, &e))?;
    fs::rename(&tmp, path).map_err(|e| io_err("rename", path, &e))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    // Scratch files for the test; the path never reaches a result.
    #[allow(clippy::disallowed_methods)]
    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("fpb-store-tests");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        fs::remove_file(&p).ok();
        p
    }

    fn framed(magic: &str, bodies: &[&str]) -> String {
        let mut out = String::new();
        for b in bodies {
            push_frame(&mut out, magic, b).unwrap();
        }
        out
    }

    fn bodies_of(bytes: &[u8], magic: &str) -> (Vec<String>, Tail) {
        let mut got = Vec::new();
        let tail = scan(bytes, magic, |b| {
            got.push(b.to_string());
            true
        });
        (got, tail)
    }

    #[test]
    fn crc32_and_fingerprint_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        // FNV-1a 64 reference vectors.
        assert_eq!(fingerprint64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint64("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn frames_are_magic_crc_body() {
        assert_eq!(
            framed("fpbx1", &["h 1"]),
            format!("fpbx1 {:08x} h 1\n", crc32(b"h 1"))
        );
        let mut out = String::new();
        assert_eq!(
            push_frame(&mut out, "fpbx1", "a\nb"),
            Err(StoreError::EmbeddedNewline)
        );
        assert!(out.is_empty());
    }

    #[test]
    fn scan_keeps_the_valid_prefix_and_counts_the_rest() {
        let good = framed("fpbx1", &["h 0", "r one", "r two"]);
        let (got, tail) = bodies_of(good.as_bytes(), "fpbx1");
        assert_eq!(got, ["h 0", "r one", "r two"]);
        assert_eq!(
            tail,
            Tail {
                dropped_lines: 0,
                valid_bytes: good.len() as u64
            }
        );

        // Another magic (or an older version) fails from line one.
        let (got, tail) = bodies_of(good.as_bytes(), "fpbx2");
        assert!(got.is_empty());
        assert_eq!(
            tail,
            Tail {
                dropped_lines: 3,
                valid_bytes: 0
            }
        );

        // A corrupt middle line drops itself and everything after it,
        // and an unterminated fragment counts as one more line.
        let first = framed("fpbx1", &["h 0"]);
        let mut bytes = good.clone().into_bytes();
        bytes[first.len() + 16] ^= 0x01; // inside the body "r one"
        bytes.extend_from_slice(b"fpbx1 0000");
        let (got, tail) = bodies_of(&bytes, "fpbx1");
        assert_eq!(got, ["h 0"]);
        assert_eq!(
            tail,
            Tail {
                dropped_lines: 3,
                valid_bytes: first.len() as u64
            }
        );
    }

    #[test]
    fn uppercase_crc_hex_is_damage() {
        let line = framed("fpbx1", &["r payload with a crc"]);
        let (hex_start, hex_end) = (6, 14);
        assert!(
            line[hex_start..hex_end]
                .bytes()
                .any(|b| b.is_ascii_lowercase()),
            "{line}"
        );
        let upper = format!(
            "{}{}{}",
            &line[..hex_start],
            line[hex_start..hex_end].to_ascii_uppercase(),
            &line[hex_end..]
        );
        let (got, tail) = bodies_of(upper.as_bytes(), "fpbx1");
        assert!(got.is_empty());
        assert_eq!(tail.dropped_lines, 1);
    }

    #[test]
    fn a_refused_body_stops_the_scan() {
        let bytes = framed("fpbx1", &["keep", "stop", "after"]);
        let tail = scan(bytes.as_bytes(), "fpbx1", |b| b == "keep");
        assert_eq!(tail.dropped_lines, 2);
        assert_eq!(tail.valid_bytes, framed("fpbx1", &["keep"]).len() as u64);
    }

    #[test]
    fn trailer_round_trips() {
        assert_eq!(trailer(42), "z 42");
        assert_eq!(trailer_count(&trailer(42)), Some(42));
        assert_eq!(trailer_count("e 0 x"), None);
        assert_eq!(trailer_count("z"), None);
    }

    #[test]
    fn appender_creates_without_clobbering_and_resumes_at_the_valid_prefix() {
        let path = tmp("append.fpbx");
        let mut out = Appender::create(&path, "fpbx1", "h 1").unwrap();
        out.push("r a").unwrap();
        assert_eq!(
            fs::read(&path).unwrap(),
            framed("fpbx1", &["h 1"]).as_bytes(),
            "unsynced"
        );
        out.sync().unwrap();
        drop(out);
        assert_eq!(
            Appender::create(&path, "fpbx1", "h 1").unwrap_err(),
            StoreError::AlreadyExists(path.clone())
        );

        // A torn append behind the synced lines is cut off on resume.
        let good = fs::read(&path).unwrap();
        let mut torn = good.clone();
        torn.extend_from_slice(b"fpbx1 12345678 r hal");
        fs::write(&path, &torn).unwrap();
        let tail = read(&path, "fpbx1", |_| true).unwrap();
        assert_eq!(
            tail,
            Tail {
                dropped_lines: 1,
                valid_bytes: good.len() as u64
            }
        );
        let mut out = Appender::resume(&path, "fpbx1", tail.valid_bytes).unwrap();
        out.push("r b").unwrap();
        out.sync().unwrap();
        drop(out);
        let (got, tail) = bodies_of(&fs::read(&path).unwrap(), "fpbx1");
        assert_eq!(got, ["h 1", "r a", "r b"]);
        assert_eq!(tail.dropped_lines, 0);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn create_checks_the_header_before_touching_the_disk() {
        let path = tmp("newline.fpbx");
        assert_eq!(
            Appender::create(&path, "fpbx1", "two\nlines").unwrap_err(),
            StoreError::EmbeddedNewline
        );
        assert!(!path.exists());
    }

    #[test]
    fn replace_writes_the_whole_file_atomically() {
        let path = tmp("replace.fpbx");
        fs::write(&path, "old contents\n").unwrap();
        replace(&path, "fpbx1", ["h 1", "r a"]).unwrap();
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            framed("fpbx1", &["h 1", "r a"])
        );
        assert!(!path.with_extension("tmp").exists());
        assert_eq!(
            replace(&path, "fpbx1", ["a\nb"]),
            Err(StoreError::EmbeddedNewline)
        );
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            framed("fpbx1", &["h 1", "r a"])
        );
        fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_header_names_the_expected_magic() {
        let e = StoreError::MissingHeader {
            path: PathBuf::from("j.fpbj"),
            magic: "fpbj2",
        };
        assert_eq!(
            e.to_string(),
            "j.fpbj is not a fpbj2 file (no valid header line)"
        );
    }
}
