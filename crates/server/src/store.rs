//! The content-addressed result cache: [`WalStore`], one append-only,
//! checksummed log at the cache path.
//!
//! An entry maps a 64-bit content digest (spec token + trace bytes, see
//! [`CacheKey::digest`]) to a `JobReport` record; equal digests mean equal
//! work, so a hit returns the stored report with zero recomputation. The
//! digest is SipHash-1-3 under a random 128-bit [`CacheKey`] that the log
//! keeps in its header, so nobody who lacks the key can build two traces
//! with one digest.
//!
//! Every insert is appended to the log and fsynced *before* the caller
//! proceeds (i.e. before the server acknowledges the job), so a `kill -9`
//! at any byte offset loses at most the record that was mid-append. An
//! append that fails is cut back off the log before the error returns.
//!
//! Opening replays the log. Damage inside it (a flipped byte in a
//! record's prefix, body or terminator) costs only the damaged record:
//! replay resumes at the next record whose framing and checksum hold.
//! Damage with no such record after it is a torn tail and is truncated.
//! If replay found dead records (superseded, damaged or unparsable),
//! opening compacts the log to one record per live entry, atomically:
//! temp file, fsync, rename over the log, fsync of the directory.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::hash::{BuildHasher, RandomState};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use droidracer_core::JobReport;

/// 64-bit FNV-1a over an arbitrary byte stream.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// SipHash with `C` compression rounds per 8-byte word and `D`
/// finalization rounds, under a 128-bit key `(k0, k1)`. Cache digests use
/// `Sip<1, 3>`; `Sip<2, 4>` is the published SipHash-2-4, which pins the
/// code both share against its test vectors.
#[derive(Debug, Clone, Copy)]
pub struct Sip<const C: usize, const D: usize> {
    v: [u64; 4],
    /// Bytes absorbed since the last whole word, little-endian.
    tail: u64,
    /// How many bytes `tail` holds (0..8).
    tail_len: usize,
    /// Bytes absorbed in all; its low byte goes into the last word.
    len: u64,
}

impl<const C: usize, const D: usize> Sip<C, D> {
    /// A fresh hasher under the key `(k0, k1)`.
    pub fn new(k0: u64, k1: u64) -> Self {
        Sip {
            v: [
                k0 ^ 0x736f_6d65_7073_6575,
                k1 ^ 0x646f_7261_6e64_6f6d,
                k0 ^ 0x6c79_6765_6e65_7261,
                k1 ^ 0x7465_6462_7974_6573,
            ],
            tail: 0,
            tail_len: 0,
            len: 0,
        }
    }

    /// One SipRound. Its two halves are interleaved as in std's
    /// `SipHasher`: written one half after the other, the 1-3 digest ran
    /// about 8% slower on x86-64.
    #[inline(always)]
    fn round(v: &mut [u64; 4]) {
        v[0] = v[0].wrapping_add(v[1]);
        v[2] = v[2].wrapping_add(v[3]);
        v[1] = v[1].rotate_left(13) ^ v[0];
        v[3] = v[3].rotate_left(16) ^ v[2];
        v[0] = v[0].rotate_left(32);
        v[2] = v[2].wrapping_add(v[1]);
        v[0] = v[0].wrapping_add(v[3]);
        v[1] = v[1].rotate_left(17) ^ v[2];
        v[3] = v[3].rotate_left(21) ^ v[0];
        v[2] = v[2].rotate_left(32);
    }

    #[inline(always)]
    fn compress(v: &mut [u64; 4], word: u64) {
        v[3] ^= word;
        for _ in 0..C {
            Self::round(v);
        }
        v[0] ^= word;
    }

    /// Absorbs `bytes`; any split of a message across calls gives the
    /// same digest.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        if self.tail_len > 0 {
            let fill = (8 - self.tail_len).min(bytes.len());
            for (i, &b) in bytes[..fill].iter().enumerate() {
                self.tail |= u64::from(b) << (8 * (self.tail_len + i));
            }
            self.tail_len += fill;
            bytes = &bytes[fill..];
            if self.tail_len < 8 {
                return;
            }
            Self::compress(&mut self.v, self.tail);
            self.tail = 0;
            self.tail_len = 0;
        }
        let mut v = self.v;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            Self::compress(
                &mut v,
                u64::from_le_bytes(word.try_into().expect("8 bytes")),
            );
        }
        self.v = v;
        for (i, &b) in words.remainder().iter().enumerate() {
            self.tail |= u64::from(b) << (8 * i);
        }
        self.tail_len = words.remainder().len();
    }

    /// The digest of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        let mut v = self.v;
        Self::compress(&mut v, self.len << 56 | self.tail);
        v[2] ^= 0xff;
        for _ in 0..D {
            Self::round(&mut v);
        }
        v[0] ^ v[1] ^ v[2] ^ v[3]
    }
}

/// The secret 128-bit key a cache takes its digests under. A log keeps its
/// key in its header (a reopened log answers the digests it was filled
/// with); an in-memory cache takes a fresh one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheKey(u64, u64);

impl CacheKey {
    /// A fresh random key: two outputs of a newly seeded `RandomState`,
    /// which draws its seed from the operating system.
    pub fn random() -> Self {
        let state = RandomState::new();
        CacheKey(state.hash_one(0u8), state.hash_one(1u8))
    }

    /// The cache key of one job: SipHash-1-3 under this key over the spec
    /// token, a separator, and the raw trace bytes. The separator keeps
    /// `("ab", "c")` and `("a", "bc")` from colliding trivially.
    pub fn digest(self, spec_token: &str, trace_bytes: &[u8]) -> u64 {
        let mut h = Sip::<1, 3>::new(self.0, self.1);
        h.update(spec_token.as_bytes());
        h.update(&[0]);
        h.update(trace_bytes);
        h.finish()
    }
}

/// [`CacheKey::digest`] under the all-zero key: the same work per byte as
/// a served request's key, for callers that hold no cache.
pub fn job_key(spec_token: &str, trace_bytes: &[u8]) -> u64 {
    CacheKey::default().digest(spec_token, trace_bytes)
}

/// One problem found while opening a persisted store. Opening never fails
/// for content reasons: every damaged record becomes a diagnostic and is
/// dropped, and the same open compacts it out of the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreDiagnostic {
    /// 1-based record number in the log, counting each damaged span as
    /// one record (1 for a bad header).
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for StoreDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// Start of the log's header line. The whole line is
/// `droidracer-wal v3 <k0:016x><k1:016x> <sum:016x>\n`: the log's
/// [`CacheKey`], then the FNV-1a checksum of everything before it on the
/// line. Replay of a file with any other first line, or a header that
/// fails its checksum, starts the log over under a fresh key (the cache
/// is a pure memo, so dropping it only costs recomputation, never
/// correctness).
const WAL_MAGIC: &str = "droidracer-wal v3 ";

/// Length of the header part the checksum covers: magic, key and a space.
const WAL_SUMMED_HEADER: usize = WAL_MAGIC.len() + 32 + 1;

/// Byte length of the whole header line.
const WAL_HEADER_LEN: usize = WAL_SUMMED_HEADER + 16 + 1;

/// The header line of a log under `key`.
fn wal_header(key: CacheKey) -> Vec<u8> {
    let mut line = format!("{WAL_MAGIC}{:016x}{:016x} ", key.0, key.1).into_bytes();
    let mut sum = Fnv64::new();
    sum.update(&line);
    line.extend_from_slice(format!("{:016x}\n", sum.finish()).as_bytes());
    line
}

/// The key of a log image whose header is whole and passes its checksum.
fn wal_header_key(bytes: &[u8]) -> Option<CacheKey> {
    let header = bytes.get(..WAL_HEADER_LEN)?;
    if !header.starts_with(WAL_MAGIC.as_bytes())
        || header[WAL_SUMMED_HEADER - 1] != b' '
        || header[WAL_HEADER_LEN - 1] != b'\n'
    {
        return None;
    }
    let k0 = wal_hex(&header[WAL_MAGIC.len()..WAL_MAGIC.len() + 16])?;
    let k1 = wal_hex(&header[WAL_MAGIC.len() + 16..WAL_SUMMED_HEADER - 1])?;
    let sum = wal_hex(&header[WAL_SUMMED_HEADER..WAL_HEADER_LEN - 1])?;
    let mut check = Fnv64::new();
    check.update(&header[..WAL_SUMMED_HEADER]);
    (check.finish() == sum).then_some(CacheKey(k0, k1))
}

/// Fixed byte length of one WAL record's prefix:
/// `R <key:016x> <len:08x> <sum:016x> ` — marker, three hex fields, four
/// separators. The record body (`JobReport::to_record` bytes) follows,
/// then one `\n`.
pub(crate) const WAL_PREFIX: usize = 2 + 16 + 1 + 8 + 1 + 16 + 1;

/// Length of the part of the prefix the checksum covers: marker, key and
/// length fields with their separators, `R <key:016x> <len:08x> `.
const WAL_SUMMED_PREFIX: usize = 2 + 16 + 1 + 8 + 1;

/// The FNV-1a checksum of one record: over the marker, the key and length
/// fields, and the body. A damaged key thus fails the check rather than
/// replaying the record under another digest.
fn wal_checksum(summed_prefix: &[u8], body: &[u8]) -> u64 {
    let mut sum = Fnv64::new();
    sum.update(summed_prefix);
    sum.update(body);
    sum.finish()
}

/// Encodes one WAL record: fixed-width prefix (key, body length, FNV-1a
/// checksum of key, length and body) + body + newline. The explicit length
/// lets replay step over a record without scanning its body; the checksum
/// catches bit rot and torn writes anywhere in the record but its own
/// field and terminator, which the framing checks.
fn wal_encode(key: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(WAL_PREFIX + body.len() + 1);
    out.extend_from_slice(format!("R {key:016x} {:08x} ", body.len()).as_bytes());
    let sum = wal_checksum(&out, body);
    out.extend_from_slice(format!("{sum:016x} ").as_bytes());
    out.extend_from_slice(body);
    out.push(b'\n');
    out
}

/// One record of a log image that replay accepts: a well-formed prefix,
/// the declared body length, the terminator and a checksum that matches
/// the key, length and body.
struct WalRecord {
    /// Offset of the record's `R` marker.
    start: usize,
    key: u64,
    /// The body, without the terminator at `body.end`.
    body: Range<usize>,
}

/// A fixed-width lowercase hex field, exactly as [`wal_encode`] writes it.
fn wal_hex(field: &[u8]) -> Option<u64> {
    field.iter().try_fold(0u64, |acc, &b| {
        let digit = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            _ => return None,
        };
        Some(acc << 4 | u64::from(digit))
    })
}

/// The record starting exactly at `pos`, if replay accepts it.
fn wal_record_at(bytes: &[u8], pos: usize) -> Option<WalRecord> {
    let prefix = bytes.get(pos..pos.checked_add(WAL_PREFIX)?)?;
    if !prefix.starts_with(b"R ")
        || prefix[18] != b' '
        || prefix[27] != b' '
        || prefix[WAL_PREFIX - 1] != b' '
    {
        return None;
    }
    let key = wal_hex(&prefix[2..18])?;
    let len = usize::try_from(wal_hex(&prefix[19..27])?).ok()?;
    let sum = wal_hex(&prefix[28..44])?;
    let body = pos + WAL_PREFIX..(pos + WAL_PREFIX).checked_add(len)?;
    if bytes.get(body.end) != Some(&b'\n') {
        return None;
    }
    let check = wal_checksum(&prefix[..WAL_SUMMED_PREFIX], &bytes[body.clone()]);
    (check == sum).then_some(WalRecord {
        start: pos,
        key,
        body,
    })
}

/// The first record at or after `from` that replay accepts. Damage (a
/// mangled prefix, a wrong length, a lost terminator, a failed checksum)
/// is stepped over byte by byte; a body cannot hide a whole record, since
/// report records escape every control byte, `\n` included.
fn wal_next_record(bytes: &[u8], from: usize) -> Option<WalRecord> {
    (from..bytes.len()).find_map(|pos| wal_record_at(bytes, pos))
}

/// Byte ranges of the body of every record replay accepts in a WAL image,
/// in file order. Exposed for the chaos harness and tests, which use it to
/// aim disk faults at precise record boundaries.
pub fn wal_record_ranges(bytes: &[u8]) -> Vec<Range<usize>> {
    let mut ranges = Vec::new();
    if wal_header_key(bytes).is_none() {
        return ranges;
    }
    let mut pos = WAL_HEADER_LEN;
    while let Some(record) = wal_next_record(bytes, pos) {
        pos = record.body.end + 1;
        ranges.push(record.body);
    }
    ranges
}

/// A fully encoded WAL record for `key`/`body`, exposed so fault
/// harnesses can append *prefixes* of it to a log, simulating a crash
/// mid-append (the torn tail replay must truncate).
pub fn wal_torn_tail_bytes(key: u64, body: &[u8]) -> Vec<u8> {
    wal_encode(key, body)
}

/// Replay statistics of one [`WalStore::open`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records replayed from the WAL into the in-memory store.
    pub replayed: u64,
    /// Damaged spans stepped over, each followed by a record replay
    /// accepts (bit rot inside one record; its neighbors survive), plus
    /// records whose body does not parse as a report.
    pub skipped: u64,
    /// 1 if a torn tail was truncated during replay (a crash mid-append).
    pub torn_truncated: u64,
    /// Records appended since open.
    pub appended: u64,
    /// 1 if opening rewrote the log to drop dead records.
    pub compactions: u64,
}

/// The crash-safe result cache: an in-memory map over an append-only log.
/// See the [module docs](self) for the durability contract.
#[derive(Debug)]
pub struct WalStore {
    key: CacheKey,
    mem: BTreeMap<u64, JobReport>,
    path: PathBuf,
    wal: File,
    stats: WalStats,
}

impl WalStore {
    /// Opens (or creates) the log at `path`, replays it into memory,
    /// truncates any torn tail so appends resume at a clean boundary,
    /// rewrites the log if replay found dead records, and leaves it open
    /// for appending. The store adopts the key in the log's header; a new
    /// or restarted log gets a fresh random key. A `<path>.tmp` left by a
    /// compaction that a crash interrupted is removed first.
    ///
    /// # Errors
    ///
    /// Genuine I/O failures only; every *content* problem (a foreign or
    /// damaged header, damaged or torn records) becomes a diagnostic.
    pub fn open(path: &Path) -> io::Result<(Self, Vec<StoreDiagnostic>)> {
        match std::fs::remove_file(tmp_path(path)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        let mut store = WalStore {
            key: CacheKey::random(),
            mem: BTreeMap::new(),
            path: path.to_owned(),
            wal: OpenOptions::new()
                .read(true)
                .create(true)
                .append(true)
                .open(path)?,
            stats: WalStats::default(),
        };
        let mut diags = Vec::new();
        store.replay(&mut diags)?;
        Ok((store, diags))
    }

    /// Replays the log into memory. Damage followed by an accepted record
    /// is skipped; damage with none after it is a torn tail, truncated so
    /// that appends land on a clean record boundary. If the file then
    /// still holds dead records (superseded, unparsable or damaged), it
    /// is compacted.
    fn replay(&mut self, diags: &mut Vec<StoreDiagnostic>) -> io::Result<()> {
        let mut bytes = Vec::new();
        self.wal.seek(SeekFrom::Start(0))?;
        self.wal.read_to_end(&mut bytes)?;
        let Some(key) = wal_header_key(&bytes) else {
            // A new log, or one this version cannot read: start it under
            // the fresh key the store was opened with.
            if !bytes.is_empty() {
                let message = if bytes.starts_with(WAL_MAGIC.as_bytes()) {
                    "WAL header is torn or fails its checksum; restarting the log"
                } else {
                    "unrecognized WAL header; restarting the log"
                };
                diags.push(StoreDiagnostic {
                    line: 1,
                    message: message.to_owned(),
                });
                self.truncate_to(0)?;
            }
            self.wal.write_all(&wal_header(self.key))?;
            self.wal.sync_data()?;
            // A new log's directory entry must be durable too.
            return if bytes.is_empty() {
                sync_dir(&self.path)
            } else {
                Ok(())
            };
        };
        self.key = key;
        let mut pos = WAL_HEADER_LEN;
        let mut span_no = 0usize;
        let mut dead = 0usize;
        while pos < bytes.len() {
            span_no += 1;
            let Some(record) = wal_next_record(&bytes, pos) else {
                self.stats.torn_truncated += 1;
                diags.push(StoreDiagnostic {
                    line: span_no,
                    message: format!(
                        "torn WAL tail at byte {pos} ({} bytes dropped)",
                        bytes.len() - pos
                    ),
                });
                self.truncate_to(pos as u64)?;
                break;
            };
            if record.start > pos {
                self.stats.skipped += 1;
                dead += 1;
                diags.push(StoreDiagnostic {
                    line: span_no,
                    message: format!(
                        "damaged WAL bytes {pos}..{} failed their framing or checksum; \
                         skipped",
                        record.start
                    ),
                });
                span_no += 1;
            }
            let report = std::str::from_utf8(&bytes[record.body.clone()])
                .ok()
                .and_then(|text| JobReport::from_record(text).ok());
            match report {
                Some(report) => {
                    if self.mem.insert(record.key, report).is_some() {
                        dead += 1;
                    }
                    self.stats.replayed += 1;
                }
                None => {
                    self.stats.skipped += 1;
                    dead += 1;
                    diags.push(StoreDiagnostic {
                        line: span_no,
                        message: format!(
                            "WAL record {span_no} (digest {:016x}) is not a report; skipped",
                            record.key
                        ),
                    });
                }
            }
            pos = record.body.end + 1;
        }
        if dead > 0 {
            self.compact()?;
        }
        Ok(())
    }

    fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        self.wal.set_len(len)?;
        self.wal.seek(SeekFrom::End(0))?;
        self.wal.sync_data()
    }

    /// The key this log's digests are taken under: pass it to
    /// [`CacheKey::digest`] to look up or insert a job.
    pub fn key(&self) -> CacheKey {
        self.key
    }

    /// Cached reports currently in memory.
    pub fn len(&self) -> usize {
        self.mem.len()
    }

    /// Whether the store holds no reports.
    pub fn is_empty(&self) -> bool {
        self.mem.is_empty()
    }

    /// Looks up a report by digest (memory only — never touches disk).
    pub fn get(&self, key: u64) -> Option<&JobReport> {
        self.mem.get(&key)
    }

    /// Replay/append statistics since open.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Stores `report` under `key` durably: the record is appended to the
    /// log and fsynced before this returns, so once the caller acknowledges
    /// the result, a crash at any byte offset cannot lose it.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the in-memory insert has already happened
    /// (a failed disk is degraded durability, not a lost result for this
    /// process's lifetime).
    pub fn insert(&mut self, key: u64, report: JobReport) -> io::Result<()> {
        let record = wal_encode(key, report.to_record().as_bytes());
        self.mem.insert(key, report);
        self.append(|wal| {
            wal.write_all(&record)?;
            wal.sync_data()
        })?;
        self.stats.appended += 1;
        Ok(())
    }

    /// Runs `write`, which appends one record and syncs it. If it fails,
    /// the log is cut back to its length before the append: a partial
    /// record left in place would have every later append written behind
    /// damage.
    fn append(&mut self, write: impl FnOnce(&mut File) -> io::Result<()>) -> io::Result<()> {
        let before = self.wal.seek(SeekFrom::End(0))?;
        let written = write(&mut self.wal);
        if written.is_err() {
            self.truncate_to(before)?;
        }
        written
    }

    /// Rewrites the log with one record per live entry, in digest order:
    /// the new log goes to `<path>.tmp`, is fsynced and renamed over the
    /// log, and the directory is fsynced so the rename itself is durable.
    /// A crash at any point leaves either the old log or the new one at
    /// the path, each whole and each holding every live entry. Appends
    /// continue through the temp file's handle, which now names the log.
    fn compact(&mut self) -> io::Result<()> {
        let tmp = tmp_path(&self.path);
        let mut bytes = wal_header(self.key);
        for (key, report) in &self.mem {
            bytes.extend_from_slice(&wal_encode(*key, report.to_record().as_bytes()));
        }
        let mut wal = File::create(&tmp)?;
        wal.write_all(&bytes)?;
        wal.sync_data()?;
        std::fs::rename(&tmp, &self.path)?;
        // From the rename on, appends must go to the new file, even if the
        // directory sync below fails.
        self.wal = wal;
        self.stats.compactions += 1;
        sync_dir(&self.path)
    }
}

/// Where [`WalStore`] writes a compacted log before renaming it over the
/// log at `path`.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Fsyncs the directory holding `path`, which makes a create or a rename
/// there durable.
fn sync_dir(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidracer_core::{ExitClass, JobReport};

    fn sample_report(diag: &str) -> JobReport {
        JobReport::aborted(ExitClass::Invalid, diag)
    }

    /// The published SipHash-2-4 vectors (Aumasson and Bernstein, appendix
    /// A): key `00..0f`, messages `00..(n-1)`, digests read little-endian.
    #[test]
    fn sip24_matches_the_published_vectors() {
        let (k0, k1) = (0x0706_0504_0302_0100, 0x0f0e_0d0c_0b0a_0908);
        let message: Vec<u8> = (0..15).collect();
        for (len, want) in [(0, 0x726f_db47_dd0e_0e31), (15, 0xa129_ca61_49be_45e5)] {
            let mut h = Sip::<2, 4>::new(k0, k1);
            h.update(&message[..len]);
            assert_eq!(h.finish(), want, "{len}-byte message");
        }
    }

    proptest::proptest! {
        /// `Sip<2, 4>` is std's (deprecated) `SipHasher` for any key and
        /// message, however the message is split across `update` calls.
        #[test]
        fn sip24_matches_std(
            k0 in proptest::prelude::any::<u64>(),
            k1 in proptest::prelude::any::<u64>(),
            message in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..100),
            cuts in proptest::collection::vec(0usize..100, 0..4),
        ) {
            #[allow(deprecated)]
            let mut want = std::hash::SipHasher::new_with_keys(k0, k1);
            std::hash::Hasher::write(&mut want, &message);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(message.len())).collect();
            cuts.sort_unstable();
            let mut got = Sip::<2, 4>::new(k0, k1);
            let mut from = 0;
            for cut in cuts.into_iter().chain([message.len()]) {
                got.update(&message[from..cut]);
                from = cut;
            }
            proptest::prop_assert_eq!(got.finish(), std::hash::Hasher::finish(&want));
        }
    }

    #[test]
    fn digest_separates_spec_and_trace() {
        assert_ne!(job_key("ab", b"c"), job_key("a", b"bc"));
        assert_ne!(job_key("s", b"x"), job_key("s", b"y"));
        assert_eq!(job_key("s", b"x"), job_key("s", b"x"));
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("walstore-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn wal_survives_reopen() {
        let dir = temp_dir("reopen");
        let path = dir.join("cache.txt");
        {
            let (mut store, diags) = WalStore::open(&path).unwrap();
            assert!(diags.is_empty());
            store.insert(7, sample_report("seven")).unwrap();
            store.insert(9, sample_report("nine")).unwrap();
            // Dropping here models a crash after the acks.
        }
        // A temp file left by a compaction that a crash interrupted.
        std::fs::write(dir.join("cache.txt.tmp"), b"droidracer-wal v2\nR 00").unwrap();
        let (store, diags) = WalStore::open(&path).unwrap();
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(files, vec![path.clone()], "the log is the only file");
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(store.stats().compactions, 0, "no dead records");
        assert_eq!(store.stats().replayed, 2);
        assert_eq!(store.get(7), Some(&sample_report("seven")));
        assert_eq!(store.get(9), Some(&sample_report("nine")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume() {
        let dir = temp_dir("torn");
        let path = dir.join("cache.txt");
        {
            let (mut store, _) = WalStore::open(&path).unwrap();
            store.insert(1, sample_report("whole")).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let whole_len = bytes.len();
        // Simulate a crash mid-append: half of a second record.
        let torn = wal_encode(2, sample_report("torn").to_record().as_bytes());
        bytes.extend_from_slice(&torn[..torn.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();
        let (mut store, diags) = WalStore::open(&path).unwrap();
        assert_eq!(store.stats().torn_truncated, 1);
        assert_eq!(store.stats().replayed, 1);
        assert!(
            diags.iter().any(|d| d.message.contains("torn WAL tail")),
            "{diags:?}"
        );
        assert_eq!(store.get(1), Some(&sample_report("whole")));
        assert_eq!(
            store.get(2),
            None,
            "the in-flight record is lost, nothing else"
        );
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            whole_len as u64,
            "tail truncated back to the last whole record"
        );
        // Appends resume on the clean boundary and replay afterwards.
        store.insert(3, sample_report("after")).unwrap();
        drop(store);
        let (store, diags) = WalStore::open(&path).unwrap();
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(store.stats().replayed, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_record_is_skipped_but_neighbors_survive() {
        let dir = temp_dir("corrupt");
        let path = dir.join("cache.txt");
        {
            let (mut store, _) = WalStore::open(&path).unwrap();
            store.insert(1, sample_report("first")).unwrap();
            store.insert(0xa2, sample_report("second")).unwrap();
            store.insert(3, sample_report("third")).unwrap();
        }
        let clean = std::fs::read(&path).unwrap();
        let ranges = wal_record_ranges(&clean);
        assert_eq!(ranges.len(), 3);
        let body = ranges[1].clone();
        let start = body.start - WAL_PREFIX;
        // One byte of the second record: its marker, a key digit, the key's
        // `a` in uppercase (not what `wal_encode` writes), its top length
        // digit turned into another hex digit (the declared end runs past
        // EOF), a checksum digit, mid-body, and its terminator.
        for (offset, mask) in [
            (start, 0x41),
            (start + 2, 0x41),
            (start + 16, 0x20),
            (start + 19, 0x01),
            (start + 30, 0x20),
            ((body.start + body.end) / 2, 0x41),
            (body.end, 0x41),
        ] {
            let mut bytes = clean.clone();
            bytes[offset] ^= mask;
            std::fs::write(&path, &bytes).unwrap();
            let (store, diags) = WalStore::open(&path).unwrap();
            let stats = store.stats();
            assert_eq!(stats.skipped, 1, "byte {offset}: {diags:?}");
            assert_eq!(stats.torn_truncated, 0, "byte {offset}");
            assert_eq!(stats.replayed, 2, "byte {offset}");
            assert_eq!(store.get(1), Some(&sample_report("first")), "byte {offset}");
            assert_eq!(store.get(0xa2), None, "byte {offset}");
            // Records after the damage survive.
            assert_eq!(store.get(3), Some(&sample_report("third")), "byte {offset}");
            assert_eq!(stats.compactions, 1, "byte {offset}: compacted");
            assert_eq!(wal_record_ranges(&std::fs::read(&path).unwrap()).len(), 2);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A key digit turned into another lowercase hex digit still frames as
    /// a record; the checksum over the key catches it, so the record is
    /// skipped as damage instead of replaying under another digest.
    #[test]
    fn damaged_key_digit_fails_the_checksum() {
        let dir = temp_dir("key-digit");
        let path = dir.join("cache.txt");
        {
            let (mut store, _) = WalStore::open(&path).unwrap();
            store.insert(1, sample_report("one")).unwrap();
            store.insert(2, sample_report("two")).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let first = wal_record_ranges(&bytes)[0].start - WAL_PREFIX;
        // The last key digit: `1` becomes `0`, key 1 would read as key 0.
        let digit = first + 2 + 15;
        assert_eq!(bytes[digit], b'1');
        bytes[digit] = b'0';
        std::fs::write(&path, &bytes).unwrap();
        let (store, diags) = WalStore::open(&path).unwrap();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("damaged WAL bytes"), "{diags:?}");
        assert_eq!(store.stats().skipped, 1);
        assert_eq!(store.get(0), None, "no replay under another digest");
        assert_eq!(store.get(1), None);
        assert_eq!(store.get(2), Some(&sample_report("two")));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A log written with the body-only checksum of `droidracer-wal v1`
    /// restarts as a foreign file.
    #[test]
    fn v1_log_restarts_as_a_foreign_file() {
        let dir = temp_dir("v1");
        let path = dir.join("cache.txt");
        let body = sample_report("v1").to_record();
        let mut sum = Fnv64::new();
        sum.update(body.as_bytes());
        let v1 = format!(
            "droidracer-wal v1\nR {:016x} {:08x} {:016x} {body}\n",
            7,
            body.len(),
            sum.finish()
        );
        std::fs::write(&path, v1).unwrap();
        let (store, diags) = WalStore::open(&path).unwrap();
        assert!(store.is_empty());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(
            diags[0].message.contains("unrecognized WAL header"),
            "{diags:?}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), wal_header(store.key()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_append_is_cut_back() {
        let dir = temp_dir("failed-append");
        let path = dir.join("cache.txt");
        let (mut store, _) = WalStore::open(&path).unwrap();
        store.insert(1, sample_report("before")).unwrap();
        let before = std::fs::metadata(&path).unwrap().len();
        // A write that stops part-way, as on a full disk.
        let record = wal_encode(2, sample_report("partial").to_record().as_bytes());
        let failed = store.append(|wal| {
            wal.write_all(&record[..record.len() / 2])?;
            Err(io::Error::other("no space left on device"))
        });
        assert!(failed.is_err());
        // The partial record is cut off.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), before);
        store.insert(3, sample_report("after")).unwrap();
        drop(store);
        let (store, diags) = WalStore::open(&path).unwrap();
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(store.get(1), Some(&sample_report("before")));
        assert_eq!(store.get(3), Some(&sample_report("after")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_drops_dead_records() {
        let dir = temp_dir("compact");
        let path = dir.join("cache.txt");
        let cache_key = {
            let (mut store, _) = WalStore::open(&path).unwrap();
            for key in 1..=4 {
                store.insert(key, sample_report("old")).unwrap();
            }
            // Two superseded records: keys 1 and 3 are stored again.
            store.insert(1, sample_report("new")).unwrap();
            store.insert(3, sample_report("new")).unwrap();
            assert_eq!(store.stats().compactions, 0, "appends never compact");
            store.key()
        };
        // A damaged record: key 2's record fails its checksum on replay.
        let mut bytes = std::fs::read(&path).unwrap();
        let ranges = wal_record_ranges(&bytes);
        assert_eq!(ranges.len(), 6);
        bytes[(ranges[1].start + ranges[1].end) / 2] ^= 0x41;
        std::fs::write(&path, &bytes).unwrap();
        let (mut store, diags) = WalStore::open(&path).unwrap();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(store.stats().skipped, 1);
        assert_eq!(store.stats().compactions, 1, "3 dead, 1 compaction");
        assert_eq!(store.len(), 3);
        let tmp = dir.join("cache.txt.tmp");
        assert!(!tmp.exists(), "the temp file was renamed over the log");
        assert_eq!(store.key(), cache_key, "compaction keeps the log's key");
        let mut live = wal_header(cache_key);
        for (key, tag) in [(1, "new"), (3, "new"), (4, "old")] {
            live.extend_from_slice(&wal_encode(key, sample_report(tag).to_record().as_bytes()));
        }
        assert_eq!(
            std::fs::read(&path).unwrap(),
            live,
            "one record per live entry, in digest order"
        );
        // Appends after the rename land in the new log and replay clean.
        store.insert(5, sample_report("after")).unwrap();
        drop(store);
        let (store, diags) = WalStore::open(&path).unwrap();
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(store.stats().compactions, 0, "a clean log is left as it is");
        assert_eq!(store.stats().replayed, 4);
        assert_eq!(store.get(1), Some(&sample_report("new")));
        assert_eq!(store.get(2), None);
        assert_eq!(store.get(4), Some(&sample_report("old")));
        assert_eq!(store.get(5), Some(&sample_report("after")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_file_restarts_the_log() {
        let dir = temp_dir("foreign");
        let path = dir.join("cache.txt");
        // A result-store snapshot, the format earlier versions kept at the
        // cache path.
        let snapshot = format!(
            "droidracer-resultstore v1\n{:016x} {}\n",
            7,
            sample_report("snapshot").to_record()
        );
        std::fs::write(&path, snapshot).unwrap();
        let (mut store, diags) = WalStore::open(&path).unwrap();
        assert!(store.is_empty());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(
            diags[0].message.contains("unrecognized WAL header"),
            "{diags:?}"
        );
        store.insert(7, sample_report("recomputed")).unwrap();
        drop(store);
        let (store, diags) = WalStore::open(&path).unwrap();
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(7), Some(&sample_report("recomputed")));
        std::fs::remove_dir_all(&dir).ok();
    }
}
