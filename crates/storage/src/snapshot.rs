//! Snapshot persistence: the sorted read store, on disk, in its
//! RLE-compressed form.
//!
//! A snapshot is the durable twin of a fully merged database: the
//! dictionary plus the three columns of the SPO-sorted triple list, each
//! stored as `(value, run_length)` pairs — the same run-length headers
//! the column engine already computes, so the heavily repetitive s/p
//! columns cost almost nothing on disk. The format is engine-agnostic: a
//! directory snapshotted under one engine × layout reopens under any
//! other, because every engine bulk-loads from the same logical dataset.
//!
//! ## On-disk format
//!
//! ```text
//! "SWSN" [version: u32 LE] [last_seq: u64 LE]
//! [n_terms: u32 LE] ([term_len: u32 LE][utf8 bytes])*
//! [n_triples: u64 LE]
//! 3 × ( [n_runs: u64 LE] ([value: u64 LE][run_len: u64 LE])* )   -- s, p, o
//! [crc32 of everything above: u32 LE]
//! ```
//!
//! [`decode`] verifies the trailing CRC over the whole image *before*
//! interpreting a single field, so any corruption — header, dictionary,
//! runs — surfaces as one typed [`SnapshotError::Checksum`], never a
//! panic or a half-decoded store.
//!
//! ## Publication protocol
//!
//! [`write_snapshot`] writes to `snapshot.swans.tmp`, fsyncs, re-reads
//! and re-decodes the temp file (catching silent write corruption while
//! the old snapshot is still intact), then atomically renames it over
//! `snapshot.swans`. A crash anywhere before the rename leaves the
//! previous snapshot untouched; after the rename the new one is live and
//! the (now-redundant) WAL prefix is truncated by the caller.

use std::fmt;
use std::io;
use std::path::Path;
use std::sync::Arc;

use crate::crc::{crc32, Crc32};
use crate::fault::{self, DurableFile, FaultState};
use crate::io::AtomicIoStats;

/// File name of the live snapshot inside a durable database directory.
pub const SNAPSHOT_FILE: &str = "snapshot.swans";
/// Temp-file name a snapshot is staged under before its atomic rename.
pub const SNAPSHOT_TMP: &str = "snapshot.swans.tmp";

const MAGIC: &[u8; 4] = b"SWSN";
const VERSION: u32 = 1;

/// A decoded (or to-be-encoded) snapshot: the full logical state of the
/// database at `last_seq`. [`decode`] yields owned terms; a snapshot to
/// encode may borrow them (`SnapshotData<&str>`), which writes the same
/// bytes without copying the dictionary first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotData<T = String> {
    /// Highest WAL sequence number whose effects this snapshot contains.
    /// Recovery replays only records with greater sequence numbers.
    pub last_seq: u64,
    /// Dictionary terms in id order (term `i` has id `i`).
    pub terms: Vec<T>,
    /// Number of triples (the decoded length of each column).
    pub n_triples: u64,
    /// Run-length-encoded s, p and o columns of the SPO-sorted triples.
    pub cols: [Vec<(u64, u64)>; 3],
}

/// Why a snapshot image failed to decode. Every variant is a clean,
/// typed rejection — corrupt input never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The image ends before a complete field.
    Truncated,
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// A format version this build does not understand.
    BadVersion(u32),
    /// The trailing CRC32 does not match the image.
    Checksum,
    /// Structurally invalid content (with a CRC that nonetheless
    /// matches — possible only for hand-crafted images).
    Malformed(String),
    /// The underlying file could not be read.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Checksum => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Malformed(m) => write!(f, "malformed snapshot: {m}"),
            SnapshotError::Io(m) => write!(f, "snapshot I/O error: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl<T: AsRef<str>> SnapshotData<T> {
    /// Builds a snapshot from SPO-sorted triple rows, run-length
    /// encoding each column.
    pub fn from_rows(last_seq: u64, terms: Vec<T>, rows: &[[u64; 3]]) -> Self {
        let col = |c: usize| {
            let mut runs: Vec<(u64, u64)> = Vec::new();
            for row in rows {
                match runs.last_mut() {
                    Some((v, n)) if *v == row[c] => *n += 1,
                    _ => runs.push((row[c], 1)),
                }
            }
            runs
        };
        SnapshotData {
            last_seq,
            terms,
            n_triples: rows.len() as u64,
            cols: [col(0), col(1), col(2)],
        }
    }

    /// Expands the three run-encoded columns back into triple rows.
    pub fn rows(&self) -> Vec<[u64; 3]> {
        let expand = |runs: &[(u64, u64)]| {
            let mut out = Vec::with_capacity(self.n_triples as usize);
            for &(v, n) in runs {
                out.extend(std::iter::repeat_n(v, n as usize));
            }
            out
        };
        let (s, p, o) = (
            expand(&self.cols[0]),
            expand(&self.cols[1]),
            expand(&self.cols[2]),
        );
        s.into_iter()
            .zip(p)
            .zip(o)
            .map(|((s, p), o)| [s, p, o])
            .collect()
    }

    /// Serializes the snapshot (including the trailing CRC).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.last_seq.to_le_bytes());
        out.extend_from_slice(&(self.terms.len() as u32).to_le_bytes());
        for t in &self.terms {
            let t = t.as_ref();
            out.extend_from_slice(&(t.len() as u32).to_le_bytes());
            out.extend_from_slice(t.as_bytes());
        }
        out.extend_from_slice(&self.n_triples.to_le_bytes());
        for col in &self.cols {
            out.extend_from_slice(&(col.len() as u64).to_le_bytes());
            for &(v, n) in col {
                out.extend_from_slice(&v.to_le_bytes());
                out.extend_from_slice(&n.to_le_bytes());
            }
        }
        let mut crc = Crc32::new();
        crc.update(&out);
        out.extend_from_slice(&crc.finish().to_le_bytes());
        out
    }
}

/// A bounds-checked little-endian reader over a snapshot body.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.at.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }
}

/// Decodes a snapshot image, verifying the trailing checksum over the
/// entire body **first**. Total: any input yields a [`SnapshotData`] or
/// a typed [`SnapshotError`], never a panic.
pub fn decode(bytes: &[u8]) -> Result<SnapshotData, SnapshotError> {
    if bytes.len() < 4 {
        return Err(SnapshotError::Truncated);
    }
    let (body, tail) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(tail.try_into().unwrap());
    if crc32(body) != stored {
        return Err(SnapshotError::Checksum);
    }
    let mut c = Cursor { bytes: body, at: 0 };
    if c.take(4)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = c.u32()?;
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let last_seq = c.u64()?;
    let n_terms = c.u32()? as usize;
    // Guard counts against the remaining bytes before allocating, so a
    // hand-crafted image cannot request an absurd reservation.
    if n_terms.checked_mul(4).is_none_or(|b| b > c.remaining()) {
        return Err(SnapshotError::Truncated);
    }
    let mut terms = Vec::with_capacity(n_terms);
    for _ in 0..n_terms {
        let len = c.u32()? as usize;
        let raw = c.take(len)?;
        let term = std::str::from_utf8(raw)
            .map_err(|_| SnapshotError::Malformed("term is not UTF-8".into()))?;
        terms.push(term.to_string());
    }
    let n_triples = c.u64()?;
    let mut cols: [Vec<(u64, u64)>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for col in &mut cols {
        let n_runs = c.u64()? as usize;
        if n_runs.checked_mul(16).is_none_or(|b| b > c.remaining()) {
            return Err(SnapshotError::Truncated);
        }
        col.reserve(n_runs);
        let mut total: u64 = 0;
        for _ in 0..n_runs {
            let v = c.u64()?;
            let n = c.u64()?;
            if n == 0 {
                return Err(SnapshotError::Malformed("zero-length run".into()));
            }
            total = total
                .checked_add(n)
                .ok_or_else(|| SnapshotError::Malformed("run lengths overflow".into()))?;
            col.push((v, n));
        }
        if total != n_triples {
            return Err(SnapshotError::Malformed(
                "column run lengths do not sum to the triple count".into(),
            ));
        }
    }
    if c.remaining() != 0 {
        return Err(SnapshotError::Malformed("trailing bytes".into()));
    }
    Ok(SnapshotData {
        last_seq,
        terms,
        n_triples,
        cols,
    })
}

/// Publishes `snap` into `dir` via the temp-file + verify + atomic-rename
/// protocol described in the module docs. Returns the snapshot's encoded
/// size in bytes. On any error — injected or real — the previously
/// published snapshot (if any) is untouched.
pub fn write_snapshot<T: AsRef<str>>(
    dir: &Path,
    snap: &SnapshotData<T>,
    faults: &Arc<FaultState>,
    stats: Option<Arc<AtomicIoStats>>,
) -> io::Result<u64> {
    let bytes = snap.encode();
    let tmp = dir.join(SNAPSHOT_TMP);
    let live = dir.join(SNAPSHOT_FILE);
    {
        let mut f = DurableFile::create(&tmp, faults.clone())?;
        if let Some(stats) = stats {
            f.set_stats(stats);
        }
        f.write_all(&bytes)?;
        f.sync()?;
    }
    // Read the temp file back and fully re-decode it: a silently
    // corrupted write must be caught *before* the rename makes it live.
    let back = std::fs::read(&tmp)?;
    if back != bytes {
        return Err(io::Error::other(
            "snapshot verification failed: written bytes differ",
        ));
    }
    decode(&back).map_err(|e| io::Error::other(format!("snapshot verification failed: {e}")))?;
    fault::rename(faults, &tmp, &live)?;
    // Make the rename itself durable where the platform supports
    // fsync-on-directory; best-effort by design (the rename is already
    // atomic, this only narrows the window in which it could be lost).
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(bytes.len() as u64)
}

/// Loads the published snapshot from `dir`. `Ok(None)` if none has ever
/// been published; a typed error if one exists but fails verification.
pub fn read_snapshot(dir: &Path) -> Result<Option<(SnapshotData, u64)>, SnapshotError> {
    let path = dir.join(SNAPSHOT_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(SnapshotError::Io(e.to_string())),
    };
    let snap = decode(&bytes)?;
    Ok(Some((snap, bytes.len() as u64)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "swans-snap-{}-{}-{}",
            tag,
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    fn random_snapshot(rng: &mut Rng) -> SnapshotData {
        let n_terms = (rng.next() % 20) as usize + 1;
        let terms: Vec<String> = (0..n_terms).map(|i| format!("<term/{i}>")).collect();
        let n_rows = (rng.next() % 40) as usize;
        let mut rows: Vec<[u64; 3]> = (0..n_rows)
            .map(|_| {
                [
                    rng.next() % n_terms as u64,
                    rng.next() % 4, // few properties => real runs
                    rng.next() % n_terms as u64,
                ]
            })
            .collect();
        rows.sort_unstable();
        rows.dedup();
        SnapshotData::from_rows(rng.next() % 100, terms, &rows)
    }

    #[test]
    fn round_trip_random_snapshots() {
        let mut rng = Rng(0x5EED_0101);
        for _ in 0..40 {
            let snap = random_snapshot(&mut rng);
            let decoded = decode(&snap.encode()).expect("round trip");
            assert_eq!(decoded, snap);
            // And the row expansion inverts from_rows.
            let rows = decoded.rows();
            assert_eq!(rows.len() as u64, snap.n_triples);
            assert_eq!(
                SnapshotData::from_rows(snap.last_seq, snap.terms.clone(), &rows),
                snap
            );
        }
    }

    /// Every single-bit corruption of an encoded snapshot is rejected by
    /// the up-front checksum — the typed error, never a panic, and never
    /// a successfully decoded mutant.
    #[test]
    fn single_bit_corruption_is_always_rejected() {
        let mut rng = Rng(0xBAD_5EED);
        let snap = random_snapshot(&mut rng);
        let bytes = snap.encode();
        for bit in 0..bytes.len() * 8 {
            let mut copy = bytes.clone();
            copy[bit / 8] ^= 1 << (bit % 8);
            match decode(&copy) {
                Err(SnapshotError::Checksum) => {}
                other => panic!("flip of bit {bit}: expected checksum error, got {other:?}"),
            }
        }
    }

    /// Truncation at every length is a typed rejection.
    #[test]
    fn truncation_is_always_rejected() {
        let mut rng = Rng(0x7472_756E);
        let snap = random_snapshot(&mut rng);
        let bytes = snap.encode();
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    /// Structural validation still runs behind a valid CRC: re-checksummed
    /// hand-crafted mutants get Malformed/BadMagic/BadVersion, not a panic.
    #[test]
    fn crc_valid_but_malformed_images_are_rejected() {
        let reseal = |mut body: Vec<u8>| {
            let crc = crc32(&body);
            body.extend_from_slice(&crc.to_le_bytes());
            body
        };
        let snap = SnapshotData::from_rows(7, vec!["a".to_string()], &[[0, 0, 0]]);
        let mut encoded = snap.encode();
        encoded.truncate(encoded.len() - 4); // drop CRC => raw body

        let mut bad_magic = encoded.clone();
        bad_magic[0] = b'X';
        assert_eq!(decode(&reseal(bad_magic)), Err(SnapshotError::BadMagic));

        let mut bad_version = encoded.clone();
        bad_version[4] = 99;
        assert_eq!(
            decode(&reseal(bad_version)),
            Err(SnapshotError::BadVersion(99))
        );

        let mut trailing = encoded.clone();
        trailing.push(0);
        assert!(matches!(
            decode(&reseal(trailing)),
            Err(SnapshotError::Malformed(_))
        ));

        // A run-length sum that disagrees with n_triples: bump n_triples.
        let mut bad_sum = encoded.clone();
        let n_triples_at = 4 + 4 + 8 + 4 + 4 + 1; // magic, ver, seq, n_terms, len, "a"
        bad_sum[n_triples_at] = 2; // n_triples: 1 -> 2
        assert!(matches!(
            decode(&reseal(bad_sum)),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    #[cfg_attr(miri, ignore)] // real file I/O
    fn publish_and_read_back() {
        let dir = scratch("publish");
        assert_eq!(read_snapshot(&dir), Ok(None));
        let snap = SnapshotData::from_rows(
            3,
            vec!["s".into(), "p".into(), "o".into()],
            &[[0, 1, 2], [0, 1, 0]],
        );
        let bytes = write_snapshot(&dir, &snap, &FaultState::new(), None).unwrap();
        let (back, read_bytes) = read_snapshot(&dir).unwrap().expect("published");
        assert_eq!(back, snap);
        assert_eq!(bytes, read_bytes);
        assert!(!dir.join(SNAPSHOT_TMP).exists(), "temp file cleaned up");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn a_failed_publication_preserves_the_old_snapshot() {
        use crate::fault::{FaultKind, FaultPolicy};
        let dir = scratch("preserve");
        let old = SnapshotData::from_rows(1, vec!["old".into()], &[[0, 0, 0]]);
        write_snapshot(&dir, &old, &FaultState::new(), None).unwrap();
        let new = SnapshotData::from_rows(2, vec!["old".into(), "new".into()], &[[1, 1, 1]]);
        // Sweep a crash over every faultable op of the publication
        // (tmp write, tmp sync, rename): the old snapshot must survive.
        for at_op in 0..3 {
            let faults = FaultState::new();
            faults.arm(FaultPolicy {
                at_op,
                kind: FaultKind::CrashBefore,
            });
            assert!(
                write_snapshot(&dir, &new, &faults, None).is_err(),
                "op {at_op} did not fault"
            );
            let (back, _) = read_snapshot(&dir).unwrap().expect("still published");
            assert_eq!(back, old, "crash at op {at_op} damaged the live snapshot");
        }
        // Silent corruption of the tmp write is caught by the read-back
        // verification, again leaving the old snapshot live.
        let faults = FaultState::new();
        faults.arm(FaultPolicy {
            at_op: 0,
            kind: FaultKind::FlipBit { bit: 123 },
        });
        assert!(write_snapshot(&dir, &new, &faults, None).is_err());
        let (back, _) = read_snapshot(&dir).unwrap().expect("still published");
        assert_eq!(back, old);
        // And with no fault armed the new snapshot replaces the old.
        write_snapshot(&dir, &new, &FaultState::new(), None).unwrap();
        let (back, _) = read_snapshot(&dir).unwrap().unwrap();
        assert_eq!(back, new);
        let _ = std::fs::remove_dir_all(dir);
    }
}
