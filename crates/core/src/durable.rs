//! The durability layer behind [`Database::open_at`](crate::Database::open_at):
//! write-ahead logging, checkpointing, and recovery.
//!
//! Durability lives *above* the engine seam on purpose. The engines run
//! against the simulated disk (whose bytes model cost and cannot survive
//! a restart), and every engine loads from the same logical
//! [`Dataset`] — so one engine-agnostic on-disk format (the dictionary +
//! the triple multiset) makes a durable directory reopenable under any
//! engine × layout configuration, including third-party engines.
//!
//! ## Commit protocol
//!
//! Every mutation batch becomes one WAL record *before* it touches the
//! engine or the dataset:
//!
//! 1. encode the batch: the dictionary terms it introduced (everything
//!    past the durable watermark) followed by the [`Delta`] image;
//! 2. append it to the checksummed WAL ([`swans_storage::wal`]) — under
//!    the default [`DurabilityOptions`] the record is read back,
//!    verified and fsynced before the append returns;
//! 3. only then apply the batch in memory and acknowledge the caller.
//!
//! A batch whose append errored was **not** acknowledged: recovery is
//! free to keep it (the record may have reached disk) or drop it (it may
//! not have) — but never to half-apply it, because replay applies whole
//! records only.
//!
//! ## The dictionary watermark
//!
//! Term interning happens before the WAL append (encoding the delta
//! requires ids), so a *failed* batch can leave terms in the in-memory
//! dictionary that no durable record mentions. Logging "terms new since
//! the last *successful* append" (the `durable_dict_len` watermark)
//! instead of "terms this batch interned" makes the next successful
//! record carry those orphans too, keeping replayed dictionaries dense
//! and id-aligned with the live one.
//!
//! ## Checkpoints
//!
//! [`Durable::checkpoint`] snapshots the full dataset (RLE-compressed,
//! via [`swans_storage::snapshot`]'s temp-file + verify + atomic-rename
//! protocol) and then truncates the WAL. A crash between those two steps
//! is benign: recovery skips WAL records whose sequence number the
//! snapshot already covers.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use swans_rdf::{Dataset, Delta, Dictionary, Id, Triple};
use swans_storage::fault::FaultState;
use swans_storage::snapshot::{read_snapshot, write_snapshot, SnapshotData};
use swans_storage::wal::{WalOptions, WalTail, WalWriter, WAL_FILE};
use swans_storage::AtomicIoStats;

use crate::error::Error;

/// Policy knobs for a durable database.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Fsync every WAL append before acknowledging it (default `true`).
    /// Off, a crash may lose a *suffix* of acknowledged batches — it
    /// still never tears one.
    pub sync_on_commit: bool,
    /// Read back and verify every WAL append before acknowledging it
    /// (default `true`): silent write corruption is caught while the
    /// record can still be rolled back.
    pub verify_appends: bool,
    /// Checkpoint automatically once this many operations (delta
    /// inserts plus deletes) have been logged since the last checkpoint. `None`
    /// (default): checkpoint only on [`Database::merge`] /
    /// [`Database::checkpoint`] and engine-initiated merges.
    ///
    /// [`Database::merge`]: crate::Database::merge
    /// [`Database::checkpoint`]: crate::Database::checkpoint
    pub checkpoint_ops: Option<usize>,
    /// Fault-injection state shared with the test harness. `None`
    /// (default) runs fault-free.
    pub faults: Option<Arc<FaultState>>,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        Self {
            sync_on_commit: true,
            verify_appends: true,
            checkpoint_ops: None,
            faults: None,
        }
    }
}

/// What [`Durable::open`] found on disk and did about it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Triples restored from the snapshot (0 when none was published).
    pub snapshot_triples: u64,
    /// Encoded size of the snapshot that was loaded, in bytes.
    pub snapshot_bytes: u64,
    /// WAL batches replayed on top of the snapshot.
    pub replayed_batches: u64,
    /// Total operations (inserts + deletes) those batches carried.
    pub replayed_ops: u64,
    /// Whether the WAL ended in a torn/corrupt record that recovery
    /// truncated (the clean-end-of-log case, not an error).
    pub wal_tail_torn: bool,
    /// Valid WAL bytes found on disk (before any truncation of the tail).
    pub wal_bytes: u64,
}

/// Serializes one commit: the dictionary terms introduced since the
/// durable watermark, then the delta image.
fn encode_batch(dict: &Dictionary, from: usize, delta: &Delta) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&((dict.len() - from) as u32).to_le_bytes());
    for (_, term) in dict.terms_from(from as Id) {
        out.extend_from_slice(&(term.len() as u32).to_le_bytes());
        out.extend_from_slice(term.as_bytes());
    }
    out.extend_from_slice(&delta.to_bytes());
    out
}

/// Decodes a batch payload back into its new terms and delta. Total:
/// corrupt payloads (only reachable if something behind the WAL checksum
/// went wrong) are typed errors, never panics.
fn decode_batch(bytes: &[u8]) -> Result<(Vec<String>, Delta), String> {
    if bytes.len() < 4 {
        return Err("batch truncated before term count".into());
    }
    let n_terms = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    let mut at = 4usize;
    let mut terms = Vec::new();
    for i in 0..n_terms {
        if bytes.len() - at < 4 {
            return Err(format!("batch truncated at term {i}"));
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        at += 4;
        if bytes.len() - at < len {
            return Err(format!("batch truncated inside term {i}"));
        }
        let term = std::str::from_utf8(&bytes[at..at + len])
            .map_err(|_| format!("term {i} is not UTF-8"))?;
        terms.push(term.to_string());
        at += len;
    }
    let delta = Delta::from_bytes(&bytes[at..]).map_err(|e| e.to_string())?;
    Ok((terms, delta))
}

/// The durable state of one [`Database`](crate::Database): its directory,
/// the WAL writer, and the bookkeeping that decides what the next record
/// and the next checkpoint must contain.
pub struct Durable {
    dir: PathBuf,
    wal: WalWriter,
    faults: Arc<FaultState>,
    stats: Option<Arc<AtomicIoStats>>,
    checkpoint_ops: Option<usize>,
    /// Dictionary length covered by durable state (snapshot + acked WAL
    /// records): the next record logs terms from here up.
    durable_dict_len: usize,
    /// Operations logged since the last checkpoint.
    ops_since_checkpoint: usize,
    /// Engine merge count at the last checkpoint, so the front door can
    /// detect threshold-triggered merges and re-checkpoint.
    pub(crate) engine_merges: u64,
    last_snapshot_bytes: u64,
    report: RecoveryReport,
}

impl std::fmt::Debug for Durable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Durable")
            .field("dir", &self.dir)
            .field("next_seq", &self.wal.next_seq())
            .field("wal_bytes", &self.wal.len_bytes())
            .field("durable_dict_len", &self.durable_dict_len)
            .finish_non_exhaustive()
    }
}

impl Durable {
    /// Opens (or initializes) the durable directory at `dir` and returns
    /// the recovered dataset: last valid snapshot + replayed WAL tail. A
    /// torn or checksum-failing tail record ends replay cleanly; it is
    /// truncated and noted in the [`RecoveryReport`], never an error.
    pub fn open(dir: &Path, options: DurabilityOptions) -> Result<(Dataset, Durable), Error> {
        std::fs::create_dir_all(dir)?;
        let faults = options.faults.unwrap_or_default();

        let mut report = RecoveryReport::default();
        let mut dataset = Dataset::new();
        let mut base_seq = 0;
        if let Some((snap, bytes)) = read_snapshot(dir).map_err(|e| Error::Io(e.to_string()))? {
            report.snapshot_triples = snap.n_triples;
            report.snapshot_bytes = bytes;
            base_seq = snap.last_seq;
            dataset.dict = Dictionary::with_capacity(snap.terms.len());
            for term in &snap.terms {
                dataset.dict.intern(term);
            }
            let rows = snap.rows().into_iter();
            dataset.triples = rows.map(|[s, p, o]| Triple::new(s, p, o)).collect();
        }

        let wal_opts = WalOptions {
            sync_on_commit: options.sync_on_commit,
            verify_appends: options.verify_appends,
        };
        let (records, tail, wal) =
            WalWriter::recover(&dir.join(WAL_FILE), faults.clone(), wal_opts, base_seq)?;
        report.wal_tail_torn = !tail.is_clean();
        if let WalTail::Torn { valid_bytes, .. } = tail {
            report.wal_bytes = valid_bytes;
        } else {
            report.wal_bytes = wal.len_bytes();
        }
        for record in records {
            if record.seq <= base_seq {
                continue; // the snapshot already contains this batch
            }
            let (terms, delta) = decode_batch(&record.payload).map_err(|m| {
                Error::Io(format!(
                    "WAL record {} is not a valid batch: {m}",
                    record.seq
                ))
            })?;
            for term in &terms {
                dataset.dict.intern(term);
            }
            dataset.apply(&delta);
            report.replayed_batches += 1;
            report.replayed_ops += delta.len() as u64;
        }

        let durable = Durable {
            dir: dir.to_path_buf(),
            wal,
            faults,
            stats: None,
            checkpoint_ops: options.checkpoint_ops,
            durable_dict_len: dataset.dict.len(),
            ops_since_checkpoint: report.replayed_ops as usize,
            engine_merges: 0,
            last_snapshot_bytes: report.snapshot_bytes,
            report,
        };
        Ok((dataset, durable))
    }

    /// Attaches the store's accounting sink so durable fsyncs land in the
    /// same [`IoStats`](swans_storage::IoStats) window as the simulated
    /// traffic.
    pub(crate) fn set_stats(&mut self, stats: Arc<AtomicIoStats>) {
        self.wal.set_stats(stats.clone());
        self.stats = Some(stats);
    }

    /// The durable directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// How the last [`Durable::open`] recovered.
    pub fn report(&self) -> &RecoveryReport {
        &self.report
    }

    /// Current WAL length in bytes.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.len_bytes()
    }

    /// Encoded size of the most recent snapshot (0 if none exists yet).
    pub fn snapshot_bytes(&self) -> u64 {
        self.last_snapshot_bytes
    }

    /// Logs one batch ahead of its in-memory application. `dict` is the
    /// live dictionary *after* the batch's terms were interned; every
    /// term past the durable watermark rides along in the record. On
    /// `Ok`, the batch is acknowledged and the watermark advances.
    pub fn append_batch(&mut self, dict: &Dictionary, delta: &Delta) -> Result<u64, Error> {
        let payload = encode_batch(dict, self.durable_dict_len, delta);
        let seq = self
            .wal
            .append(&payload)
            .map_err(|e| Error::Io(format!("WAL append failed: {e}")))?;
        self.durable_dict_len = dict.len();
        self.ops_since_checkpoint += delta.len();
        Ok(seq)
    }

    /// True once enough operations accumulated that the configured
    /// auto-checkpoint policy asks for one.
    pub fn wants_checkpoint(&self) -> bool {
        self.checkpoint_ops
            .is_some_and(|n| self.ops_since_checkpoint >= n)
    }

    /// Snapshots `dataset` (which must reflect every acknowledged batch)
    /// and truncates the WAL. Returns the snapshot's size in bytes. On
    /// error the previous snapshot and the full WAL are intact — nothing
    /// durable was given up.
    pub fn checkpoint(&mut self, dataset: &Dataset) -> Result<u64, Error> {
        let last_seq = self.wal.next_seq() - 1;
        let terms: Vec<&str> = dataset.dict.iter().map(|(_, t)| t).collect();
        let mut rows: Vec<[u64; 3]> = dataset.triples.iter().map(|t| t.as_row()).collect();
        rows.sort_unstable();
        let snap = SnapshotData::from_rows(last_seq, terms, &rows);
        let bytes = write_snapshot(&self.dir, &snap, &self.faults, self.stats.clone())
            .map_err(|e| Error::Io(format!("checkpoint failed: {e}")))?;
        // The snapshot is live. Truncating the now-redundant WAL may still
        // fail (or crash); recovery handles that by skipping records the
        // snapshot covers, so an error here loses no data either way.
        self.wal
            .truncate()
            .map_err(|e| Error::Io(format!("WAL truncate after checkpoint failed: {e}")))?;
        self.durable_dict_len = dataset.dict.len();
        self.ops_since_checkpoint = 0;
        self.last_snapshot_bytes = bytes;
        Ok(bytes)
    }

    /// Initializes a fresh durable directory from an existing dataset: an
    /// immediate checkpoint, so the import is durable before the database
    /// opens. Fails if `dir` already holds a durable database.
    pub fn create_from(
        dir: &Path,
        dataset: &Dataset,
        options: DurabilityOptions,
    ) -> Result<Durable, Error> {
        std::fs::create_dir_all(dir)?;
        if dir.join(swans_storage::SNAPSHOT_FILE).exists() || dir.join(WAL_FILE).exists() {
            return Err(Error::Io(format!(
                "refusing to import over an existing durable database at {}",
                dir.display()
            )));
        }
        let faults = options.faults.unwrap_or_default();
        let wal_opts = WalOptions {
            sync_on_commit: options.sync_on_commit,
            verify_appends: options.verify_appends,
        };
        let (_, _, wal) = WalWriter::recover(&dir.join(WAL_FILE), faults.clone(), wal_opts, 0)?;
        let mut durable = Durable {
            dir: dir.to_path_buf(),
            wal,
            faults,
            stats: None,
            checkpoint_ops: options.checkpoint_ops,
            durable_dict_len: 0,
            ops_since_checkpoint: 0,
            engine_merges: 0,
            last_snapshot_bytes: 0,
            report: RecoveryReport::default(),
        };
        durable.checkpoint(dataset)?;
        Ok(durable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use swans_rdf::Triple;

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "swans-durable-{}-{}-{}",
            tag,
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn batch_codec_round_trips() {
        let mut dict = Dictionary::new();
        dict.intern("<old>");
        let watermark = dict.len();
        dict.intern("<s>");
        dict.intern("<p>");
        let mut delta = Delta::new();
        delta
            .insert(Triple::new(1, 2, 0))
            .delete(Triple::new(0, 0, 0));
        let payload = encode_batch(&dict, watermark, &delta);
        let (terms, back) = decode_batch(&payload).expect("round trip");
        assert_eq!(terms, vec!["<s>".to_string(), "<p>".to_string()]);
        assert_eq!(back, delta);
    }

    #[test]
    fn batch_codec_rejects_any_truncation() {
        let mut dict = Dictionary::new();
        dict.intern("<s>");
        let mut delta = Delta::new();
        delta.insert(Triple::new(0, 0, 0));
        let payload = encode_batch(&dict, 0, &delta);
        for cut in 0..payload.len() {
            assert!(decode_batch(&payload[..cut]).is_err(), "cut at {cut}");
        }
        let mut long = payload;
        long.push(7);
        assert!(decode_batch(&long).is_err(), "trailing byte accepted");
    }

    #[test]
    #[cfg_attr(miri, ignore)] // real file I/O
    fn open_append_reopen_replays_acknowledged_batches() {
        let dir = scratch("replay");
        let opts = DurabilityOptions::default();
        {
            let (mut ds, mut durable) = Durable::open(&dir, opts.clone()).expect("fresh open");
            assert!(ds.is_empty());
            let t = ds.encode("<s1>", "<p>", "<o1>");
            let delta = Delta::of_inserts(vec![t]);
            durable.append_batch(&ds.dict, &delta).expect("acked");
            ds.apply(&delta);
            let t2 = ds.encode("<s2>", "<p>", "<o2>");
            let delta2 = Delta::of_inserts(vec![t2]);
            durable.append_batch(&ds.dict, &delta2).expect("acked");
            ds.apply(&delta2);
        }
        let (ds, durable) = Durable::open(&dir, opts).expect("reopen");
        assert_eq!(durable.report().replayed_batches, 2);
        assert_eq!(durable.report().replayed_ops, 2);
        assert_eq!(durable.report().snapshot_triples, 0);
        assert_eq!(ds.len(), 2);
        assert!(ds.try_encode("<s1>", "<p>", "<o1>").is_some());
        assert!(ds.try_encode("<s2>", "<p>", "<o2>").is_some());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn checkpoint_truncates_the_wal_and_survives_reopen() {
        let dir = scratch("checkpoint");
        let opts = DurabilityOptions::default();
        {
            let (mut ds, mut durable) = Durable::open(&dir, opts.clone()).expect("fresh open");
            let t = ds.encode("<s1>", "<p>", "<o1>");
            let delta = Delta::of_inserts(vec![t]);
            durable.append_batch(&ds.dict, &delta).expect("acked");
            ds.apply(&delta);
            assert!(durable.wal_bytes() > 0);
            let snap_bytes = durable.checkpoint(&ds).expect("checkpoints");
            assert!(snap_bytes > 0);
            assert_eq!(durable.wal_bytes(), 0, "checkpoint empties the WAL");
            // Post-checkpoint appends continue the sequence.
            let t2 = ds.encode("<s2>", "<p>", "<o2>");
            let delta2 = Delta::of_inserts(vec![t2]);
            assert_eq!(durable.append_batch(&ds.dict, &delta2).expect("acked"), 2);
            ds.apply(&delta2);
        }
        let (ds, durable) = Durable::open(&dir, opts).expect("reopen");
        assert_eq!(durable.report().snapshot_triples, 1);
        assert_eq!(
            durable.report().replayed_batches,
            1,
            "only the tail replays"
        );
        assert_eq!(ds.len(), 2);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn orphaned_terms_of_failed_batches_replay_through_the_watermark() {
        use swans_storage::{FaultKind, FaultPolicy};
        let dir = scratch("watermark");
        let faults = FaultState::new();
        let opts = DurabilityOptions {
            faults: Some(faults.clone()),
            ..DurabilityOptions::default()
        };
        let (mut ds, mut durable) = Durable::open(&dir, opts).expect("fresh open");
        // Batch 1 interns terms, then its append is refused (injected
        // error — the process survives, the batch is unacknowledged).
        let t1 = ds.encode("<orphan-s>", "<p>", "<o>");
        faults.arm(FaultPolicy {
            at_op: faults.ops(),
            kind: FaultKind::Error,
        });
        assert!(durable
            .append_batch(&ds.dict, &Delta::of_inserts(vec![t1]))
            .is_err());
        faults.disarm();
        // Batch 2 succeeds; its record must carry the orphaned terms so
        // replay interning stays dense.
        let t2 = ds.encode("<s2>", "<p>", "<o2>");
        let delta2 = Delta::of_inserts(vec![t2]);
        durable.append_batch(&ds.dict, &delta2).expect("acked");
        ds.apply(&delta2);
        drop(durable);
        let (back, _) = Durable::open(&dir, DurabilityOptions::default()).expect("reopen");
        // The orphan terms exist with their original ids; the orphan
        // *triple* does not (its batch was never acknowledged).
        assert_eq!(back.dict.len(), ds.dict.len());
        assert_eq!(back.dict.id_of("<orphan-s>"), ds.dict.id_of("<orphan-s>"));
        assert_eq!(back.len(), 1);
        assert_eq!(back.try_encode("<s2>", "<p>", "<o2>"), Some(t2));
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A checkpoint encodes borrowed terms; the file holds exactly the
    /// bytes an owned copy of every term would have encoded.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn checkpoint_writes_the_bytes_of_an_owned_encoding() {
        let dir = scratch("bytes");
        let mut ds = Dataset::new();
        for i in 0..50 {
            ds.add(&format!("<s{}>", i % 7), "<p>", &format!("\"o{i}\""));
            if i % 9 == 0 {
                ds.dict.seal();
            }
        }
        let durable = Durable::create_from(&dir, &ds, DurabilityOptions::default()).unwrap();
        let terms: Vec<String> = ds.dict.iter().map(|(_, t)| t.to_string()).collect();
        let mut rows: Vec<[u64; 3]> = ds.triples.iter().map(|t| t.as_row()).collect();
        rows.sort_unstable();
        let owned = SnapshotData::from_rows(0, terms, &rows).encode();
        let written = std::fs::read(dir.join(swans_storage::SNAPSHOT_FILE)).unwrap();
        assert_eq!(written, owned);
        assert_eq!(durable.snapshot_bytes(), owned.len() as u64);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn create_from_imports_and_refuses_to_overwrite() {
        let dir = scratch("import");
        let mut ds = Dataset::new();
        ds.add("<s>", "<p>", "<o>");
        let opts = DurabilityOptions::default();
        let durable = Durable::create_from(&dir, &ds, opts.clone()).expect("imports");
        assert!(durable.snapshot_bytes() > 0);
        drop(durable);
        assert!(matches!(
            Durable::create_from(&dir, &ds, opts.clone()),
            Err(Error::Io(_))
        ));
        let (back, durable) = Durable::open(&dir, opts).expect("reopen");
        assert_eq!(back.len(), 1);
        assert_eq!(durable.report().snapshot_triples, 1);
        let _ = std::fs::remove_dir_all(dir);
    }
}
