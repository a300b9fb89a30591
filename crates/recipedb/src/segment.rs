//! The import log: durable, size-rotated segment files of `CWAL1`
//! records.
//!
//! [`SegmentedLog`] is the one import log. Records are appended to an
//! *open segment file* in the [`crate::wal`] record framing, fsynced
//! under a configurable [`FsyncPolicy`], and rotated into sealed
//! segments once the open one crosses a size threshold.
//! [`SegmentedLog::append_batch`] is the only way to write records, so
//! the log is always a transcript of exactly what the importer saw.
//! Because appends only ever extend a file, a crash leaves at worst a
//! torn tail on the last segment, which [`SegmentedLog::open`]
//! truncates back to the last checksum-valid record boundary: a
//! shorter valid prefix, never a rewritten one.
//!
//! # Directory grammar
//!
//! ```text
//! dir/MANIFEST            first line "CWALM1", then one segment file
//!                         name per line, oldest first; the last listed
//!                         segment is the open (append) segment
//! dir/seg-NNNNNN.cwal     a complete CWAL1 image (16-byte header +
//!                         records), NNNNNN a monotonically increasing
//!                         decimal index
//! ```
//!
//! The manifest is the commit point: it is replaced atomically (write
//! `MANIFEST.tmp`, fsync, rename over `MANIFEST`, fsync the directory),
//! so readers always see a complete segment list. Segment files are
//! created and fsynced *before* the manifest names them; a crash
//! between the two leaves an unreferenced orphan file that recovery
//! counts and rotation later overwrites. Sealed segments must decode
//! fully (corruption there is reported, not repaired); only the open
//! segment's records are scanned leniently for a torn tail. Its 16-byte
//! header is fsynced before any manifest names the segment, so only a
//! header cut short is a torn write: a whole but wrong header is
//! corruption, reported like a sealed segment's. A directory with no
//! manifest starts a new log only when no segment file in it holds
//! more than a header, so a lost manifest never costs records.

// User-reachable durability surface: panicking on bad data or I/O
// weather is forbidden here — return errors instead.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use culinaria_flavordb::FlavorDb;
use culinaria_stats::fault;

use crate::error::Result;
use crate::import::{ImportStats, Importer, RawRecipe};
use crate::store::RecipeStore;
use crate::wal::{
    self, check_header, decode, encode_record, header_bytes, replay_records, scan_valid_prefix,
    WalRecord, HEADER_LEN,
};

/// Manifest file name inside a segment directory.
pub const MANIFEST: &str = "MANIFEST";
/// First line of a valid manifest.
pub const MANIFEST_MAGIC: &str = "CWALM1";

/// When the open segment is fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every appended record. Slowest, smallest loss window
    /// (at most the record being appended at the crash).
    Always,
    /// fsync once per [`SegmentedLog::append_batch`] (and on explicit
    /// [`SegmentedLog::sync`]). The default: one fsync per ingest batch.
    Batch,
    /// Never fsync on the append path; the OS flushes on its schedule.
    /// [`SegmentedLog::sync`] and segment seals still sync.
    Off,
}

impl FsyncPolicy {
    /// The CLI spelling (`--fsync always|batch|off`).
    pub fn as_str(&self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Batch => "batch",
            FsyncPolicy::Off => "off",
        }
    }
}

impl FromStr for FsyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "batch" => Ok(FsyncPolicy::Batch),
            "off" => Ok(FsyncPolicy::Off),
            other => Err(format!(
                "unknown fsync policy '{other}' (expected always|batch|off)"
            )),
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What [`SegmentedLog::open`] found and repaired.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segments listed in the manifest (including the open one).
    pub segments: usize,
    /// Records decoded across all segments.
    pub records: usize,
    /// Bytes cut off the open segment's torn tail (0 = clean open).
    pub truncated_bytes: u64,
    /// `seg-*.cwal` files on disk that no manifest references — the
    /// residue of a crash between segment creation and manifest rename.
    pub orphans: usize,
}

impl RecoveryReport {
    /// True when open had to repair a torn tail.
    pub fn recovered(&self) -> bool {
        self.truncated_bytes > 0
    }
}

/// The import log: a directory of size-rotated CWAL1 segments. See the
/// module docs for the on-disk grammar and crash-consistency argument.
#[derive(Debug)]
pub struct SegmentedLog {
    dir: PathBuf,
    policy: FsyncPolicy,
    segment_bytes: u64,
    segment_names: Vec<String>,
    next_index: u64,
    open: File,
    open_len: u64,
    records: Vec<WalRecord>,
    dirty: bool,
    recovery: RecoveryReport,
}

fn segment_name(index: u64) -> String {
    format!("seg-{index:06}.cwal")
}

fn parse_segment_index(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".cwal")?
        .parse()
        .ok()
}

fn iow(ctx: impl std::fmt::Display, e: std::io::Error) -> crate::error::RecipeDbError {
    wal::err(format!("{ctx}: {e}"))
}

/// The `seg-*.cwal` file names in `dir`, sorted.
fn segment_files(dir: &Path) -> Result<Vec<String>> {
    let list = |e| iow(format!("list {}", dir.display()), e);
    let mut names = Vec::new();
    for entry in fs::read_dir(dir).map_err(list)? {
        let name = entry.map_err(list)?.file_name();
        let name = name.to_string_lossy();
        if parse_segment_index(&name).is_some() {
            names.push(name.into_owned());
        }
    }
    names.sort();
    Ok(names)
}

/// fsync a directory so a rename inside it is durable.
fn sync_dir(dir: &Path) -> Result<()> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| iow(format!("fsync dir {}", dir.display()), e))
}

fn write_manifest(dir: &Path, names: &[String]) -> Result<()> {
    let mut text = String::with_capacity(64);
    text.push_str(MANIFEST_MAGIC);
    text.push('\n');
    for name in names {
        text.push_str(name);
        text.push('\n');
    }
    let tmp = dir.join("MANIFEST.tmp");
    let mut f = File::create(&tmp).map_err(|e| iow(format!("create {}", tmp.display()), e))?;
    f.write_all(text.as_bytes())
        .and_then(|()| f.sync_all())
        .map_err(|e| iow(format!("write {}", tmp.display()), e))?;
    drop(f);
    fs::rename(&tmp, dir.join(MANIFEST)).map_err(|e| iow("rename manifest", e))?;
    sync_dir(dir)
}

impl SegmentedLog {
    /// Open (or initialize) a segment directory.
    ///
    /// A missing directory, or one with no manifest and no segment file
    /// longer than a bare header, initializes a fresh log with one empty
    /// open segment. An existing manifest is read, every sealed segment
    /// is strictly decoded, and the open (last) segment's records are
    /// scanned leniently: a torn tail — the residue of a crash between
    /// fsyncs — is truncated back to the last checksum-valid record
    /// boundary and reported in [`SegmentedLog::recovery`], as is an
    /// open segment shorter than its 16-byte header, which is reset.
    ///
    /// `segment_bytes` is the rotation threshold (an append that pushes
    /// the open segment to or past it seals the segment); `0` disables
    /// rotation.
    ///
    /// # Errors
    /// [`RecipeDbError::Wal`](crate::RecipeDbError::Wal) on I/O
    /// failure, a malformed manifest, corruption in a *sealed* segment
    /// (those were fully durable when sealed, so damage there is
    /// reported, never silently dropped), a whole but invalid header on
    /// the open segment, or a missing manifest beside a segment that
    /// holds records. The last three are raised before anything in the
    /// directory is written.
    pub fn open(dir: impl AsRef<Path>, policy: FsyncPolicy, segment_bytes: u64) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| iow(format!("create dir {}", dir.display()), e))?;
        let manifest_path = dir.join(MANIFEST);

        let segment_names: Vec<String> = if manifest_path.exists() {
            let text = fs::read_to_string(&manifest_path)
                .map_err(|e| iow(format!("read {}", manifest_path.display()), e))?;
            let mut lines = text.lines();
            if lines.next() != Some(MANIFEST_MAGIC) {
                return Err(wal::err(format!(
                    "bad manifest magic in {}",
                    manifest_path.display()
                )));
            }
            let names: Vec<String> = lines
                .filter(|l| !l.trim().is_empty())
                .map(str::to_owned)
                .collect();
            if names.is_empty() {
                return Err(wal::err("manifest lists no segments"));
            }
            for name in &names {
                if parse_segment_index(name).is_none() {
                    return Err(wal::err(format!("bad segment name '{name}' in manifest")));
                }
            }
            names
        } else {
            for name in segment_files(&dir)? {
                let path = dir.join(&name);
                let len = fs::metadata(&path)
                    .map_err(|e| iow(format!("stat {}", path.display()), e))?
                    .len();
                if len > HEADER_LEN as u64 {
                    return Err(wal::err(format!(
                        "{} has no {MANIFEST} but segment {name} holds {len} bytes; \
                         refusing to start a new log over it",
                        dir.display()
                    )));
                }
            }
            let name = segment_name(1);
            let path = dir.join(&name);
            let mut f =
                File::create(&path).map_err(|e| iow(format!("create {}", path.display()), e))?;
            f.write_all(&header_bytes())
                .and_then(|()| f.sync_all())
                .map_err(|e| iow(format!("init {}", path.display()), e))?;
            let names = vec![name];
            write_manifest(&dir, &names)?;
            names
        };

        let next_index = segment_names
            .iter()
            .filter_map(|n| parse_segment_index(n))
            .max()
            .unwrap_or(0)
            + 1;

        // Decode: sealed segments strictly, the open (last) one leniently.
        let mut records = Vec::new();
        let mut truncated_bytes = 0u64;
        let mut open_len = HEADER_LEN as u64;
        let last = segment_names.len() - 1;
        for (i, name) in segment_names.iter().enumerate() {
            let path = dir.join(name);
            let bytes =
                fs::read(&path).map_err(|e| iow(format!("read segment {}", path.display()), e))?;
            if i < last {
                records.extend(
                    decode(&bytes).map_err(|e| wal::err(format!("sealed segment {name}: {e}")))?,
                );
            } else if bytes.len() < HEADER_LEN {
                // A header cut short (crash during segment init): reset
                // to a fresh empty segment.
                truncated_bytes += bytes.len() as u64;
                fs::write(&path, header_bytes())
                    .map_err(|e| iow(format!("reset segment {name}"), e))?;
            } else {
                check_header(&bytes).map_err(|e| wal::err(format!("open segment {name}: {e}")))?;
                let (valid_len, recs) = scan_valid_prefix(&bytes);
                if valid_len < bytes.len() {
                    truncated_bytes += (bytes.len() - valid_len) as u64;
                    let f = OpenOptions::new()
                        .write(true)
                        .open(&path)
                        .map_err(|e| iow(format!("open segment {name}"), e))?;
                    f.set_len(valid_len as u64)
                        .and_then(|()| f.sync_all())
                        .map_err(|e| iow(format!("truncate torn tail of {name}"), e))?;
                }
                records.extend(recs);
                open_len = valid_len as u64;
            }
        }

        // Count orphan segment files (created but never named by a
        // manifest — a crash window during rotation).
        let orphans = segment_files(&dir)?
            .iter()
            .filter(|name| !segment_names.contains(name))
            .count();

        let open_path = dir.join(&segment_names[last]);
        let open = OpenOptions::new()
            .append(true)
            .open(&open_path)
            .map_err(|e| {
                iow(
                    format!("open segment {} for append", open_path.display()),
                    e,
                )
            })?;

        let recovery = RecoveryReport {
            segments: segment_names.len(),
            records: records.len(),
            truncated_bytes,
            orphans,
        };
        Ok(SegmentedLog {
            dir,
            policy,
            segment_bytes,
            segment_names,
            next_index,
            open,
            open_len,
            records,
            dirty: false,
            recovery,
        })
    }

    /// What [`SegmentedLog::open`] found and repaired.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of records (recipes + tombstones) across all segments.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records have been appended.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The decoded records in append order, across all segments.
    pub fn records(&self) -> &[WalRecord] {
        &self.records
    }

    /// Number of segments (sealed + the open one).
    pub fn n_segments(&self) -> usize {
        self.segment_names.len()
    }

    /// Segment file names in manifest (append) order.
    pub fn segment_names(&self) -> &[String] {
        &self.segment_names
    }

    /// Import a batch into `store` **and** log every offered recipe:
    /// stored recipes as [`WalRecord::Recipe`], per-recipe failures as
    /// tombstones carrying their rendered reason. This is the only way
    /// to write the log, which keeps it a transcript of exactly what
    /// the importer saw — what makes replay ≡ batch hold.
    ///
    /// A recipe whose record would exceed [`wal::MAX_PAYLOAD`] (a cap the
    /// decoder enforces) fails the whole batch first, before `store` is
    /// touched or a byte is written. Import runs next; every record is
    /// then encoded, and appends follow in batch order, each probed at
    /// `wal.segment.append` with its log-wide record index, so an
    /// append-side failure leaves the directory a valid prefix of the
    /// intended state (records land whole, in order). Under
    /// [`FsyncPolicy::Batch`] the open segment is fsynced once after the
    /// batch lands.
    ///
    /// # Errors
    /// [`RecipeDbError::Wal`](crate::RecipeDbError::Wal) naming the
    /// batch index of a recipe over the payload cap; whatever
    /// [`Importer::import_batch`] returns; an encode/I/O failure; or an
    /// injected `wal.segment.*` fault.
    pub fn append_batch(
        &mut self,
        db: &FlavorDb,
        importer: &Importer,
        store: &mut RecipeStore,
        raws: &[RawRecipe],
        n_threads: usize,
    ) -> Result<ImportStats> {
        for (i, raw) in raws.iter().enumerate() {
            wal::check_loggable(i, raw)?;
        }
        let stats = importer.import_batch(db, store, raws, n_threads)?;
        let mut reasons: HashMap<usize, String> = stats
            .failures
            .iter()
            .map(|f| (f.index, f.reason.to_string()))
            .collect();
        let records: Vec<WalRecord> = raws
            .iter()
            .enumerate()
            .map(|(i, raw)| {
                let raw = raw.clone();
                match reasons.remove(&i) {
                    Some(reason) => WalRecord::Tombstone { raw, reason },
                    None => WalRecord::Recipe(raw),
                }
            })
            .collect();
        let frames = records
            .iter()
            .map(encode_record)
            .collect::<Result<Vec<_>>>()?;
        for (record, frame) in records.into_iter().zip(frames) {
            self.push(record, &frame)?;
        }
        if self.policy == FsyncPolicy::Batch {
            self.sync()?;
        }
        Ok(stats)
    }

    /// Flush and fsync the open segment if it has unsynced appends.
    /// Always syncs when dirty, regardless of policy — this is the
    /// graceful-shutdown hook.
    ///
    /// # Errors
    /// [`RecipeDbError::Wal`](crate::RecipeDbError::Wal) on I/O failure
    /// or an injected `wal.segment.fsync` fault.
    pub fn sync(&mut self) -> Result<()> {
        if !self.dirty {
            return Ok(());
        }
        let seq = self.records.len().saturating_sub(1);
        self.fsync_open(seq)
    }

    /// Replay the whole log: see [`SegmentedLog::replay_prefix`].
    ///
    /// # Errors
    /// Import errors pass through; tombstone drift is reported as
    /// [`RecipeDbError::Wal`](crate::RecipeDbError::Wal).
    pub fn replay(
        &self,
        db: &FlavorDb,
        importer: &Importer,
        n_threads: usize,
    ) -> Result<(RecipeStore, ImportStats)> {
        replay_records(db, importer, &self.records, n_threads)
    }

    /// Replay the first `n` records into a fresh store by running the
    /// raw recipes — tombstoned or not — through
    /// [`Importer::import_batch`], exactly as a cold batch import of the
    /// same prefix would. The store, recipe ids and [`ImportStats`] are
    /// therefore bit-identical to that batch import at every thread
    /// count (the importer's serial task-order merge guarantees it).
    ///
    /// Tombstones are cross-checked: a record logged as failed must
    /// fail again with the same rendered reason, and a record logged as
    /// stored must not fail. A mismatch is reported as
    /// [`RecipeDbError::Wal`](crate::RecipeDbError::Wal) — it means the
    /// importer (lexicon, thresholds) drifted from the one that wrote
    /// the log.
    ///
    /// # Errors
    /// [`RecipeDbError::Wal`](crate::RecipeDbError::Wal) on an
    /// out-of-range prefix or tombstone drift; import errors pass
    /// through.
    pub fn replay_prefix(
        &self,
        db: &FlavorDb,
        importer: &Importer,
        n: usize,
        n_threads: usize,
    ) -> Result<(RecipeStore, ImportStats)> {
        let Some(prefix) = self.records.get(..n) else {
            return Err(wal::err(format!(
                "prefix {n} out of range for a {}-record log",
                self.records.len()
            )));
        };
        replay_records(db, importer, prefix, n_threads)
    }

    /// Append one encoded record to the open segment, fsyncing under
    /// [`FsyncPolicy::Always`] and rotating past the size threshold.
    fn push(&mut self, record: WalRecord, frame: &[u8]) -> Result<()> {
        let seq = self.records.len();
        fault::probe("wal.segment.append", seq)
            .map_err(|e| wal::err(format!("append aborted at record {seq}: {e}")))?;
        self.open
            .write_all(frame)
            .map_err(|e| iow(format!("append record {seq}"), e))?;
        self.open_len += frame.len() as u64;
        self.records.push(record);
        self.dirty = true;
        if self.policy == FsyncPolicy::Always {
            self.fsync_open(seq)?;
        }
        if self.segment_bytes > 0 && self.open_len >= self.segment_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    fn fsync_open(&mut self, seq: usize) -> Result<()> {
        fault::probe("wal.segment.fsync", seq)
            .map_err(|e| wal::err(format!("fsync aborted at record {seq}: {e}")))?;
        self.open
            .sync_all()
            .map_err(|e| iow(format!("fsync open segment after record {seq}"), e))?;
        self.dirty = false;
        Ok(())
    }

    /// Seal the open segment (fsync it), start a fresh one, and commit
    /// the new segment list via atomic manifest rename.
    fn rotate(&mut self) -> Result<()> {
        let rotation = self.segment_names.len();
        fault::probe("wal.segment.rotate", rotation)
            .map_err(|e| wal::err(format!("rotation {rotation} aborted: {e}")))?;
        self.open
            .sync_all()
            .map_err(|e| iow("seal segment before rotation", e))?;
        self.dirty = false;
        let name = segment_name(self.next_index);
        self.next_index += 1;
        let path = self.dir.join(&name);
        let mut f =
            File::create(&path).map_err(|e| iow(format!("create {}", path.display()), e))?;
        f.write_all(&header_bytes())
            .and_then(|()| f.sync_all())
            .map_err(|e| iow(format!("init segment {name}"), e))?;
        self.segment_names.push(name);
        write_manifest(&self.dir, &self.segment_names)?;
        self.open = f;
        self.open_len = HEADER_LEN as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recipe::Source;
    use crate::region::Region;
    use culinaria_flavordb::curated::curated_db;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("culinaria-seg-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn raw(name: &str, lines: &[&str]) -> RawRecipe {
        RawRecipe {
            name: name.into(),
            region: Region::Italy,
            source: Source::Epicurious,
            ingredient_lines: lines.iter().map(|s| s.to_string()).collect(),
        }
    }

    fn seeded_raws() -> Vec<RawRecipe> {
        vec![
            raw("marinara", &["3 ripe tomatoes", "2 cloves garlic"]),
            raw("empty", &[]),
            raw("mystery", &["quixotic zanthum paste"]),
            raw("aglio e olio", &["garlic", "olive oil", "chili"]),
            raw("bruschetta", &["tomato", "olive oil", "basil"]),
            raw("caprese", &["tomato", "basil", "olive oil"]),
        ]
    }

    /// A one-segment log of [`seeded_raws`] in `dir`; returns the
    /// segment's path and bytes.
    fn written_log(dir: &Path) -> (PathBuf, Vec<u8>) {
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        let mut store = RecipeStore::new();
        let mut log = SegmentedLog::open(dir, FsyncPolicy::Batch, 0).unwrap();
        log.append_batch(&db, &importer, &mut store, &seeded_raws(), 1)
            .unwrap();
        let path = dir.join(&log.segment_names()[0]);
        drop(log);
        let bytes = fs::read(&path).unwrap();
        (path, bytes)
    }

    #[test]
    fn fsync_policy_parses_and_rejects() {
        assert_eq!("always".parse::<FsyncPolicy>(), Ok(FsyncPolicy::Always));
        assert_eq!("batch".parse::<FsyncPolicy>(), Ok(FsyncPolicy::Batch));
        assert_eq!("off".parse::<FsyncPolicy>(), Ok(FsyncPolicy::Off));
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
        assert_eq!(FsyncPolicy::Batch.to_string(), "batch");
    }

    #[test]
    fn fresh_open_append_reopen_round_trip() {
        let dir = temp_dir("roundtrip");
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        let raws = seeded_raws();
        let mut store = RecipeStore::new();
        let (stats, records) = {
            let mut log = SegmentedLog::open(&dir, FsyncPolicy::Batch, 0).unwrap();
            assert!(log.is_empty());
            assert_eq!(log.n_segments(), 1);
            let stats = log
                .append_batch(&db, &importer, &mut store, &raws, 2)
                .unwrap();
            assert_eq!(stats.offered, raws.len());
            assert_eq!(log.len(), raws.len());
            (stats, log.records().to_vec())
        };
        // The two failures are logged as tombstones; replay below fails
        // on any record whose logged outcome differs from the import's.
        assert_eq!(records.iter().filter(|r| r.is_tombstone()).count(), 2);
        let back = SegmentedLog::open(&dir, FsyncPolicy::Batch, 0).unwrap();
        assert_eq!(back.records(), &records[..]);
        assert!(!back.recovery().recovered());
        for threads in [1usize, 2, 8] {
            let (replayed, rstats) = back.replay(&db, &importer, threads).unwrap();
            assert_eq!(rstats, stats, "{threads} threads");
            assert_eq!(replayed.n_recipes(), store.n_recipes());
            for (x, y) in replayed.recipes().zip(store.recipes()) {
                assert_eq!(x, y, "{threads} threads");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_seals_segments_and_reopen_sees_all_records() {
        let dir = temp_dir("rotate");
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        let raws = seeded_raws();
        let mut store = RecipeStore::new();
        // Tiny threshold: every record trips a rotation.
        let mut log = SegmentedLog::open(&dir, FsyncPolicy::Off, 64).unwrap();
        log.append_batch(&db, &importer, &mut store, &raws, 1)
            .unwrap();
        assert!(log.n_segments() > 1, "expected rotations");
        let n_segments = log.n_segments();
        let records = log.records().to_vec();
        drop(log);
        let back = SegmentedLog::open(&dir, FsyncPolicy::Off, 64).unwrap();
        assert_eq!(back.n_segments(), n_segments);
        assert_eq!(back.records(), &records[..]);
        assert_eq!(back.recovery().records, records.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_torn_tail_recovers_to_a_valid_prefix() {
        let dir = temp_dir("torn");
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        let raws = seeded_raws();
        let mut store = RecipeStore::new();
        let mut log = SegmentedLog::open(&dir, FsyncPolicy::Off, 0).unwrap();
        log.append_batch(&db, &importer, &mut store, &raws, 1)
            .unwrap();
        log.sync().unwrap();
        let full_records = log.records().to_vec();
        let open_name = log.segment_names().last().unwrap().clone();
        drop(log);
        let seg_path = dir.join(&open_name);
        let full_bytes = fs::read(&seg_path).unwrap();

        for cut in 0..full_bytes.len() {
            fs::write(&seg_path, &full_bytes[..cut]).unwrap();
            let back = SegmentedLog::open(&dir, FsyncPolicy::Off, 0).unwrap();
            // Whatever survives is a prefix of the uninterrupted log.
            assert!(back.len() <= full_records.len(), "cut {cut}");
            assert_eq!(
                back.records(),
                &full_records[..back.len()],
                "cut {cut} did not recover to a prefix"
            );
            if cut < full_bytes.len() {
                let expect_truncated = {
                    let (valid, _) = scan_valid_prefix(&full_bytes[..cut]);
                    cut - valid.min(cut)
                };
                assert_eq!(
                    back.recovery().truncated_bytes,
                    expect_truncated as u64,
                    "cut {cut}"
                );
            }
            // Recovery truncated the file, so a second open is clean.
            let again = SegmentedLog::open(&dir, FsyncPolicy::Off, 0).unwrap();
            assert!(!again.recovery().recovered(), "cut {cut}");
            assert_eq!(again.records(), back.records(), "cut {cut}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_sealed_segment_is_an_error_not_a_repair() {
        let dir = temp_dir("sealed");
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        let mut store = RecipeStore::new();
        let mut log = SegmentedLog::open(&dir, FsyncPolicy::Off, 64).unwrap();
        log.append_batch(&db, &importer, &mut store, &seeded_raws(), 1)
            .unwrap();
        assert!(log.n_segments() > 1);
        let sealed = log.segment_names()[0].clone();
        drop(log);
        let path = dir.join(&sealed);
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() - 1;
        bytes[at] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let e = SegmentedLog::open(&dir, FsyncPolicy::Off, 64).unwrap_err();
        assert!(e.to_string().contains(&sealed), "{e}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_beside_records_is_an_error_not_a_new_log() {
        let dir = temp_dir("nomanifest");
        let (path, bytes) = written_log(&dir);
        fs::remove_file(dir.join(MANIFEST)).unwrap();
        let e = SegmentedLog::open(&dir, FsyncPolicy::Batch, 0).unwrap_err();
        let name = path.file_name().unwrap().to_string_lossy();
        assert!(e.to_string().contains(&*name), "{e}");
        assert!(e.to_string().contains(&*dir.to_string_lossy()), "{e}");
        assert_eq!(fs::read(&path).unwrap(), bytes, "open rewrote {name}");
        assert!(!dir.join(MANIFEST).exists(), "open wrote a manifest");

        // A bare header is what a crash during initialization leaves
        // (the segment is fsynced before the first manifest): that
        // directory still opens as a new, empty log.
        fs::write(&path, header_bytes()).unwrap();
        let log = SegmentedLog::open(&dir, FsyncPolicy::Batch, 0).unwrap();
        assert!(log.is_empty());
        assert_eq!(log.recovery().orphans, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn whole_but_invalid_open_header_is_an_error_not_a_reset() {
        let dir = temp_dir("openheader");
        let (path, bytes) = written_log(&dir);
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        // Magic, version and reserved word: the header is fsynced before
        // the manifest names the segment, so none of these is a torn
        // write.
        for at in [0, 8, 12] {
            let mut bad = bytes.clone();
            bad[at] ^= 1;
            fs::write(&path, &bad).unwrap();
            let e = SegmentedLog::open(&dir, FsyncPolicy::Batch, 0).unwrap_err();
            assert!(e.to_string().contains(&name), "byte {at}: {e}");
            assert_eq!(
                fs::read(&path).unwrap(),
                bad,
                "byte {at}: open rewrote {name}"
            );
        }
        fs::write(&path, &bytes).unwrap();
        let log = SegmentedLog::open(&dir, FsyncPolicy::Batch, 0).unwrap();
        assert_eq!(log.len(), seeded_raws().len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphan_segments_are_counted_and_tolerated() {
        let dir = temp_dir("orphan");
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        let mut store = RecipeStore::new();
        {
            let mut log = SegmentedLog::open(&dir, FsyncPolicy::Batch, 0).unwrap();
            log.append_batch(&db, &importer, &mut store, &seeded_raws(), 1)
                .unwrap();
        }
        // Simulate a crash between segment creation and manifest rename.
        fs::write(dir.join(segment_name(99)), header_bytes()).unwrap();
        let back = SegmentedLog::open(&dir, FsyncPolicy::Batch, 0).unwrap();
        assert_eq!(back.recovery().orphans, 1);
        assert_eq!(back.len(), seeded_raws().len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_manifest_is_reported() {
        let dir = temp_dir("badmanifest");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(MANIFEST), "NOTAMANIFEST\n").unwrap();
        assert!(SegmentedLog::open(&dir, FsyncPolicy::Batch, 0).is_err());
        fs::write(dir.join(MANIFEST), format!("{MANIFEST_MAGIC}\n")).unwrap();
        assert!(SegmentedLog::open(&dir, FsyncPolicy::Batch, 0).is_err());
        fs::write(
            dir.join(MANIFEST),
            format!("{MANIFEST_MAGIC}\n../escape.cwal\n"),
        )
        .unwrap();
        assert!(SegmentedLog::open(&dir, FsyncPolicy::Batch, 0).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn always_policy_leaves_nothing_dirty() {
        let dir = temp_dir("always");
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        let mut store = RecipeStore::new();
        let mut log = SegmentedLog::open(&dir, FsyncPolicy::Always, 0).unwrap();
        log.append_batch(&db, &importer, &mut store, &[raw("solo", &["tomato"])], 1)
            .unwrap();
        assert!(!log.dirty);
        log.sync().unwrap(); // no-op when clean
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every file of `dir` with its bytes, by name.
    fn dir_bytes(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let bytes = fs::read(&path).unwrap();
                (path, bytes)
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn batch_over_the_payload_cap_is_refused_before_import_or_write() {
        // The decoder refuses a payload above `MAX_PAYLOAD`, so logging
        // one would lose it on reopen, and every record after it.
        let dir = temp_dir("cap");
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        let mut store = RecipeStore::new();
        let mut log = SegmentedLog::open(&dir, FsyncPolicy::Batch, 0).unwrap();
        log.append_batch(&db, &importer, &mut store, &seeded_raws(), 1)
            .unwrap();
        let (n_recipes, n_records, before) = (store.n_recipes(), log.len(), dir_bytes(&dir));

        let huge = "x".repeat(wal::MAX_PAYLOAD + 1);
        // A line-less recipe's payload is its name plus 10 bytes, so this
        // one fits the cap as a stored recipe, but it is tombstoned ("no
        // ingredient lines"), and the reason would push it over.
        let at_cap = "y".repeat(wal::MAX_PAYLOAD - 10);
        for batch in [
            [
                raw("first", &["tomato"]),
                raw(&huge, &["basil"]),
                raw("third", &["garlic"]),
            ],
            [
                raw("first", &["tomato"]),
                raw(&at_cap, &[]),
                raw("third", &["garlic"]),
            ],
        ] {
            let e = log
                .append_batch(&db, &importer, &mut store, &batch, 1)
                .unwrap_err();
            assert!(matches!(e, crate::RecipeDbError::Wal(_)), "{e}");
            assert!(e.to_string().contains("recipe 1 of the batch"), "{e}");
            assert_eq!(store.n_recipes(), n_recipes);
            assert_eq!(log.len(), n_records);
            assert_eq!(dir_bytes(&dir), before);
        }

        drop(log);
        let back = SegmentedLog::open(&dir, FsyncPolicy::Batch, 0).unwrap();
        assert_eq!(back.len(), n_records);
        let (replayed, _) = back.replay(&db, &importer, 1).unwrap();
        assert_eq!(replayed.n_recipes(), n_recipes);
        for (x, y) in replayed.recipes().zip(store.recipes()) {
            assert_eq!(x, y);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
