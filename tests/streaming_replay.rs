//! Streaming-ingestion replay contract (`culinaria_recipedb::segment`,
//! DESIGN.md §14.2).
//!
//! The import log's whole value is one guarantee: **replaying any
//! prefix of the log is bit-identical to a cold batch import of the
//! same prefix**, at every thread count, with per-recipe failures
//! preserved as tombstones. This suite drives that guarantee over a
//! seeded 200-recipe `SegmentedLog` (deliberate failures included),
//! checks that the downstream Fig-4 z-score table is bit-identical too,
//! and property-tests the on-disk format through `SegmentedLog::open`:
//! truncations and bit flips must be *reported* or cut back to a valid
//! prefix, never panicked on.

mod common;

use std::fs;
use std::path::Path;
use std::sync::OnceLock;

use common::{cold_reference, fixture, scratch_dir, seeded_raws, THREAD_COUNTS};
use culinaria::analysis::z_analysis::{analyses_to_frame, analyze_world_view};
use culinaria::analysis::{MonteCarloConfig, NullModel};
use culinaria::recipedb::import::RawRecipe;
use culinaria::recipedb::wal::HEADER_LEN;
use culinaria::recipedb::{io, FsyncPolicy, RecipeStore, SegmentedLog, WalRecord};
use proptest::prelude::*;

/// The 200-record log, built in uneven micro-batches (like a stream
/// would) into 4 KiB segments, closed and re-opened from its directory
/// (like the CLI does), plus the live store those batches accumulated.
fn seeded_log(name: &str) -> (SegmentedLog, RecipeStore, Vec<RawRecipe>) {
    let (db, importer) = fixture();
    let raws = seeded_raws(200);
    let dir = scratch_dir(name);
    let mut live = RecipeStore::new();
    {
        let mut log = SegmentedLog::open(&dir, FsyncPolicy::Batch, 4096).expect("open");
        let mut offset = 0;
        for size in [1usize, 2, 13, 44, 60, 80] {
            let chunk = &raws[offset..offset + size];
            log.append_batch(db, importer, &mut live, chunk, 2)
                .expect("append_batch");
            offset += size;
        }
        assert_eq!(offset, 200);
    }
    let log = SegmentedLog::open(&dir, FsyncPolicy::Batch, 4096).expect("own directory re-opens");
    assert!(!log.recovery().recovered(), "clean close must reopen clean");
    (log, live, raws)
}

#[test]
fn every_prefix_replays_bit_identical_to_cold_batch() {
    let (db, importer) = fixture();
    let (log, live, raws) = seeded_log("every-prefix");
    assert_eq!(log.records().len(), 200);
    let tombstones = log.records().iter().filter(|r| r.is_tombstone()).count();
    assert!(
        (15..=25).contains(&tombstones),
        "seed drifted: {tombstones} tombstones"
    );

    for n in 0..=200 {
        let (cold_bytes, cold_stats) = cold_reference(n, &raws);
        for threads in THREAD_COUNTS {
            let (store, stats) = log
                .replay_prefix(db, importer, n, threads)
                .expect("prefix replays");
            assert_eq!(
                stats, cold_stats,
                "stats diverged at prefix {n}, {threads} threads"
            );
            assert_eq!(
                &io::to_snapshot(&store).expect("replay snapshot")[..],
                &cold_bytes[..],
                "store bytes diverged at prefix {n}, {threads} threads"
            );
        }
    }
    assert!(log.replay_prefix(db, importer, 201, 1).is_err());

    // The store grown batch-by-batch while logging is itself identical
    // to one full replay — streaming never forks from batch state.
    let (replayed, _) = log.replay(db, importer, 8).expect("full replay");
    assert_eq!(
        io::to_snapshot(&live).expect("live snapshot"),
        io::to_snapshot(&replayed).expect("replayed snapshot"),
        "micro-batched live store diverged from full replay"
    );
    let _ = fs::remove_dir_all(log.dir());
}

#[test]
fn z_scores_after_replay_match_cold_batch_at_every_thread_count() {
    let (db, importer) = fixture();
    let (log, _, raws) = seeded_log("z-scores");
    for n in [67usize, 200] {
        let mc = |threads: usize| MonteCarloConfig {
            n_recipes: 1000,
            seed: 2018,
            n_threads: threads,
        };
        let mut cold = RecipeStore::new();
        importer
            .import_batch(db, &mut cold, &raws[..n], 1)
            .expect("cold import");
        let reference = analyze_world_view(db, &cold, &NullModel::ALL, &mc(1));
        let reference_table = analyses_to_frame(&reference).to_table_string(22);
        for threads in THREAD_COUNTS {
            let (store, _) = log
                .replay_prefix(db, importer, n, threads)
                .expect("prefix replays");
            let analyses = analyze_world_view(db, &store, &NullModel::ALL, &mc(threads));
            assert_eq!(analyses.len(), reference.len(), "prefix {n}");
            for (a, b) in analyses.iter().zip(&reference) {
                assert_eq!(a.region, b.region);
                assert_eq!(
                    a.observed_mean.to_bits(),
                    b.observed_mean.to_bits(),
                    "{} observed mean diverged at prefix {n}, {threads} threads",
                    a.region.code()
                );
                for (x, y) in a.comparisons.iter().zip(&b.comparisons) {
                    assert_eq!(x.model, y.model);
                    assert_eq!(
                        x.z.map(f64::to_bits),
                        y.z.map(f64::to_bits),
                        "{} z vs {} diverged at prefix {n}, {threads} threads",
                        a.region.code(),
                        x.model.name()
                    );
                    assert_eq!(x.null, y.null, "{} ensembles diverged", a.region.code());
                }
            }
            assert_eq!(
                analyses_to_frame(&analyses).to_table_string(22),
                reference_table,
                "rendered Fig-4 table diverged at prefix {n}, {threads} threads"
            );
        }
    }
    let _ = fs::remove_dir_all(log.dir());
}

/// A small log for the corruption properties below: 24 records (with
/// tombstones) rotated over 1 KiB segments, kept as its decoded records
/// and its segment files (manifest order, so the last one is open).
struct SmallLog {
    records: Vec<WalRecord>,
    manifest: Vec<u8>,
    segments: Vec<(String, Vec<u8>)>,
}

fn small_log() -> &'static SmallLog {
    static LOG: OnceLock<SmallLog> = OnceLock::new();
    LOG.get_or_init(|| {
        let (db, importer) = fixture();
        let raws = seeded_raws(24);
        let dir = scratch_dir("small");
        let mut log = SegmentedLog::open(&dir, FsyncPolicy::Batch, 1024).expect("open");
        let mut store = RecipeStore::new();
        log.append_batch(db, importer, &mut store, &raws, 2)
            .expect("append_batch");
        assert!(log.records().iter().any(|r| r.is_tombstone()));
        assert!(log.n_segments() >= 2, "need a sealed segment too");
        let read = |name: &str| fs::read(dir.join(name)).expect("read log file");
        let small = SmallLog {
            records: log.records().to_vec(),
            manifest: read("MANIFEST"),
            segments: log
                .segment_names()
                .iter()
                .map(|name| (name.clone(), read(name)))
                .collect(),
        };
        let (_, open_bytes) = small.segments.last().expect("open segment");
        assert!(
            open_bytes.len() > HEADER_LEN,
            "open segment holds no records"
        );
        let _ = fs::remove_dir_all(&dir);
        small
    })
}

/// Lay `small`'s files out in `dir`, with `segments` in place of its
/// segment bytes.
fn write_log(dir: &Path, small: &SmallLog, segments: &[(String, Vec<u8>)]) {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).expect("create log dir");
    fs::write(dir.join("MANIFEST"), &small.manifest).expect("write manifest");
    for (name, bytes) in segments {
        fs::write(dir.join(name), bytes).expect("write segment");
    }
}

proptest! {
    /// Truncating the open segment anywhere — the residue of a crash
    /// mid-append — is survivable: reopening cuts the file back to a
    /// record boundary (or a fresh header) and keeps exactly the
    /// records before it. Never a panic, never invented records.
    #[test]
    fn truncated_logs_never_panic(cut in 0usize..1 << 16) {
        let small = small_log();
        let dir = scratch_dir("truncated");
        let mut segments = small.segments.clone();
        let (open_name, open_bytes) = segments.last_mut().expect("open segment");
        let full = open_bytes.clone();
        let cut = cut % (full.len() + 1);
        open_bytes.truncate(cut);
        let open_name = open_name.clone();
        write_log(&dir, small, &segments);
        match SegmentedLog::open(&dir, FsyncPolicy::Off, 1024) {
            Ok(log) => {
                prop_assert!(log.len() <= small.records.len());
                prop_assert_eq!(log.records(), &small.records[..log.len()]);
                let kept = fs::read(dir.join(&open_name)).expect("read repaired segment");
                prop_assert!(full.starts_with(&kept), "repair rewrote bytes");
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Flipping any single bit of any segment is survivable. Every
    /// region of the format is covered by a check (magic, version,
    /// reserved word, kind, framing, payload checksum, zero padding),
    /// so reopening reports an error — in a sealed segment or the open
    /// one's header — or cuts the open segment back before the flipped
    /// record; whatever survives must replay without panicking.
    #[test]
    fn bit_flipped_logs_never_panic(pos in 0usize..1 << 16, bit in 0u32..8) {
        let (db, importer) = fixture();
        let small = small_log();
        let dir = scratch_dir("bit-flipped");
        let mut segments = small.segments.clone();
        let total: usize = segments.iter().map(|(_, bytes)| bytes.len()).sum();
        let mut pos = pos % total;
        for (_, bytes) in &mut segments {
            if pos < bytes.len() {
                bytes[pos] ^= 1u8 << bit;
                break;
            }
            pos -= bytes.len();
        }
        write_log(&dir, small, &segments);
        if let Ok(log) = SegmentedLog::open(&dir, FsyncPolicy::Off, 1024) {
            prop_assert!(log.len() < small.records.len(), "a flip went unnoticed");
            prop_assert_eq!(log.records(), &small.records[..log.len()]);
            prop_assert!(log.recovery().truncated_bytes > 0);
            let _ = log.replay(db, importer, 2);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
