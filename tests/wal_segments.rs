//! Crash-and-recover chaos suite for the durable segmented WAL
//! (`culinaria_recipedb::segment`, DESIGN.md §15.3).
//!
//! The durability contract under test: **kill the process between any
//! two fsyncs, reopen the directory, and replay is bit-identical to a
//! cold batch import of the surviving prefix** — stores, stats, and
//! the downstream Fig-4 z-score table alike, at every thread count. A
//! kill between fsyncs is simulated the way it manifests on disk:
//! truncating the open segment at an arbitrary byte. The sweep below
//! tries *every* cut; replay parity is checked once per distinct
//! surviving prefix (each record boundary, i.e. each inter-fsync gap).

mod common;

use std::fs;
use std::path::Path;

use common::{cold_reference, fixture, scratch_dir, seeded_raws, THREAD_COUNTS};
use culinaria::analysis::z_analysis::{analyses_to_frame, analyze_world_view};
use culinaria::analysis::{MonteCarloConfig, NullModel};
use culinaria::recipedb::import::RawRecipe;
use culinaria::recipedb::{io, FsyncPolicy, RecipeStore, SegmentedLog};

/// Copy a segment directory file-by-file (flat layout by construction).
fn copy_dir(src: &Path, dst: &Path) {
    let _ = fs::remove_dir_all(dst);
    fs::create_dir_all(dst).expect("create scratch dir");
    for entry in fs::read_dir(src).expect("read dir").flatten() {
        fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy segment file");
    }
}

fn assert_replay_matches_cold(log: &SegmentedLog, raws: &[RawRecipe], ctx: &str) {
    let (db, importer) = fixture();
    let n = log.len();
    let (cold_bytes, cold_stats) = cold_reference(n, raws);
    for threads in THREAD_COUNTS {
        let (store, stats) = log.replay(db, importer, threads).expect("replay");
        assert_eq!(
            stats, cold_stats,
            "{ctx}: stats diverged at {threads} threads"
        );
        assert_eq!(
            &io::to_snapshot(&store).expect("replay snapshot")[..],
            &cold_bytes[..],
            "{ctx}: store bytes diverged at {threads} threads"
        );
    }
}

#[test]
fn rotation_and_reopen_are_bit_identical_to_cold_import() {
    let (db, importer) = fixture();
    let raws = seeded_raws(200);
    let (cold_bytes, _) = cold_reference(raws.len(), &raws);
    for policy in [FsyncPolicy::Always, FsyncPolicy::Batch, FsyncPolicy::Off] {
        let dir = scratch_dir(&format!("rotate-{policy}"));
        {
            // 2 KiB segments force many rotations over a 200-record log.
            let mut log = SegmentedLog::open(&dir, policy, 2048).expect("open");
            let mut live = RecipeStore::new();
            let mut offset = 0;
            for size in [1usize, 2, 13, 44, 60, 80] {
                log.append_batch(db, importer, &mut live, &raws[offset..offset + size], 2)
                    .expect("append_batch");
                offset += size;
            }
            assert_eq!(offset, 200);
            assert!(
                log.n_segments() >= 3,
                "{policy}: rotation never kicked in: {} segment(s)",
                log.n_segments()
            );
            log.sync().expect("final sync");
            assert_eq!(
                &io::to_snapshot(&live).expect("live snapshot")[..],
                &cold_bytes[..],
                "{policy}: the live store diverged from a cold import"
            );
        }
        let log = SegmentedLog::open(&dir, policy, 2048).expect("reopen");
        assert_eq!(log.len(), 200);
        assert!(
            !log.recovery().recovered(),
            "{policy}: clean close must reopen clean"
        );
        assert_eq!(log.recovery().orphans, 0);
        assert_replay_matches_cold(&log, &raws, &format!("{policy}: rotated reopen"));
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn every_cut_of_the_open_segment_recovers_a_replayable_prefix() {
    let (db, importer) = fixture();
    let raws = seeded_raws(24);
    let base = scratch_dir("torn-base");
    {
        // No rotation: a single open segment holds every record, so a
        // cut at byte `c` models a crash after `c` durable bytes.
        let mut log = SegmentedLog::open(&base, FsyncPolicy::Batch, 0).expect("open");
        let mut store = RecipeStore::new();
        log.append_batch(db, importer, &mut store, &raws, 2)
            .expect("append_batch");
        log.sync().expect("sync");
        assert_eq!(log.n_segments(), 1);
    }
    let seg = fs::read_dir(&base)
        .expect("read base")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .find(|n| n.ends_with(".cwal"))
        .expect("open segment present");
    let full_len = fs::metadata(base.join(&seg))
        .expect("segment metadata")
        .len() as usize;

    let scratch = scratch_dir("torn-cut");
    let mut last_survivors = None;
    let mut checked_prefixes = 0usize;
    for cut in 0..=full_len {
        copy_dir(&base, &scratch);
        let path = scratch.join(&seg);
        let f = fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("open for truncate");
        f.set_len(cut as u64).expect("truncate");
        drop(f);

        let log = SegmentedLog::open(&scratch, FsyncPolicy::Batch, 0).expect("reopen after cut");
        let survivors = log.len();
        assert!(survivors <= 24, "cut {cut}: invented records");
        // Survivor counts grow monotonically with the cut point.
        if let Some(prev) = last_survivors {
            assert!(
                survivors >= prev,
                "cut {cut}: prefix shrank {prev} -> {survivors}"
            );
        }
        // Recovery arithmetic: dropped bytes + kept bytes == the cut —
        // except a cut inside the 16-byte header, which drops the whole
        // file and resets it to a fresh (larger) empty segment.
        let kept = fs::metadata(&path).expect("repaired metadata").len();
        if kept <= cut as u64 {
            assert_eq!(
                log.recovery().truncated_bytes + kept,
                cut as u64,
                "cut {cut}: recovery arithmetic"
            );
        } else {
            assert_eq!(
                log.recovery().truncated_bytes,
                cut as u64,
                "cut {cut}: a torn header must drop every byte"
            );
            assert_eq!(survivors, 0, "cut {cut}: a reset segment keeps no records");
        }
        // Repair is idempotent: a second open finds nothing to fix.
        drop(log);
        let again = SegmentedLog::open(&scratch, FsyncPolicy::Batch, 0).expect("second reopen");
        assert!(
            !again.recovery().recovered(),
            "cut {cut}: repair not idempotent"
        );
        assert_eq!(
            again.len(),
            survivors,
            "cut {cut}: records drifted on reopen"
        );

        // Replay parity once per distinct surviving prefix — i.e. for
        // every inter-fsync crash window, at 1/2/8 threads.
        if last_survivors != Some(survivors) {
            assert_replay_matches_cold(&again, &raws, &format!("cut {cut}"));
            checked_prefixes += 1;
        }
        last_survivors = Some(survivors);
    }
    assert_eq!(last_survivors, Some(24), "full file must keep everything");
    assert_eq!(
        checked_prefixes, 25,
        "expected every prefix 0..=24 to appear exactly once across the sweep"
    );
    let _ = fs::remove_dir_all(&base);
    let _ = fs::remove_dir_all(&scratch);
}

#[test]
fn fig4_z_profile_is_bit_identical_after_crash_recovery() {
    let (db, importer) = fixture();
    let raws = seeded_raws(220);
    let dir = scratch_dir("fig4");
    let total;
    {
        let mut log = SegmentedLog::open(&dir, FsyncPolicy::Batch, 4096).expect("open");
        let mut store = RecipeStore::new();
        log.append_batch(db, importer, &mut store, &raws[..200], 2)
            .expect("append_batch");
        // Rotation may have just sealed a segment, leaving the open one
        // empty; top up one record at a time until it holds something
        // for the crash to tear.
        let mut next = 200;
        loop {
            let open_name = log.segment_names().last().expect("open segment").clone();
            let open_len = fs::metadata(dir.join(&open_name)).expect("metadata").len();
            if open_len > 32 {
                break;
            }
            log.append_batch(db, importer, &mut store, &raws[next..next + 1], 1)
                .expect("top-up append");
            next += 1;
        }
        log.sync().expect("sync");
        assert!(log.n_segments() >= 2, "need a sealed segment for this test");
        total = log.len();
    }
    // Crash mid-record: chop 10 bytes off the open segment's tail —
    // more than the ≤7 bytes of zero padding a record can end with, so
    // the cut always bites into the last record proper.
    let open_seg = {
        let log = SegmentedLog::open(&dir, FsyncPolicy::Off, 0).expect("peek");
        log.segment_names().last().expect("open segment").clone()
    };
    let path = dir.join(&open_seg);
    let len = fs::metadata(&path).expect("metadata").len();
    assert!(len > 32, "open segment must hold at least one record");
    let f = fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("open for truncate");
    f.set_len(len - 10).expect("truncate");
    drop(f);

    let log = SegmentedLog::open(&dir, FsyncPolicy::Batch, 4096).expect("reopen");
    assert!(
        log.recovery().recovered(),
        "a mid-record cut must be repaired"
    );
    let n = log.len();
    assert!(n < total, "the torn record must be gone");

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
        let (store, _) = log.replay(db, importer, threads).expect("replay");
        let analyses = analyze_world_view(db, &store, &NullModel::ALL, &mc(threads));
        for (a, b) in analyses.iter().zip(&reference) {
            assert_eq!(a.region, b.region);
            assert_eq!(
                a.observed_mean.to_bits(),
                b.observed_mean.to_bits(),
                "{} observed mean diverged at {threads} threads",
                a.region.code()
            );
            for (x, y) in a.comparisons.iter().zip(&b.comparisons) {
                assert_eq!(
                    x.z.map(f64::to_bits),
                    y.z.map(f64::to_bits),
                    "{} z vs {} diverged at {threads} threads",
                    a.region.code(),
                    x.model.name()
                );
            }
        }
        assert_eq!(
            analyses_to_frame(&analyses).to_table_string(22),
            reference_table,
            "rendered Fig-4 table diverged after recovery at {threads} threads"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn orphan_segments_are_counted_and_tolerated() {
    let (db, importer) = fixture();
    let raws = seeded_raws(12);
    let dir = scratch_dir("orphan");
    {
        let mut log = SegmentedLog::open(&dir, FsyncPolicy::Batch, 0).expect("open");
        let mut store = RecipeStore::new();
        log.append_batch(db, importer, &mut store, &raws, 2)
            .expect("append_batch");
        log.sync().expect("sync");
    }
    // The residue of a crash between segment creation and manifest
    // rename: a segment file no manifest names.
    fs::write(dir.join("seg-999999.cwal"), b"half-written junk").expect("drop orphan");
    let log = SegmentedLog::open(&dir, FsyncPolicy::Batch, 0).expect("reopen");
    assert_eq!(
        log.recovery().orphans,
        1,
        "orphan must be counted, not decoded"
    );
    assert_eq!(log.len(), 12);
    assert_replay_matches_cold(&log, &raws, "orphaned reopen");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sealed_corruption_and_bad_manifests_are_reported_not_repaired() {
    let (db, importer) = fixture();
    let raws = seeded_raws(60);
    let dir = scratch_dir("sealed");
    {
        let mut log = SegmentedLog::open(&dir, FsyncPolicy::Batch, 2048).expect("open");
        let mut store = RecipeStore::new();
        log.append_batch(db, importer, &mut store, &raws, 2)
            .expect("append_batch");
        log.sync().expect("sync");
        assert!(log.n_segments() >= 2, "need a sealed segment");
    }
    // Flip a payload byte deep inside the *first* (sealed) segment:
    // sealed segments were durable when sealed, so damage there is a
    // hard error, never a silent truncation.
    let sealed = {
        let log = SegmentedLog::open(&dir, FsyncPolicy::Off, 0).expect("peek");
        log.segment_names().first().expect("sealed segment").clone()
    };
    let path = dir.join(&sealed);
    let mut bytes = fs::read(&path).expect("read sealed");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&path, &bytes).expect("corrupt sealed");
    let err = SegmentedLog::open(&dir, FsyncPolicy::Batch, 2048).expect_err("must refuse");
    assert!(err.to_string().contains(&sealed), "{err}");

    // A garbage manifest is likewise a hard error.
    bytes[mid] ^= 0x40;
    fs::write(&path, &bytes).expect("restore sealed");
    fs::write(dir.join("MANIFEST"), "NOT-A-MANIFEST\n").expect("clobber manifest");
    let err = SegmentedLog::open(&dir, FsyncPolicy::Batch, 2048).expect_err("must refuse");
    assert!(err.to_string().contains("manifest"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}
