//! Integration tests of the `culinaria` command-line interface.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_culinaria"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Like [`run`], but keeps the exact exit code (2 = usage error).
fn run_code(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_culinaria"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn regions_lists_all_22() {
    let (ok, stdout, _) = run(&["regions"]);
    assert!(ok);
    for code in ["AFR", "ITA", "USA", "KOR", "SCND"] {
        assert!(stdout.contains(code), "{code} missing");
    }
    assert_eq!(stdout.lines().count(), 23); // header + 22 rows
    assert!(stdout.contains("contrasting"));
}

#[test]
fn no_command_shows_usage() {
    let (ok, _, stderr) = run(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
}

#[test]
fn report_requires_valid_region() {
    let (ok, _, stderr) = run(&["report", "ATLANTIS"]);
    assert!(!ok);
    assert!(stderr.contains("region code"));
}

#[test]
fn report_produces_verdict() {
    let (ok, stdout, _) = run(&["report", "JPN", "--scale", "0.02", "--mc", "2000"]);
    assert!(ok, "stdout: {stdout}");
    assert!(stdout.contains("Japan"));
    assert!(stdout.contains("verdict:"));
    assert!(stdout.contains("top contributors"));
}

#[test]
fn analyze_emits_agreement_line() {
    let (ok, stdout, _) = run(&["analyze", "--scale", "0.01", "--mc", "1500"]);
    assert!(ok);
    assert!(stdout.contains("z_random"));
    assert!(stdout.contains("pairing-sign agreement with the paper:"));
}

#[test]
fn generate_writes_snapshots() {
    let dir = std::env::temp_dir().join(format!("culinaria-cli-test-{}", std::process::id()));
    let dir_str = dir.to_str().expect("utf-8 temp path");
    let (ok, stdout, _) = run(&["generate", "--scale", "0.01", "--out", dir_str]);
    assert!(ok, "stdout: {stdout}");
    // Exactly the zero-copy artifacts and the CSV export.
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("output dir")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert_eq!(files, ["flavor.cfdb2", "recipes.crdb2", "recipes.csv"]);
    for file in &files {
        let len = dir.join(file).metadata().expect("stat").len();
        assert!(len > 100, "{file} too small");
    }
    // The artifacts open, and the flavor one carries one overlap
    // section per populated region.
    let read = |name: &str| {
        culinaria::flavordb::AlignedBytes::read_file(dir.join(name)).expect("readable")
    };
    let (flavor_buf, recipe_buf) = (read("flavor.cfdb2"), read("recipes.crdb2"));
    let flavor = culinaria::flavordb::artifact::open(flavor_buf.as_slice()).expect("opens");
    let recipes = culinaria::recipedb::artifact::open(recipe_buf.as_slice()).expect("opens");
    assert!(flavor.n_ingredients() > 100);
    assert!(recipes.n_recipes() > 100);
    assert_eq!(flavor.n_overlaps(), recipes.regions().len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_command_rejects_malformed_flags_before_touching_data() {
    // Each case must exit 2, name the offending flag on stderr, and
    // leave its output or log directory uncreated.
    let dir = std::env::temp_dir().join(format!("culinaria-badflags-{}", std::process::id()));
    let untouched = dir.to_str().expect("utf-8 temp path");
    for (args, needle) in [
        (
            &["replay", "--wal", untouched, "--prefix", "1O"][..],
            "--prefix",
        ),
        // Unknown flags are rejected too, not silently ignored.
        (
            &["replay", "--wal", untouched, "--prefx", "1"][..],
            "--prefx",
        ),
        (&["pairings", "ITA", "--tpo", "3"][..], "--tpo"),
        (&["analyze", "--mc", "2OO"][..], "--mc"),
        (
            &["generate", "--scale", "x", "--out", untouched][..],
            "--scale",
        ),
        // Parseable but out-of-range scales: `inf` would never finish
        // generating, and a negative or NaN scale would silently shrink
        // every region to its floor.
        (&["analyze", "--scale", "inf"][..], "--scale"),
        (
            &["generate", "--scale", "-1", "--out", untouched][..],
            "--scale",
        ),
        (&["report", "ITA", "--scale", "NaN"][..], "--scale"),
        (
            &[
                "ingest",
                "recipes.txt",
                "--wal",
                untouched,
                "--threads",
                "two",
            ][..],
            "--threads",
        ),
    ] {
        let (code, stderr) = run_code(args);
        assert_eq!(code, Some(2), "args {args:?}: stderr {stderr:?}");
        assert!(
            stderr.contains(needle),
            "args {args:?}: stderr {stderr:?} does not name {needle:?}"
        );
        assert!(!dir.exists(), "args {args:?} touched {untouched}");
    }
}

#[test]
fn serve_rejects_malformed_flags_before_touching_data() {
    // Each case must fail fast (exit 2, no dataset needed) and name
    // the offending flag on stderr.
    for (args, needle) in [
        (
            &["serve", "--stdio", "--cache-entries", "lots"][..],
            "--cache-entries",
        ),
        (
            &["serve", "--stdio", "--max-queue", "-4"][..],
            "--max-queue",
        ),
        (&["serve", "--stdio", "--threads", "two"][..], "--threads"),
        (&["serve", "--stdio", "--metrics=xml"][..], "--metrics"),
        (&["serve"][..], "--stdio or --socket"),
        (
            &["serve", "--stdio", "--socket", "/tmp/x.sock"][..],
            "mutually exclusive",
        ),
        // Serve holds no log: `--wal` is an unknown flag here.
        (&["serve", "--stdio", "--wal", "w"][..], "--wal"),
    ] {
        let (ok, _, stderr) = run(args);
        assert!(!ok, "args {args:?} should be rejected");
        assert!(
            stderr.contains(needle),
            "args {args:?}: stderr {stderr:?} does not name {needle:?}"
        );
    }
}

#[test]
fn replay_refuses_a_missing_wal_directory() {
    let dir = std::env::temp_dir().join(format!("culinaria-nowal-{}", std::process::id()));
    let missing = dir.to_str().expect("utf-8 temp path");
    let (ok, stdout, stderr) = run(&["replay", "--wal", missing]);
    assert!(!ok, "replay of a missing log succeeded: {stdout}");
    assert!(
        stderr.contains(missing),
        "stderr {stderr:?} does not name {missing}"
    );
    assert!(!dir.exists(), "replay created {missing}");
}

#[test]
fn serve_refuses_to_start_without_a_dataset() {
    let dir = std::env::temp_dir().join(format!("culinaria-serve-nodata-{}", std::process::id()));
    let dir_str = dir.to_str().expect("utf-8 temp path");
    let (ok, _, stderr) = run(&["serve", "--stdio", "--data", dir_str]);
    assert!(!ok);
    assert!(stderr.contains("culinaria generate"), "stderr: {stderr}");
}

#[test]
fn serve_stdio_answers_framed_queries_over_artifacts() {
    use std::io::Write;

    let dir = std::env::temp_dir().join(format!("culinaria-serve-stdio-{}", std::process::id()));
    let dir_str = dir.to_str().expect("utf-8 temp path").to_owned();
    let (ok, stdout, _) = run(&["generate", "--scale", "0.01", "--out", &dir_str]);
    assert!(ok, "generate failed: {stdout}");

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_culinaria"))
        .args([
            "serve",
            "--stdio",
            "--data",
            &dir_str,
            "--mc",
            "200",
            // One request per batch, so ZPROF is answered before METRICS.
            "--batch",
            "1",
            "--metrics=json",
        ])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");

    // Hand-rolled frames: u32 LE length + UTF-8 payload.
    let frame = |line: &str| {
        let mut buf = (line.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(line.as_bytes());
        buf
    };
    {
        let stdin = child.stdin.as_mut().expect("piped stdin");
        stdin.write_all(&frame("1 PING")).expect("write");
        stdin.write_all(&frame("2 ZPROF ITA")).expect("write");
        stdin.write_all(&frame("3 METRICS")).expect("write");
        stdin.write_all(&frame("4 QUIT")).expect("write");
        stdin.flush().expect("flush");
    }
    drop(child.stdin.take());
    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Walk the response frames; ids correlate, order may interleave.
    let bytes = out.stdout;
    let mut replies = Vec::new();
    let mut cursor = &bytes[..];
    while cursor.len() >= 4 {
        let len = u32::from_le_bytes(cursor[..4].try_into().unwrap()) as usize;
        let payload = std::str::from_utf8(&cursor[4..4 + len]).expect("utf-8 reply");
        replies.push(payload.to_owned());
        cursor = &cursor[4 + len..];
    }
    assert!(
        replies.iter().any(|r| r == "1 OK pong"),
        "no pong in {replies:?}"
    );
    assert!(
        replies.iter().any(|r| r.starts_with("2 OK ")),
        "no ZPROF reply in {replies:?}"
    );
    let metrics = replies
        .iter()
        .find(|r| r.starts_with("3 OK ") && r.contains("serve.requests"))
        .unwrap_or_else(|| panic!("no metrics reply in {replies:?}"));
    // The ZPROF shard came from the overlap section `generate` attached,
    // not from a fresh kernel sweep.
    let reuse: u64 = metrics
        .split("\"overlap.section_reuse\":")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0);
    assert!(reuse >= 1, "no overlap section reused: {metrics}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("zero-copy"),
        "v2 open not reported: {stderr}"
    );
    assert!(
        stderr.contains("connection closed"),
        "no close summary: {stderr}"
    );
    // --metrics=json dumped the registry at exit.
    assert!(
        stderr.contains("\"serve.requests\""),
        "no exit dump: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pairings_lists_candidates() {
    let (ok, stdout, _) = run(&["pairings", "ITA", "--scale", "0.02", "--top", "3"]);
    assert!(ok);
    assert!(stdout.contains("novel pairings"));
    assert!(stdout.contains("overlap"));
}

#[test]
fn suggest_generates_a_recipe() {
    let (ok, stdout, _) = run(&["suggest", "ITA", "--scale", "0.02", "--size", "5"]);
    assert!(ok);
    assert!(stdout.contains("generated uniform recipe for Italy"));
    assert_eq!(stdout.lines().filter(|l| l.starts_with("  ")).count(), 5);
    let (ok, stdout, _) = run(&["suggest", "JPN", "--scale", "0.02", "--contrast", "true"]);
    assert!(ok);
    assert!(stdout.contains("contrasting"));
}

#[test]
fn serve_hardening_flags_are_validated_before_touching_data() {
    for (args, needle) in [
        (
            &["serve", "--stdio", "--force-bind"][..],
            "--force-bind only applies to --socket",
        ),
        (
            &["serve", "--stdio", "--read-timeout", "soon"][..],
            "--read-timeout",
        ),
        (
            &["serve", "--stdio", "--write-timeout", "-1"][..],
            "--write-timeout",
        ),
        (
            &["serve", "--stdio", "--idle-timeout", "later"][..],
            "--idle-timeout",
        ),
        (
            &["serve", "--stdio", "--max-conns", "many"][..],
            "--max-conns",
        ),
    ] {
        let (ok, _, stderr) = run(args);
        assert!(!ok, "args {args:?} should be rejected");
        assert!(
            stderr.contains(needle),
            "args {args:?}: stderr {stderr:?} does not name {needle:?}"
        );
    }
}

#[test]
fn ingest_and_replay_round_trip_through_wal_segments() {
    let dir = std::env::temp_dir().join(format!("culinaria-walcli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let file = dir.join("recipes.txt");
    std::fs::write(
        &file,
        "Bruschetta | ITA\ntomato\nolive oil\nbasil\n\n\
         Header Only | JPN\n\n\
         Caprese | ITA\ntomato\nbasil\n",
    )
    .expect("write recipes");
    let file = file.to_str().expect("utf-8 path");
    let wal = dir.join("segments");
    let wal = wal.to_str().expect("utf-8 path");

    // A missing --wal is a usage error that names the flag.
    for args in [&["ingest", file][..], &["replay"][..]] {
        let (code, stderr) = run_code(args);
        assert_eq!(code, Some(2), "args {args:?}: stderr {stderr:?}");
        assert!(stderr.contains("--wal"), "args {args:?}: stderr {stderr:?}");
    }

    // First batch, with a rotation threshold small enough that three
    // records span multiple segments.
    let (ok, stdout, stderr) = run(&[
        "ingest",
        file,
        "--wal",
        wal,
        "--segment-bytes",
        "128",
        "--fsync",
        "always",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("3 records (+3)"), "stdout: {stdout}");
    assert!(stdout.contains("[fsync=always]"), "stdout: {stdout}");
    let segments: Vec<_> = std::fs::read_dir(wal)
        .expect("wal dir")
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".cwal"))
        .collect();
    assert!(
        segments.len() >= 2,
        "no rotation: {} segment(s)",
        segments.len()
    );

    // Second batch replays history and appends on top.
    let (ok, stdout, _) = run(&["ingest", file, "--wal", wal, "--threads", "2"]);
    assert!(ok);
    assert!(stdout.contains("6 records (+3)"), "stdout: {stdout}");
    assert!(stdout.contains("store: 4 recipes"), "stdout: {stdout}");

    // Replay (full and prefix) rebuilds the same stream.
    let (ok, stdout, _) = run(&["replay", "--wal", wal]);
    assert!(ok);
    assert!(
        stdout.contains("replayed 6/6 records: 4 stored, 2 tombstoned"),
        "stdout: {stdout}"
    );
    let (ok, stdout, _) = run(&["replay", "--wal", wal, "--prefix", "3", "--threads", "2"]);
    assert!(ok);
    assert!(
        stdout.contains("replayed 3/6 records: 2 stored, 1 tombstoned"),
        "stdout: {stdout}"
    );

    // A torn tail (crash residue) is recovered and reported, and the
    // surviving records still replay.
    // The open segment is the highest-numbered .cwal file.
    let open_seg = std::fs::read_dir(wal)
        .expect("wal dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.to_string_lossy().ends_with(".cwal"))
        .max()
        .expect("open segment");
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&open_seg)
        .expect("open segment for damage");
    f.write_all(&[0xff; 5]).expect("append torn bytes");
    drop(f);
    let (ok, stdout, stderr) = run(&["replay", "--wal", wal]);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stderr.contains("recovered — 5 torn byte(s) truncated"),
        "stderr: {stderr}"
    );
    assert!(
        stdout.contains("replayed 6/6 records"),
        "whole records must survive a torn tail: {stdout}"
    );

    // A flipped byte inside a sealed segment is corruption, not crash
    // residue: replay reports it and fails instead of repairing.
    let sealed = std::fs::read_dir(wal)
        .expect("wal dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.to_string_lossy().ends_with(".cwal"))
        .min()
        .expect("sealed segment");
    assert_ne!(sealed, open_seg, "rotation left no sealed segment");
    let mut bytes = std::fs::read(&sealed).expect("sealed segment readable");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&sealed, &bytes).expect("write corrupt segment");
    let (ok, _, stderr) = run(&["replay", "--wal", wal]);
    assert!(!ok, "corrupt sealed segment replayed");
    assert!(stderr.contains("cannot open wal"), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// End-to-end lifecycle over a real socket: clobber guard, live
/// traffic, SIGTERM with zero dropped in-flight replies, and socket
/// cleanup.
#[test]
fn socket_serve_refuses_clobber_and_drains_on_sigterm() {
    use std::io::{Read as _, Write as _};
    use std::os::unix::net::UnixStream;

    let dir = std::env::temp_dir().join(format!("culinaria-sigterm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let data = dir.join("data");
    let data = data.to_str().expect("utf-8 path").to_owned();
    let (ok, stdout, _) = run(&["generate", "--scale", "0.01", "--out", &data]);
    assert!(ok, "generate failed: {stdout}");
    let sock = dir.join("serve.sock");
    let sock_str = sock.to_str().expect("utf-8 path").to_owned();

    let child = Command::new(env!("CARGO_BIN_EXE_culinaria"))
        .args([
            "serve", "--socket", &sock_str, "--data", &data, "--mc", "200",
        ])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");
    // Wait for the listener to come up.
    let mut up = false;
    for _ in 0..200 {
        if sock.exists() {
            up = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert!(up, "socket never appeared");

    // Clobber guard: a second server must refuse the live socket.
    let (ok, _, stderr) = run(&["serve", "--socket", &sock_str, "--data", &data]);
    assert!(!ok, "second bind must be refused");
    assert!(stderr.contains("refusing to replace"), "stderr: {stderr}");

    // Load + SIGTERM: pipeline five requests, signal before reading a
    // single reply — all five must still be answered before close.
    let mut stream = UnixStream::connect(&sock).expect("connect");
    let frame = |line: &str| {
        let mut buf = (line.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(line.as_bytes());
        buf
    };
    // One full round trip first: the drain guarantee covers *accepted*
    // connections, so prove the handler is live before signalling
    // (otherwise the kill can race the accept and reset us).
    stream.write_all(&frame("99 PING")).expect("send probe");
    let mut hdr = [0u8; 4];
    stream.read_exact(&mut hdr).expect("probe header");
    let mut body = vec![0u8; u32::from_le_bytes(hdr) as usize];
    stream.read_exact(&mut body).expect("probe body");
    assert_eq!(String::from_utf8_lossy(&body), "99 OK pong");
    for id in 1..=5u64 {
        stream
            .write_all(&frame(&format!("{id} PING")))
            .expect("send");
    }
    stream.flush().expect("flush");
    let pid = child.id().to_string();
    let killed = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("kill runs");
    assert!(killed.success());

    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("drain replies");
    let mut replies = Vec::new();
    let mut cursor = &bytes[..];
    while cursor.len() >= 4 {
        let len = u32::from_le_bytes(cursor[..4].try_into().unwrap()) as usize;
        replies.push(String::from_utf8_lossy(&cursor[4..4 + len]).into_owned());
        cursor = &cursor[4 + len..];
    }
    for id in 1..=5u64 {
        assert!(
            replies.iter().any(|r| r == &format!("{id} OK pong")),
            "reply {id} dropped at shutdown: {replies:?}"
        );
    }

    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "SIGTERM must exit 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("shutdown signal received; draining connections"),
        "stderr: {stderr}"
    );
    assert!(!sock.exists(), "socket file must be unlinked on shutdown");
    std::fs::remove_dir_all(&dir).ok();
}
