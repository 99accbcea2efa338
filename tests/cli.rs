//! Integration tests of the `mbpta` CLI binary.
//!
//! Uses `CARGO_BIN_EXE_mbpta`, which Cargo points at the freshly built
//! binary when running integration tests of the defining package.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn mbpta() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mbpta"))
}

#[test]
fn help_prints_usage() {
    let out = mbpta().arg("--help").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("analyze"));
    assert!(text.contains("measure"));
}

#[test]
fn unknown_command_fails_cleanly() {
    let out = mbpta().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

/// Run `mbpta` with `args`, killing it if it is still running after 30 s:
/// a flag the parser fails to reject could leave `serve` listening.
fn run_bounded(args: &[&str]) -> Output {
    let mut child = mbpta()
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("poll").is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    child.wait_with_output().expect("wait")
}

#[test]
fn cli_rejects_unknown_duplicate_and_misplaced_flags() {
    // Every row must fail in the parser, before any file is opened, any
    // measurement is taken or any connection is made. `m.txt` does not
    // exist: reaching the file would say `cannot open`.
    let table: &[(&[&str], &str)] = &[
        // Typos.
        (
            &["analyze", "m.txt", "--cutof", "1e-9"],
            "--cutof is not valid for analyze",
        ),
        (
            &["measure", "--rnus", "10"],
            "--rnus is not valid for measure",
        ),
        (
            &["shard", "--out", "b.bin", "--shard", "2"],
            "--shard is not valid for shard",
        ),
        // Duplicates.
        (
            &["analyze", "m.txt", "--cutoff", "1e-9", "--cutoff", "1e-12"],
            "--cutoff is given twice",
        ),
        (
            &["stream", "m.txt", "--block", "25", "--block", "50"],
            "--block is given twice",
        ),
        (
            &["session", "--simulate", "--simulate"],
            "--simulate is given twice",
        ),
        (
            &["serve", "--workers", "2", "--workers", "3"],
            "--workers is given twice",
        ),
        // Flags of another subcommand.
        (
            &["analyze", "m.txt", "--jobs", "4"],
            "--jobs is not valid for analyze",
        ),
        (
            &["measure", "--block", "50"],
            "--block is not valid for measure",
        ),
        (
            &["stream", "m.txt", "--batch"],
            "--batch is not valid for stream",
        ),
        (
            &["serve", "--shards", "2"],
            "--shards is not valid for serve",
        ),
        (
            &["shard", "m.txt", "--out", "b.bin", "--every", "5"],
            "--every is not valid for shard",
        ),
        (
            &["call", "127.0.0.1:1", "verdict", "--chunk", "5"],
            "--chunk is not valid for call verdict",
        ),
        (
            &[
                "call",
                "127.0.0.1:1",
                "ingest",
                "nominal",
                "m.txt",
                "--p",
                "1e-9",
            ],
            "--p is not valid for call ingest",
        ),
        // Removed flags.
        (
            &["session", "--cache-stats"],
            "--cache-stats is not valid for session",
        ),
        (
            &["stream", "m.txt", "--sketch", "gk"],
            "--sketch is not valid for stream",
        ),
        (
            &["session", "m.txt", "--sketch", "gk"],
            "--sketch is not valid for session",
        ),
        (
            &["serve", "--sketch", "gk"],
            "--sketch is not valid for serve",
        ),
        (
            &["shard", "m.txt", "--out", "b.bin", "--sketch", "gk"],
            "--sketch is not valid for shard",
        ),
    ];
    for (args, expected) in table {
        let out = run_bounded(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "`{}` unexpectedly succeeded",
            args.join(" ")
        );
        assert!(
            stderr.contains(expected),
            "`{}` stderr missing `{expected}`:\n{stderr}",
            args.join(" ")
        );
        assert!(
            !stderr.contains("cannot"),
            "`{}` did I/O before rejecting its flags:\n{stderr}",
            args.join(" ")
        );
        assert!(
            out.stdout.is_empty(),
            "`{}` printed to stdout",
            args.join(" ")
        );
    }
}

#[test]
fn analyze_reads_a_file_named_like_a_flag_value() {
    // A positional argument whose text equals a flag's value is still
    // the positional argument.
    let out = mbpta()
        .args(["measure", "--runs", "600", "--seed", "10000000"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let dir = std::env::temp_dir()
        .join("proxima_cli_test")
        .join("named_50");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    std::fs::write(dir.join("50"), &out.stdout).expect("write campaign");
    std::fs::write(dir.join("campaign.txt"), &out.stdout).expect("write campaign");

    let analyze = |file: &str| {
        let out = mbpta()
            .current_dir(&dir)
            .args(["analyze", file, "--block", "50"])
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "analyze {file}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let report = analyze("50");
    assert!(report.contains("headline budget @ 1e-12"), "{report}");
    assert_eq!(report, analyze("campaign.txt"));
}

#[test]
fn measure_ends_cleanly_when_stdout_closes() {
    // `mbpta measure | head -1`: a reader closing the pipe early is a
    // normal end for a filter, not a panic.
    let mut child = mbpta()
        .args(["measure", "--runs", "2000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn measure_then_analyze_pipeline() {
    // measure → file → analyze: the round trip a real user would run.
    let out = mbpta()
        .args(["measure", "--runs", "600", "--seed", "10000000"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let dir = std::env::temp_dir().join("proxima_cli_test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let file = dir.join("campaign.txt");
    std::fs::write(&file, &out.stdout).expect("write campaign");

    let out = mbpta()
        .args([
            "analyze",
            file.to_str().expect("utf8 path"),
            "--cutoff",
            "1e-9",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("PASSED"), "{text}");
    assert!(text.contains("headline budget @ 1e-9"));

    // The CV mode runs on the same file.
    let out = mbpta()
        .args(["analyze", file.to_str().expect("utf8 path"), "--cv"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("MBPTA-CV"));
}

#[test]
fn stream_from_file_emits_snapshots_and_final() {
    // measure → file → stream: incremental analysis of a recorded
    // campaign.
    let out = mbpta()
        .args(["measure", "--runs", "600", "--seed", "10000000"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let dir = std::env::temp_dir().join("proxima_cli_test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let file = dir.join("stream_campaign.txt");
    std::fs::write(&file, &out.stdout).expect("write campaign");

    let out = mbpta()
        .args([
            "stream",
            file.to_str().expect("utf8 path"),
            "--block",
            "25",
            "--every",
            "4",
            "--target-p",
            "1e-9",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("snapshot n="), "{text}");
    assert!(text.contains("pwcet@1e-9"), "{text}");
    assert!(text.contains("final n=600"), "{text}");
}

#[test]
fn stream_simulate_runs_live() {
    let out = mbpta()
        .args([
            "stream",
            "--simulate",
            "--runs",
            "400",
            "--block",
            "25",
            "--every",
            "4",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("snapshot n="), "{text}");
    assert!(text.contains("final n=400"), "{text}");
}

#[test]
fn stream_too_short_input_fails_cleanly() {
    let dir = std::env::temp_dir().join("proxima_cli_test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let file = dir.join("short.txt");
    std::fs::write(&file, "100\n101\n102\n").expect("write");
    let out = mbpta()
        .args(["stream", file.to_str().expect("utf8 path")])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("too small"));
}

/// Build a 3-channel tagged file by relabelling a measured campaign
/// round-robin, returning the path and the per-channel vectors.
fn tagged_fixture(name: &str) -> (std::path::PathBuf, Vec<(String, Vec<f64>)>) {
    let out = mbpta()
        .args(["measure", "--runs", "1800", "--seed", "10000000"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let values: Vec<f64> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .map(|l| l.trim().parse().expect("measurement"))
        .collect();
    let channels = ["alpha", "beta", "gamma"];
    let mut per_channel: Vec<(String, Vec<f64>)> = channels
        .iter()
        .map(|c| (c.to_string(), Vec::new()))
        .collect();
    let mut tagged = String::new();
    tagged.push_str("# tagged 3-channel feed\n");
    for (i, v) in values.iter().enumerate() {
        let c = i % channels.len();
        tagged.push_str(&format!("{} {v}\n", channels[c]));
        per_channel[c].1.push(*v);
    }
    let dir = std::env::temp_dir().join("proxima_cli_test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let file = dir.join(name);
    std::fs::write(&file, tagged).expect("write tagged feed");
    (file, per_channel)
}

#[test]
fn session_from_tagged_file_reports_all_channels_and_envelope() {
    let (file, channels) = tagged_fixture("session_feed.txt");
    let out = mbpta()
        .args([
            "session",
            file.to_str().expect("utf8 path"),
            "--block",
            "25",
            "--every",
            "300",
            "--target-p",
            "1e-9",
            "--jobs",
            "2",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("snapshot channel="), "{text}");
    assert!(text.contains("session total=1800 channels=3"), "{text}");
    for (name, times) in &channels {
        assert!(
            text.contains(&format!("channel {name} n={}", times.len())),
            "{text}"
        );
    }
    assert!(text.contains("envelope pwcet@1e-9"), "{text}");
}

#[test]
fn session_batch_engines_run_on_the_same_feed() {
    let (file, _) = tagged_fixture("session_feed_batch.txt");
    let out = mbpta()
        .args([
            "session",
            file.to_str().expect("utf8 path"),
            "--batch",
            "--block",
            "25",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("engine=batch"), "{text}");
    assert!(text.contains("envelope pwcet@1e-12"), "{text}");
}

#[test]
fn session_simulate_measures_all_paths_in_one_pool() {
    let out = mbpta()
        .args([
            "session",
            "--simulate",
            "--runs",
            "400",
            "--block",
            "25",
            "--every",
            "200",
            "--jobs",
            "2",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("session total=1600 channels=4"), "{text}");
    for path in ["nominal", "saturated-x", "saturated-y", "fault-recovery"] {
        assert!(text.contains(&format!("channel {path} ")), "{text}");
    }
    assert!(text.contains("envelope pwcet@1e-12"), "{text}");
}

#[test]
fn session_quarantines_bad_channel_but_reports_the_rest() {
    let (file, _) = tagged_fixture("session_feed_mixed.txt");
    // Append a degenerate channel: constant values cannot be analysed.
    let mut feed = std::fs::read_to_string(&file).expect("read fixture");
    for _ in 0..600 {
        feed.push_str("stuck 500\n");
    }
    let dir = std::env::temp_dir().join("proxima_cli_test");
    let mixed = dir.join("session_feed_with_bad.txt");
    std::fs::write(&mixed, feed).expect("write mixed feed");

    let out = mbpta()
        .args([
            "session",
            mixed.to_str().expect("utf8 path"),
            "--block",
            "25",
        ])
        .output()
        .expect("spawn");
    // Exit code signals the failed channel, but the healthy channels and
    // the envelope are still reported.
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("channel stuck FAILED"), "{text}");
    assert!(text.contains("channel alpha n="), "{text}");
    assert!(text.contains("envelope pwcet@1e-12"), "{text}");
}

#[test]
fn session_sharded_report_is_identical_at_every_shard_count() {
    // The end-to-end determinism invariant the CI job enforces on the
    // built binary: federated channels fold block-aligned shard states,
    // so the report must not depend on the shard count (or on --jobs).
    let run = |shards: &str, jobs: &str| {
        let out = mbpta()
            .args([
                "session",
                "--simulate",
                "--runs",
                "800",
                "--block",
                "25",
                "--shards",
                shards,
                "--jobs",
                jobs,
            ])
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let reference = run("1", "1");
    assert!(reference.contains("engine=federated"), "{reference}");
    assert!(reference.contains("envelope pwcet@1e-12"), "{reference}");
    for (shards, jobs) in [("4", "1"), ("1", "8"), ("4", "8")] {
        assert_eq!(
            reference,
            run(shards, jobs),
            "report diverged at --shards {shards} --jobs {jobs}"
        );
    }
}

#[test]
fn session_rejects_conflicting_flag_combos() {
    // Table-driven negative paths: every conflicting combination must be
    // rejected fast (before any measuring/IO) with a pointed message.
    // Covers the pre-existing --shards conflicts plus the checkpoint /
    // resume flag surface.
    let table: &[(&[&str], &str)] = &[
        // Engine-selection conflicts (PR 4 invariants).
        (
            &["session", "--simulate", "--batch", "--shards", "2"],
            "--shards",
        ),
        (
            &[
                "session",
                "--simulate",
                "--shards",
                "2",
                "--stop-on-converged",
            ],
            "--stop-on-converged",
        ),
        // Checkpoint flags come in pairs.
        (
            &["session", "--simulate", "--checkpoint", "ck.bin"],
            "--checkpoint requires",
        ),
        (
            &["session", "--simulate", "--checkpoint-every", "100"],
            "--checkpoint-every requires",
        ),
        (
            &[
                "session",
                "--simulate",
                "--checkpoint",
                "ck.bin",
                "--checkpoint-every",
                "0",
            ],
            "--checkpoint-every must be positive",
        ),
        // --resume records the configuration; re-specifying it conflicts.
        (
            &["session", "--resume", "ck.bin", "--batch"],
            "--batch conflicts with --resume",
        ),
        (
            &["session", "--resume", "ck.bin", "--shards", "4"],
            "--shards conflicts with --resume",
        ),
        (
            &["session", "--resume", "ck.bin", "--block", "25"],
            "--block conflicts with --resume",
        ),
        (
            &["session", "--resume", "ck.bin", "--every", "100"],
            "--every conflicts with --resume",
        ),
        (
            &["session", "--resume", "ck.bin", "--target-p", "1e-9"],
            "--target-p conflicts with --resume",
        ),
        (
            &["session", "--resume", "ck.bin", "--stop-on-converged"],
            "--stop-on-converged conflicts with --resume",
        ),
        (
            &["session", "--resume", "ck.bin", "--simulate"],
            "--simulate conflicts with --resume",
        ),
        (
            &["session", "--resume", "ck.bin", "--runs", "100"],
            "--runs conflicts with --resume",
        ),
        (
            &["session", "--resume", "ck.bin", "--seed", "7"],
            "--seed conflicts with --resume",
        ),
        // Simulation-only flags still need --simulate.
        (&["session", "--runs", "100"], "--runs requires --simulate"),
        (&["session", "--seed", "5"], "--seed requires --simulate"),
        // --path never applied to sessions.
        (
            &["session", "--simulate", "--path", "nominal"],
            "--path is not valid",
        ),
    ];
    for (args, expected) in table {
        let out = mbpta().args(*args).output().expect("spawn");
        assert!(
            !out.status.success(),
            "`{}` unexpectedly succeeded",
            args.join(" ")
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(expected),
            "`{}` stderr missing `{expected}`:\n{stderr}",
            args.join(" ")
        );
    }
}

#[test]
fn session_resume_rejects_missing_and_corrupt_checkpoints() {
    let out = mbpta()
        .args(["session", "--resume", "/nonexistent/ck.bin"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cannot open"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let dir = std::env::temp_dir().join("proxima_cli_test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let bogus = dir.join("bogus_checkpoint.bin");
    std::fs::write(&bogus, b"definitely not a checkpoint").expect("write");
    let out = mbpta()
        .args(["session", "--resume", bogus.to_str().expect("utf8 path")])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("checkpoint"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn session_checkpoint_crash_resume_is_bit_identical() {
    // The restart-determinism contract, end to end on the built binary:
    // crash a checkpointing session mid-campaign (deterministically, via
    // --crash-after), resume from the last atomic checkpoint, and the
    // resumed stdout must be an exact suffix of the uninterrupted run's
    // — snapshots and final report alike — for stream and federated
    // engines.
    let dir = std::env::temp_dir().join("proxima_cli_test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    for (label, extra) in [("stream", &[][..]), ("federated", &["--shards", "4"][..])] {
        let ck = dir.join(format!("crash_resume_{label}.bin"));
        let _ = std::fs::remove_file(&ck);
        let base = ["session", "--simulate", "--runs", "500", "--block", "25"];

        let full = mbpta().args(base).args(extra).output().expect("spawn");
        assert!(full.status.success());
        let full_log = String::from_utf8_lossy(&full.stdout).to_string();

        let crashed = mbpta()
            .args(base)
            .args(extra)
            .args([
                "--checkpoint",
                ck.to_str().expect("utf8 path"),
                "--checkpoint-every",
                "600",
                "--crash-after",
                "1500",
            ])
            .output()
            .expect("spawn");
        assert!(!crashed.status.success(), "--crash-after must kill the run");
        assert!(ck.exists(), "a checkpoint must survive the crash");

        let resumed = mbpta()
            .args(["session", "--resume", ck.to_str().expect("utf8 path")])
            .output()
            .expect("spawn");
        assert!(
            resumed.status.success(),
            "{}",
            String::from_utf8_lossy(&resumed.stderr)
        );
        let resumed_log = String::from_utf8_lossy(&resumed.stdout).to_string();
        assert!(
            full_log.ends_with(&resumed_log),
            "[{label}] resumed output is not a suffix of the uninterrupted run\n\
             --- uninterrupted ---\n{full_log}\n--- resumed ---\n{resumed_log}"
        );
        assert!(resumed_log.contains("session total=2000 channels=4"));
    }
}

#[test]
fn session_rejects_malformed_tagged_line() {
    let dir = std::env::temp_dir().join("proxima_cli_test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let file = dir.join("session_bad_line.txt");
    std::fs::write(&file, "alpha 100\nnot-a-tagged-line\n").expect("write");
    let out = mbpta()
        .args(["session", file.to_str().expect("utf8 path")])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("bad tagged line"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn analyze_missing_file_fails() {
    let out = mbpta()
        .args(["analyze", "/nonexistent/measurements.txt"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
}

#[test]
fn analyze_names_the_unparsable_line_like_stream_does() {
    let dir = std::env::temp_dir().join("proxima_cli_test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let file = dir.join("oops.txt");
    std::fs::write(&file, "# cycles\n100\n101\noops\n102\n").expect("write");
    let path = file.to_str().expect("utf8 path");
    for command in ["analyze", "stream"] {
        let out = mbpta().args([command, path]).output().expect("spawn");
        assert!(!out.status.success(), "{command} accepted a bad line");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unparsable measurement line 4: `oops`"),
            "{command}: {stderr}"
        );
    }
}

#[test]
fn analyze_rejects_degenerate_input() {
    let dir = std::env::temp_dir().join("proxima_cli_test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let file = dir.join("constant.txt");
    std::fs::write(&file, "100\n".repeat(500)).expect("write");
    let out = mbpta()
        .args(["analyze", file.to_str().expect("utf8 path")])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
}
