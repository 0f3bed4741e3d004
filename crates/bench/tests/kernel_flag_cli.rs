//! CLI contract for `--kernel`: a value the engine does not have — the
//! removed 64-lane kernel's `batched` included — is rejected before any
//! work starts, with a message naming the flag, the value and the valid
//! spellings, and exit status 2. The removed `--fast-forward` flag is
//! rejected the same way, as an unknown flag. A corrupt `--checkpoint`
//! file also exits 2, with one line naming it, once the campaign reads it,
//! and so does a `--metrics` path in a missing directory, before the first
//! campaign runs a chunk, and a `bench_campaign --bench-json` path in a
//! missing directory, before the first row.

use std::process::Command;

#[test]
fn unknown_kernel_values_exit_two_with_the_valid_spellings() {
    for value in ["batched", "bogus"] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig10_outcome_split"))
            .args(["--kernel", value])
            .output()
            .expect("spawn fig10_outcome_split");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "stderr: {err}");
        assert_eq!(
            err.trim_end(),
            format!(
                "error: invalid --kernel value \"{value}\": expected \"scalar\" or \"compiled\""
            )
        );
        assert!(out.stdout.is_empty(), "no work may start");
    }
}

#[test]
fn removed_fast_forward_flag_exits_two_as_unknown() {
    for argv in [
        ["--fast-forward", "on"],
        ["--fast-forward", "off"],
        ["--fast-forward=on", "--threads=1"],
        ["--fast-forward=off", "--threads=1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig10_outcome_split"))
            .args(argv)
            .output()
            .expect("spawn fig10_outcome_split");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: stderr: {err}");
        assert_eq!(err.trim_end(), "error: unknown flag --fast-forward");
        assert!(out.stdout.is_empty(), "{argv:?}: no work may start");
    }
}

/// A corrupt `--checkpoint` file ends the binary with one line naming the
/// path and exit status 2, not a panic.
#[test]
fn corrupt_checkpoint_exits_two_without_a_panic() {
    let dir = std::env::temp_dir().join(format!("xlmc-cli-ck-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("ck.json");
    // The binary's first campaign resumes from its tagged path.
    let tagged = dir.join("ck.fig10a-comb-random.json");
    std::fs::write(&tagged, "{\"format\": \"xlmc-checkpoint-v4\", \"seed\": ").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_fig10_outcome_split"))
        .args(["--checkpoint".as_ref(), ck.as_os_str()])
        .output()
        .expect("spawn fig10_outcome_split");
    let err = String::from_utf8_lossy(&out.stderr);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(!err.contains("panicked at"), "stderr: {err}");
    let last = err.lines().last().unwrap_or_default();
    assert!(
        last.starts_with(&format!(
            "error: checkpoint {} is not a valid checkpoint",
            tagged.display()
        )),
        "stderr: {err}"
    );
}

/// A `--metrics` path in a missing directory ends the binary with one line
/// naming the path and exit status 2, not a panic, before any work: the
/// per-campaign tagged files would sit in the same directory.
#[test]
fn metrics_in_a_missing_directory_exits_two_without_a_panic() {
    let dir = std::env::temp_dir().join(format!("xlmc-cli-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let metrics = dir.join("m.json");
    let out = Command::new(env!("CARGO_BIN_EXE_fig10_outcome_split"))
        .args(["--metrics".as_ref(), metrics.as_os_str()])
        .output()
        .expect("spawn fig10_outcome_split");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(!err.contains("panicked at"), "stderr: {err}");
    assert!(
        err.starts_with(&format!(
            "error: metrics {} cannot be written",
            metrics.display()
        )),
        "no work may start before the check: {err}"
    );
    assert_eq!(err.lines().count(), 1, "stderr: {err}");
    assert!(out.stdout.is_empty(), "no result may be printed");
    assert!(!dir.exists(), "nothing may be written");
}

/// A `bench_campaign --bench-json` path in a missing directory ends the
/// binary with one line naming it and exit status 2, not a panic, before
/// the first row runs.
#[test]
fn bench_json_in_a_missing_directory_exits_two_before_any_row() {
    let dir = std::env::temp_dir().join(format!("xlmc-cli-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let json = dir.join("bench.json");
    let out = Command::new(env!("CARGO_BIN_EXE_bench_campaign"))
        .arg("--smoke")
        .args(["--bench-json".as_ref(), json.as_os_str()])
        .output()
        .expect("spawn bench_campaign");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(!err.contains("panicked at"), "stderr: {err}");
    assert!(
        err.starts_with(&format!(
            "error: bench-json {} cannot be written",
            json.display()
        )),
        "no work may start before the check: {err}"
    );
    assert_eq!(err.lines().count(), 1, "stderr: {err}");
    assert!(out.stdout.is_empty(), "no row may be printed");
    assert!(!dir.exists(), "nothing may be written");
}
