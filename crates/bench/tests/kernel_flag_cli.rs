//! CLI contract for `--kernel`: a value the engine does not have — the
//! removed 64-lane kernel's `batched` included — is rejected before any
//! work starts, with a message naming the flag, the value and the valid
//! spellings, and exit status 2. The removed `--fast-forward` flag is
//! rejected the same way, as an unknown flag.

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
