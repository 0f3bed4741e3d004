//! CLI contract for `--kernel`: a value the engine does not have — the
//! removed 64-lane kernel's `batched` included — is rejected before any
//! work starts, with a message naming the flag, the value and the valid
//! spellings, and exit status 2.

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
