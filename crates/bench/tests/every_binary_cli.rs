//! CLI contract over every binary in `src/bin`: an argument nobody owns,
//! a bad value of each engine flag, and an output path that cannot be
//! written, end the binary with exit status 2 and a message naming the
//! flag or the path, before any work starts (no `[setup]` line, nothing on
//! stdout) and without a panic.

use std::process::Command;

use xlmc::estimator::CampaignOptions;

/// Every binary, and whether it takes the campaign engine's flags.
const BINARIES: &[(&str, &str, bool)] = &[
    (
        "ablation_alpha_beta",
        env!("CARGO_BIN_EXE_ablation_alpha_beta"),
        true,
    ),
    ("bench_campaign", env!("CARGO_BIN_EXE_bench_campaign"), true),
    (
        "fig04_characterization",
        env!("CARGO_BIN_EXE_fig04_characterization"),
        true,
    ),
    (
        "fig07_error_patterns",
        env!("CARGO_BIN_EXE_fig07_error_patterns"),
        true,
    ),
    (
        "fig08_sampling_dist",
        env!("CARGO_BIN_EXE_fig08_sampling_dist"),
        true,
    ),
    (
        "fig09_convergence",
        env!("CARGO_BIN_EXE_fig09_convergence"),
        true,
    ),
    (
        "fig10_outcome_split",
        env!("CARGO_BIN_EXE_fig10_outcome_split"),
        true,
    ),
    (
        "fig11_attack_uncertainty",
        env!("CARGO_BIN_EXE_fig11_attack_uncertainty"),
        true,
    ),
    (
        "hardening_study",
        env!("CARGO_BIN_EXE_hardening_study"),
        true,
    ),
    (
        "scenario_matrix",
        env!("CARGO_BIN_EXE_scenario_matrix"),
        false,
    ),
    ("validate_json", env!("CARGO_BIN_EXE_validate_json"), false),
];

/// The output-path flags a binary owns next to the engine's.
fn own_output_flags(name: &str) -> &'static [&'static str] {
    match name {
        "bench_campaign" => &["--bench-json"],
        "scenario_matrix" => &["--out"],
        _ => &[],
    }
}

/// The engine flags that name an output path.
const ENGINE_OUTPUT_FLAGS: &[&str] =
    &["--metrics", "--checkpoint", "--events", "--prom", "--trace"];

/// A value each engine flag rejects; path flags accept any string.
fn bad_value(flag: &str) -> Option<&'static str> {
    match flag {
        "--metrics" | "--checkpoint" | "--trace" | "--events" | "--prom" => None,
        _ => Some("foo"),
    }
}

/// Run `bin` with `args` and assert the exit-2 contract, the message
/// naming `flag`.
fn assert_rejected(name: &str, bin: &str, args: &[&str], flag: &str) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
    let err = String::from_utf8_lossy(&out.stderr);
    let ctx = format!("{name} {args:?}: stderr {err:?}");
    assert_eq!(out.status.code(), Some(2), "{ctx}");
    assert!(err.starts_with("error: "), "{ctx}");
    assert!(err.contains(flag), "{ctx}: the message must name {flag}");
    assert!(!err.contains("panicked at"), "{ctx}");
    assert!(!err.contains("[setup]"), "{ctx}: work started");
    assert!(out.stdout.is_empty(), "{ctx}: work started");
}

#[test]
fn the_table_names_every_binary() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin");
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter_map(|f| f.strip_suffix(".rs").map(str::to_owned))
        .collect();
    files.sort();
    let table: Vec<&str> = BINARIES.iter().map(|&(name, _, _)| name).collect();
    assert_eq!(files, table);
}

#[test]
fn unknown_flags_exit_two_in_every_binary() {
    for &(name, bin, _) in BINARIES {
        for args in [
            &["--bogus", "1"][..],
            &["--thread", "4"],
            &["--metric", "m.json"],
        ] {
            assert_rejected(name, bin, args, args[0]);
        }
    }
}

#[test]
fn stray_positional_arguments_exit_two_in_every_engine_binary() {
    for &(name, bin, engine) in BINARIES.iter().filter(|b| b.2) {
        assert!(engine);
        assert_rejected(name, bin, &["--threads", "1", "extra"], "extra");
    }
}

#[test]
fn bad_engine_flag_values_exit_two_in_every_engine_binary() {
    for &(name, bin, _) in BINARIES.iter().filter(|b| b.2) {
        for &flag in CampaignOptions::VALUE_FLAGS {
            if let Some(value) = bad_value(flag) {
                assert_rejected(name, bin, &[flag, value], flag);
                let inline = format!("{flag}={value}");
                assert_rejected(name, bin, &[&inline], flag);
            }
            // A flag missing its value.
            assert_rejected(name, bin, &[flag], flag);
        }
    }
}

/// Every output-path flag of every binary, pointed into a directory that
/// does not exist, exits 2 naming the path before any work; nothing is
/// created. The trace writer makes missing directories itself, so its
/// path is put under a regular file instead, where no directory can be
/// made.
#[test]
fn output_paths_that_cannot_be_written_exit_two_in_every_binary() {
    let dir = std::env::temp_dir().join(format!("xlmc-cli-paths-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("file"), "").unwrap();
    let missing = dir.join("no-such-dir").join("out.json");
    let under_file = dir.join("file").join("out.json");
    for &(name, bin, engine) in BINARIES {
        let engine_flags = if engine { ENGINE_OUTPUT_FLAGS } else { &[] };
        for &flag in engine_flags.iter().chain(own_output_flags(name)) {
            let path = if flag == "--trace" {
                &under_file
            } else {
                &missing
            };
            let path = path.to_str().unwrap();
            assert_rejected(name, bin, &[flag, path], path);
            assert_rejected(name, bin, &[&format!("{flag}={path}")], path);
        }
    }
    assert!(
        !dir.join("no-such-dir").exists(),
        "a missing directory was made"
    );
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        1,
        "a file was left"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
