//! Engine fault injection: bad checkpoint inputs and I/O failures end a
//! campaign with a typed [`CampaignError`] naming the path, never with a
//! panic, at one worker and at four.
//!
//! Covered: a truncated file, a file that is not JSON, a foreign format
//! tag, a checkpoint written by a campaign with another seed, strategy,
//! kernel or estimator, a checkpoint path whose directory does not
//! exist, and a metrics, trace, prom or events path under a regular file
//! (both found before the first chunk runs). A rejected checkpoint is
//! left as it was. A campaign killed through its observer at a random
//! chunk boundary, at the first chunk, at a checkpoint-cadence boundary or
//! at the early-stop boundary resumes from its checkpoint to the
//! uninterrupted result, at any seed (a seed above 2^53 included). Every
//! single-bit flip of a valid checkpoint resumes to the uninterrupted
//! result or is refused.

use proptest::prelude::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use xlmc::estimator::{
    run_campaign_observed, CampaignError, CampaignKernel, CampaignOptions, EstimatorKind,
    StopReason, CHUNK_RUNS,
};
use xlmc::flow::FaultRunner;
use xlmc::harden::{DupConfigVote, HardenedVariant};
use xlmc::sampling::{
    baseline_distribution, ExperimentConfig, ImportanceSampling, RandomSampling, SamplingStrategy,
};
use xlmc::telemetry::{CampaignObserver, NullObserver, ObserverAction, ProgressEvent};
use xlmc::{Evaluation, Precharacterization, SystemModel};
use xlmc_soc::workloads;

const SEED: u64 = 0xFA17;
const RUNS: usize = 4 * CHUNK_RUNS;

struct Fixture {
    model: SystemModel,
    write_eval: Evaluation,
    prechar: Precharacterization,
    cfg: ExperimentConfig,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let model = SystemModel::with_defaults().unwrap();
        let write_eval = Evaluation::new(workloads::illegal_write()).unwrap();
        let cfg = ExperimentConfig {
            t_max: 16,
            ..Default::default()
        };
        let prechar = Precharacterization::run(&model, cfg.t_max, cfg.max_radius());
        Fixture {
            model,
            write_eval,
            prechar,
            cfg,
        }
    })
}

fn runner(f: &Fixture) -> FaultRunner<'_> {
    FaultRunner {
        model: &f.model,
        eval: &f.write_eval,
        prechar: &f.prechar,
        hardening: None,
        multi_fault: None,
    }
}

fn random(f: &Fixture) -> RandomSampling {
    RandomSampling::new(baseline_distribution(&f.model, &f.cfg))
}

/// A fresh directory under the system temp dir, unique to this process
/// and test.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xlmc-faults-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts(path: &Path, threads: usize) -> CampaignOptions {
    CampaignOptions {
        threads,
        checkpoint_path: Some(path.to_owned()),
        checkpoint_every_runs: CHUNK_RUNS,
        ..CampaignOptions::default()
    }
}

/// Counts the chunk boundaries a campaign merged.
#[derive(Default)]
struct Boundaries(usize);

impl CampaignObserver for Boundaries {
    fn on_progress(&mut self, _event: &ProgressEvent) -> ObserverAction {
        self.0 += 1;
        ObserverAction::Continue
    }
}

/// Run a campaign that must fail on its checkpoint: the error names
/// `path`, and its reason contains `what`. Returns how many chunks were
/// merged before the error.
fn expect_checkpoint_error(
    strategy: &dyn SamplingStrategy,
    seed: u64,
    options: &CampaignOptions,
    what: &str,
) -> usize {
    let f = fixture();
    let path = options.checkpoint_path.clone().unwrap();
    let mut merged = Boundaries::default();
    let err = run_campaign_observed(&runner(f), strategy, RUNS, seed, options, &mut merged)
        .expect_err("the checkpoint must be rejected");
    let CampaignError::Checkpoint {
        path: named,
        reason,
    } = &err
    else {
        panic!("expected a checkpoint error: {err}");
    };
    assert_eq!(named, &path, "{err}");
    assert!(reason.contains(what), "expected {what:?} in: {err}");
    assert!(
        err.to_string().contains(&path.display().to_string()),
        "the message names the path: {err}"
    );
    merged.0
}

/// A valid single-estimator checkpoint of the random strategy after two
/// chunks, written under the compiled kernel with [`SEED`].
fn valid_checkpoint(dir: &Path) -> PathBuf {
    let f = fixture();
    let path = dir.join("valid.json");
    let options = opts(&path, 1);
    let partial = run_campaign_observed(
        &runner(f),
        &random(f),
        2 * CHUNK_RUNS,
        SEED,
        &options,
        &mut NullObserver,
    )
    .expect("write a valid checkpoint");
    assert_eq!(partial.n, 2 * CHUNK_RUNS);
    path
}

/// Write `bytes` as the checkpoint, run against it, and require the
/// error and the file left untouched.
fn check_bad_file(name: &str, bytes: &str, what: &str) {
    let f = fixture();
    let dir = scratch_dir(name);
    for threads in [1, 4] {
        let path = dir.join(format!("ck-t{threads}.json"));
        std::fs::write(&path, bytes).unwrap();
        expect_checkpoint_error(&random(f), SEED, &opts(&path, threads), what);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            bytes,
            "left as it was"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_checkpoint_is_an_error() {
    let dir = scratch_dir("truncated-src");
    let full = std::fs::read_to_string(valid_checkpoint(&dir)).unwrap();
    check_bad_file(
        "truncated",
        &full[..full.len() / 2],
        "is not a valid checkpoint",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_json_checkpoint_is_an_error() {
    check_bad_file(
        "non-json",
        "this is not a checkpoint\n",
        "is not a valid checkpoint",
    );
}

#[test]
fn wrong_format_tag_is_an_error() {
    let dir = scratch_dir("format-src");
    let full = std::fs::read_to_string(valid_checkpoint(&dir)).unwrap();
    let foreign = full.replace("xlmc-checkpoint-v4", "xlmc-checkpoint-v3");
    check_bad_file("format", &foreign, "unsupported checkpoint format");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resume a valid checkpoint with one campaign parameter changed.
fn check_mismatch(name: &str, what: &str, resume: impl Fn(&Path, usize)) {
    let dir = scratch_dir(name);
    let path = valid_checkpoint(&dir);
    let bytes = std::fs::read_to_string(&path).unwrap();
    for threads in [1, 4] {
        resume(&path, threads);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            bytes,
            "{what}: a rejected checkpoint is left as it was"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_seed_resume_is_an_error() {
    let f = fixture();
    check_mismatch("seed", "seed", |path, threads| {
        expect_checkpoint_error(&random(f), SEED + 1, &opts(path, threads), "seed");
    });
}

#[test]
fn wrong_strategy_resume_is_an_error() {
    let f = fixture();
    let importance = ImportanceSampling::new(
        baseline_distribution(&f.model, &f.cfg),
        &f.model,
        &f.prechar,
        f.cfg.alpha,
        f.cfg.beta,
        f.cfg.radius_options.clone(),
    );
    check_mismatch("strategy", "strategy", |path, threads| {
        expect_checkpoint_error(&importance, SEED, &opts(path, threads), "strategy");
    });
}

#[test]
fn wrong_kernel_resume_is_an_error() {
    let f = fixture();
    check_mismatch("kernel", "kernel", |path, threads| {
        let options = CampaignOptions {
            kernel: CampaignKernel::Scalar,
            ..opts(path, threads)
        };
        expect_checkpoint_error(&random(f), SEED, &options, "kernel");
    });
}

#[test]
fn wrong_estimator_resume_is_an_error() {
    let f = fixture();
    check_mismatch("estimator", "estimator", |path, threads| {
        let options = CampaignOptions {
            estimator: EstimatorKind::Mlmc,
            ..opts(path, threads)
        };
        expect_checkpoint_error(&random(f), SEED, &options, "estimator");
    });
}

/// A checkpoint path in a missing directory is found before the first
/// chunk runs, under either estimator and at one worker or four.
#[test]
fn checkpoint_in_a_missing_directory_is_an_error() {
    let f = fixture();
    let dir = scratch_dir("missing");
    let path = dir.join("no-such-dir").join("ck.json");
    for estimator in [EstimatorKind::Single, EstimatorKind::Mlmc] {
        for threads in [1, 4] {
            let options = CampaignOptions {
                estimator,
                ..opts(&path, threads)
            };
            let merged = expect_checkpoint_error(&random(f), SEED, &options, "cannot be written");
            assert_eq!(merged, 0, "{estimator:?} at {threads} threads ran a chunk");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A metrics, trace, prom or events path that cannot be written (its
/// directory would sit under a regular file, so not even the trace
/// writer, which creates missing directories, can make it) ends the
/// campaign with an artifact error naming it, before the first chunk
/// runs, at one worker and at four; nothing else is left in the
/// directory.
#[test]
fn unwritable_artifact_path_is_an_error() {
    let f = fixture();
    let dir = scratch_dir("artifact");
    std::fs::write(dir.join("file"), "").unwrap();
    let path = dir.join("file").join("out.json");
    type SetPath = fn(&mut CampaignOptions, PathBuf);
    let cases: [(&str, SetPath); 4] = [
        ("metrics", |o, p| o.metrics_path = Some(p)),
        ("trace", |o, p| o.trace_path = Some(p)),
        ("prom", |o, p| o.prom_path = Some(p)),
        ("events", |o, p| o.events_path = Some(p)),
    ];
    for (what, set) in cases {
        for threads in [1, 4] {
            let mut options = CampaignOptions {
                threads,
                ..CampaignOptions::default()
            };
            set(&mut options, path.clone());
            let mut merged = Boundaries::default();
            let err =
                run_campaign_observed(&runner(f), &random(f), RUNS, SEED, &options, &mut merged)
                    .expect_err("the artifact path must be rejected");
            let CampaignError::Artifact {
                what: named,
                path: at,
                reason,
            } = &err
            else {
                panic!("expected an artifact error: {err}");
            };
            assert_eq!((*named, at), (what, &path), "{err}");
            assert!(reason.contains("cannot be written"), "{err}");
            assert!(
                err.to_string().contains(&path.display().to_string()),
                "{err}"
            );
            assert_eq!(merged.0, 0, "{what} at {threads} threads ran a chunk");
        }
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The write probe neither truncates nor removes a file that is already
/// there, even when the probed temp file is the checkpoint itself (a
/// `.tmp` checkpoint path): the finished checkpoint resumes unchanged.
#[test]
fn the_path_probe_keeps_existing_files() {
    let f = fixture();
    let dir = scratch_dir("probe");
    let ck = dir.join("ck.tmp");
    let options = opts(&ck, 1);
    run_campaign_observed(
        &runner(f),
        &random(f),
        2 * CHUNK_RUNS,
        SEED,
        &options,
        &mut NullObserver,
    )
    .expect("write the checkpoint");
    let before = std::fs::read(&ck).unwrap();
    let metrics = dir.join("m.json");
    let options = CampaignOptions {
        metrics_path: Some(metrics.clone()),
        ..options
    };
    let mut merged = Boundaries::default();
    let result = run_campaign_observed(
        &runner(f),
        &random(f),
        2 * CHUNK_RUNS,
        SEED,
        &options,
        &mut merged,
    )
    .expect("resume the finished checkpoint");
    assert_eq!(result.n, 2 * CHUNK_RUNS);
    assert_eq!(merged.0, 0, "the whole campaign was resumed");
    assert_eq!(std::fs::read(&ck).unwrap(), before);
    assert!(metrics.is_file());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A campaign seeded above 2^53, killed after two of its four chunks,
/// resumes from its checkpoint to the uninterrupted result: the seed is
/// read back exactly, not through an `f64`.
#[test]
fn a_checkpoint_seeded_above_two_to_the_53_resumes_exactly() {
    let f = fixture();
    let dir = scratch_dir("big-seed");
    let path = dir.join("ck.json");
    let seed = u64::MAX;
    let reference = run_campaign_observed(
        &runner(f),
        &random(f),
        RUNS,
        seed,
        &CampaignOptions::default(),
        &mut NullObserver,
    )
    .unwrap();
    let partial = run_campaign_observed(
        &runner(f),
        &random(f),
        RUNS,
        seed,
        &opts(&path, 1),
        &mut AbortAt(2 * CHUNK_RUNS),
    )
    .unwrap();
    assert_eq!(partial.stop, StopReason::Aborted);
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains(&format!("\"seed\": {seed},")), "{text}");
    let mut resumed = run_campaign_observed(
        &runner(f),
        &random(f),
        RUNS,
        seed,
        &opts(&path, 1),
        &mut NullObserver,
    )
    .expect("the checkpoint resumes");
    resumed.kernel_counters = reference.kernel_counters;
    assert_eq!(resumed, reference);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The object member whose value holds byte `at` of a checkpoint: the key
/// of the nearest `"key": ` before it.
fn member_at(text: &[u8], at: usize) -> String {
    let head = &text[..at];
    let colon = (0..head.len().saturating_sub(2))
        .rev()
        .find(|&i| &head[i..i + 3] == b"\": ")
        .unwrap_or(0);
    let open = head[..colon]
        .iter()
        .rposition(|&b| b == b'"')
        .map_or(0, |i| i + 1);
    String::from_utf8_lossy(&head[open..colon]).into_owned()
}

/// Every single-bit flip of every byte of a valid checkpoint, resumed:
/// the resume never panics, and either gives the uninterrupted result bit
/// for bit or ends in a checkpoint error naming the path. The body's
/// checksum catches a flip in a value the file stores only once; the
/// counts, boundaries and header fields are cross-checked as well.
#[test]
fn every_bit_flip_of_a_checkpoint_resumes_exactly_or_is_an_error() {
    let f = fixture();
    let dir = scratch_dir("bit-flips");
    let valid = std::fs::read(valid_checkpoint(&dir)).unwrap();
    let path = dir.join("flipped.json");
    let resume = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        run_campaign_observed(
            &runner(f),
            &random(f),
            2 * CHUNK_RUNS,
            SEED,
            &opts(&path, 1),
            &mut NullObserver,
        )
    };
    let reference = resume(&valid).expect("the valid checkpoint resumes");
    assert_eq!(reference.n, 2 * CHUNK_RUNS);
    let (mut refused, mut exact) = (0, 0);
    for at in 0..valid.len() {
        for bit in 0..8 {
            let mut bytes = valid.clone();
            bytes[at] ^= 1 << bit;
            let what = format!(
                "byte {at} ({:?} -> {:?}) in {:?}",
                valid[at] as char,
                bytes[at] as char,
                member_at(&valid, at)
            );
            match resume(&bytes) {
                Err(CampaignError::Checkpoint { path: named, .. }) => {
                    assert_eq!(named, path, "{what}");
                    refused += 1;
                }
                Err(e) => panic!("{what}: {e}"),
                Ok(r) => {
                    assert!(r == reference, "{what} resumed to another result");
                    exact += 1;
                }
            }
        }
    }
    assert!(refused > exact, "{refused} {exact}");
    eprintln!("{refused} refused, {exact} exact");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Aborts the campaign at the first chunk boundary with at least this
/// many runs merged.
struct AbortAt(usize);

impl CampaignObserver for AbortAt {
    fn on_progress(&mut self, event: &ProgressEvent) -> ObserverAction {
        if event.runs_done >= self.0 {
            ObserverAction::Abort
        } else {
            ObserverAction::Continue
        }
    }
}

/// Abort a checkpointed random-sampling campaign of `n` runs through its
/// observer at the first boundary with `abort_at` runs merged, at one
/// worker and at four: it stops `Aborted` with `n` the merged prefix, its
/// checkpoint holds `saved` merged chunks (none: no file), and resuming
/// it gives `reference` in every deterministic field.
fn abort_and_resume(
    tag: &str,
    n: usize,
    base: &CampaignOptions,
    abort_at: usize,
    saved: Option<usize>,
    reference: &xlmc::estimator::CampaignResult,
) {
    let f = fixture();
    for threads in [1, 4] {
        let dir = scratch_dir(&format!("{tag}-t{threads}"));
        let path = dir.join("ck.json");
        let options = CampaignOptions {
            threads,
            checkpoint_path: Some(path.clone()),
            ..base.clone()
        };
        let partial = run_campaign_observed(
            &runner(f),
            &random(f),
            n,
            SEED,
            &options,
            &mut AbortAt(abort_at),
        )
        .unwrap();
        assert_eq!(partial.stop, StopReason::Aborted, "{tag} t{threads}");
        assert_eq!(partial.n, abort_at, "{tag} t{threads}: the merged prefix");
        match saved {
            None => assert!(!path.exists(), "{tag} t{threads}: no checkpoint yet"),
            Some(chunks) => {
                let text = std::fs::read_to_string(&path).unwrap();
                let merged = format!("\"merged_chunks\": {chunks},");
                assert!(text.contains(&merged), "{tag} t{threads}: {text}");
            }
        }
        let mut resumed =
            run_campaign_observed(&runner(f), &random(f), n, SEED, &options, &mut NullObserver)
                .expect("the checkpoint resumes");
        resumed.kernel_counters = reference.kernel_counters;
        assert_eq!(&resumed, reference, "{tag} t{threads}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// An abort at the first chunk boundary precedes that boundary's
/// checkpoint write: nothing is saved, and the rerun starts over.
#[test]
fn an_abort_at_the_first_chunk_resumes_exactly() {
    let f = fixture();
    let base = CampaignOptions {
        checkpoint_every_runs: CHUNK_RUNS,
        ..CampaignOptions::default()
    };
    let reference = run_campaign_observed(
        &runner(f),
        &random(f),
        RUNS,
        SEED,
        &CampaignOptions::default(),
        &mut NullObserver,
    )
    .unwrap();
    abort_and_resume("abort-first", RUNS, &base, CHUNK_RUNS, None, &reference);
}

/// An abort at a checkpoint-cadence boundary (every second chunk) skips
/// that boundary's write: the file keeps the cadence boundary before it.
#[test]
fn an_abort_at_a_checkpoint_boundary_resumes_exactly() {
    let f = fixture();
    let n = 6 * CHUNK_RUNS;
    let base = CampaignOptions {
        checkpoint_every_runs: 2 * CHUNK_RUNS,
        ..CampaignOptions::default()
    };
    let reference = run_campaign_observed(
        &runner(f),
        &random(f),
        n,
        SEED,
        &CampaignOptions::default(),
        &mut NullObserver,
    )
    .unwrap();
    abort_and_resume(
        "abort-cadence",
        n,
        &base,
        4 * CHUNK_RUNS,
        Some(2),
        &reference,
    );
}

/// An abort at the boundary where `--target-eps` would stop the campaign
/// wins over the stop rule, and the resumed campaign stops at that same
/// boundary for the rule's reason.
#[test]
fn an_abort_at_the_early_stop_boundary_resumes_exactly() {
    let f = fixture();
    let n = 16 * CHUNK_RUNS;
    let base = CampaignOptions {
        target_eps: Some(0.01),
        checkpoint_every_runs: CHUNK_RUNS,
        ..CampaignOptions::default()
    };
    let reference = run_campaign_observed(
        &runner(f),
        &random(f),
        n,
        SEED,
        &CampaignOptions {
            target_eps: base.target_eps,
            ..CampaignOptions::default()
        },
        &mut NullObserver,
    )
    .unwrap();
    assert_eq!(reference.stop, StopReason::TargetEps);
    assert!(
        reference.n > 2 * CHUNK_RUNS && reference.n < n,
        "stops early, past the second chunk: {}",
        reference.n
    );
    let saved = reference.n / CHUNK_RUNS - 1;
    abort_and_resume("abort-eps", n, &base, reference.n, Some(saved), &reference);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Kill a checkpointed importance campaign on a random seed through its
    /// observer at a random chunk boundary, resume it from the file, and
    /// get the
    /// uninterrupted result in every deterministic field: at one and two
    /// workers, with no defense and with `dup_config_vote`. The resumed
    /// leg's per-worker memos (conclusion and strike) start cold, so only
    /// the kernel-shape counters, which count work done, may differ.
    #[test]
    fn kill_and_resume_at_a_random_boundary_is_exact(
        boundary in 1usize..6,
        seed in any::<u64>(),
    ) {
        let f = fixture();
        let strategy = ImportanceSampling::new(
            baseline_distribution(&f.model, &f.cfg),
            &f.model,
            &f.prechar,
            f.cfg.alpha,
            f.cfg.beta,
            f.cfg.radius_options.clone(),
        );
        let vote = HardenedVariant::DupConfigVote(DupConfigVote::new());
        let n = 6 * CHUNK_RUNS;
        for hardening in [None, Some(&vote)] {
            let r = FaultRunner {
                hardening,
                ..runner(f)
            };
            let reference = run_campaign_observed(
                &r,
                &strategy,
                n,
                seed,
                &CampaignOptions::default(),
                &mut NullObserver,
            )
            .unwrap();
            for threads in [1, 2] {
                let tag = format!("kill-{boundary}-t{threads}-{}", hardening.is_some());
                let dir = scratch_dir(&tag);
                let options = opts(&dir.join("ck.json"), threads);
                let mut killed = AbortAt(boundary * CHUNK_RUNS);
                let partial =
                    run_campaign_observed(&r, &strategy, n, seed, &options, &mut killed).unwrap();
                prop_assert_eq!(partial.stop, StopReason::Aborted, "{}", tag);
                prop_assert!(partial.n < n, "{}", tag);
                let mut resumed =
                    run_campaign_observed(&r, &strategy, n, seed, &options, &mut NullObserver)
                        .unwrap();
                resumed.kernel_counters = reference.kernel_counters;
                prop_assert_eq!(&resumed, &reference, "{}", tag);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}
