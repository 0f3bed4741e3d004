//! Engine fault injection: bad checkpoint inputs and I/O failures end a
//! campaign with a typed [`CampaignError::Checkpoint`] naming the path,
//! never with a panic, at one worker and at four.
//!
//! Covered: a truncated file, a file that is not JSON, a foreign format
//! tag, a checkpoint written by a campaign with another seed, strategy,
//! kernel or estimator, and a checkpoint path whose directory does not
//! exist (the first write fails; with four workers, the error returns
//! after they have stopped). A rejected checkpoint is left as it was.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use xlmc::estimator::{
    run_campaign_observed, CampaignError, CampaignKernel, CampaignOptions, EstimatorKind,
    CHUNK_RUNS,
};
use xlmc::flow::FaultRunner;
use xlmc::sampling::{
    baseline_distribution, ExperimentConfig, ImportanceSampling, RandomSampling, SamplingStrategy,
};
use xlmc::telemetry::NullObserver;
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

/// Run a campaign that must fail on its checkpoint: the error names
/// `path`, and its reason contains `what`.
fn expect_checkpoint_error(
    strategy: &dyn SamplingStrategy,
    seed: u64,
    options: &CampaignOptions,
    what: &str,
) {
    let f = fixture();
    let path = options.checkpoint_path.clone().unwrap();
    let err = run_campaign_observed(&runner(f), strategy, RUNS, seed, options, &mut NullObserver)
        .expect_err("the checkpoint must be rejected");
    let CampaignError::Checkpoint {
        path: named,
        reason,
    } = &err;
    assert_eq!(named, &path, "{err}");
    assert!(reason.contains(what), "expected {what:?} in: {err}");
    assert!(
        err.to_string().contains(&path.display().to_string()),
        "the message names the path: {err}"
    );
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
    let foreign = full.replace("xlmc-checkpoint-v3", "xlmc-checkpoint-v2");
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

/// The first checkpoint write fails. Under MLMC the write fails at the
/// first pilot chunk, so four workers waiting on the unpublished plan
/// must see the stop and exit.
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
            expect_checkpoint_error(&random(f), SEED, &options, "cannot be written");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
