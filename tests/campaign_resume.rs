//! Crash-safe checkpoint/resume and adaptive-stopping contracts.
//!
//! The campaign engine promises that interrupting a checkpointed campaign
//! and resuming it from disk yields the **bit-identical** `CampaignResult`
//! of an uninterrupted run — same estimate, variance, trace, class counts
//! and attribution — under both kernels and any thread count. It likewise
//! promises that `--target-eps` early stopping picks the same chunk
//! boundary regardless of parallelism, because stopping is decided while
//! folding chunks in order.
//!
//! These tests interrupt a campaign through the observer hook (the same
//! path a SIGKILL exercises: the last durable state is the checkpoint
//! file), resume it, and compare whole results with `assert_eq!` — every
//! `f64` must match to the bit. The metrics files produced along the way
//! are validated against the checked-in `schemas/metrics.schema.json`.

use std::path::PathBuf;
use std::sync::OnceLock;
use xlmc::estimator::{
    run_campaign_observed, run_campaign_with, CampaignKernel, CampaignOptions, CampaignResult,
    StopReason, EARLY_STOP_MIN_RUNS,
};
use xlmc::flow::FaultRunner;
use xlmc::json::{validate_against_schema, JsonValue};
use xlmc::sampling::{
    baseline_distribution, ExperimentConfig, ImportanceSampling, RandomSampling, SamplingStrategy,
};
use xlmc::telemetry::{CampaignObserver, NullObserver, ObserverAction, ProgressEvent};
use xlmc::{Evaluation, Precharacterization, SystemModel};
use xlmc_soc::workloads;

const SEED: u64 = 0x5E5A;

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

/// A scratch path under the system temp dir, unique to this process so
/// parallel `cargo test` invocations cannot collide.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("xlmc-{}-{name}", std::process::id()))
}

/// Aborts the campaign at the first chunk boundary at or past `at_runs`
/// — the in-process stand-in for killing the process mid-campaign.
struct AbortAt {
    at_runs: usize,
}

impl CampaignObserver for AbortAt {
    fn on_progress(&mut self, event: &ProgressEvent) -> ObserverAction {
        if event.runs_done >= self.at_runs {
            ObserverAction::Abort
        } else {
            ObserverAction::Continue
        }
    }
}

/// Parse `path` and validate it against the checked-in metrics schema.
fn check_metrics_schema(path: &PathBuf) -> JsonValue {
    let schema_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../schemas/metrics.schema.json");
    let schema = JsonValue::parse(&std::fs::read_to_string(&schema_path).expect("read schema"))
        .expect("schema parses");
    let doc = JsonValue::parse(&std::fs::read_to_string(path).expect("read metrics"))
        .expect("metrics parses");
    validate_against_schema(&doc, &schema).expect("metrics matches schema");
    doc
}

/// Parse the checkpoint file and validate it against the checked-in
/// checkpoint schema.
fn check_checkpoint_schema(path: &PathBuf) -> JsonValue {
    let schema_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../schemas/checkpoint.schema.json");
    let schema = JsonValue::parse(&std::fs::read_to_string(&schema_path).expect("read schema"))
        .expect("schema parses");
    let doc = JsonValue::parse(&std::fs::read_to_string(path).expect("read checkpoint"))
        .expect("checkpoint parses");
    validate_against_schema(&doc, &schema).expect("checkpoint matches schema");
    doc
}

/// Interrupt a checkpointed campaign partway, resume it from the file,
/// and demand the bit-identical result of an uninterrupted run.
fn check_resume_equivalence(
    strategy: &dyn SamplingStrategy,
    kernel: CampaignKernel,
    threads: usize,
) {
    let f = fixture();
    let r = runner(f);
    let n = 2_560; // 5 chunks of 512
    let tag = format!("{}-{kernel:?}-t{threads}", strategy.name());
    let ck = scratch(&format!("resume-{tag}.ckpt"));
    let metrics = scratch(&format!("resume-{tag}.metrics.json"));
    let _ = std::fs::remove_file(&ck);
    let _ = std::fs::remove_file(&metrics);

    let base_opts = CampaignOptions {
        threads,
        ..CampaignOptions::with_kernel(kernel)
    };
    let reference = run_campaign_with(&r, strategy, n, SEED, &base_opts);
    assert_eq!(reference.stop, StopReason::Completed);
    assert_eq!(reference.n, n);

    // First leg: checkpoint every 1024 runs, abort at the 1536-run
    // boundary. The last durable checkpoint is at 1024 runs.
    let ck_opts = CampaignOptions {
        checkpoint_path: Some(ck.clone()),
        checkpoint_every_runs: 1_024,
        metrics_path: Some(metrics.clone()),
        ..base_opts.clone()
    };
    let partial = run_campaign_observed(
        &r,
        strategy,
        n,
        SEED,
        &ck_opts,
        &mut AbortAt { at_runs: 1_536 },
    )
    .expect("first leg");
    assert_eq!(partial.stop, StopReason::Aborted, "{tag}");
    assert!(
        partial.n < n,
        "{tag}: abort should leave a partial campaign"
    );
    assert!(
        ck.exists(),
        "{tag}: checkpoint file should exist after abort"
    );
    check_checkpoint_schema(&ck);

    // Second leg: same options, no abort — resumes from the file and must
    // land exactly where the uninterrupted run did.
    let mut resumed = run_campaign_observed(&r, strategy, n, SEED, &ck_opts, &mut NullObserver)
        .expect("resumed leg");
    // The kernel-shape counters count work done: a resumed compiled
    // campaign starts with cold strike memos and sweeps more lanes.
    resumed.kernel_counters = reference.kernel_counters;
    assert_eq!(
        resumed, reference,
        "{tag}: resumed result differs from the uninterrupted run"
    );

    // The metrics file from the resumed leg matches the schema and agrees
    // with the result.
    let doc = check_metrics_schema(&metrics);
    assert_eq!(
        doc.get("stop_reason").and_then(JsonValue::as_str),
        Some("completed")
    );
    assert_eq!(doc.get("n").and_then(JsonValue::as_u64), Some(n as u64));
    assert_eq!(
        doc.get("successes").and_then(JsonValue::as_u64),
        Some(reference.successes as u64)
    );

    let _ = std::fs::remove_file(&ck);
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn resume_is_bit_identical_scalar_kernel() {
    let f = fixture();
    let strategy = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
    for threads in [1, 4] {
        check_resume_equivalence(&strategy, CampaignKernel::Scalar, threads);
    }
}

#[test]
fn resume_is_bit_identical_compiled_kernel() {
    let f = fixture();
    let strategy = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
    for threads in [1, 4] {
        check_resume_equivalence(&strategy, CampaignKernel::Compiled, threads);
    }
}

#[test]
fn resume_is_bit_identical_under_importance_sampling() {
    // Importance sampling exercises the weighted path: non-unit weights,
    // ESS accumulation and per-register attribution all round-trip
    // through the checkpoint.
    let f = fixture();
    let strategy = ImportanceSampling::new(
        baseline_distribution(&f.model, &f.cfg),
        &f.model,
        &f.prechar,
        f.cfg.alpha,
        f.cfg.beta,
        f.cfg.radius_options.clone(),
    );
    check_resume_equivalence(&strategy, CampaignKernel::Compiled, 4);
    check_resume_equivalence(&strategy, CampaignKernel::Scalar, 1);
}

/// MLMC mixed-level resume: interrupt a multilevel campaign once with the
/// last durable checkpoint *inside* the pilot (no frozen plan on disk) and
/// once *past* it (the file carries the frozen allocation plus all four
/// pilot chunks), at one and four worker threads — and demand the
/// bit-identical result of the uninterrupted run. The whole-struct
/// `assert_eq!` covers the `MlmcSummary`: per-level Welford states, the
/// plan ratio and the chunk-level tags all round-trip through the
/// `xlmc-checkpoint-v4` file.
#[test]
fn mlmc_resume_is_bit_identical_across_levels() {
    use xlmc::estimator::EstimatorKind;
    let f = fixture();
    let r = runner(f);
    let strategy = ImportanceSampling::new(
        baseline_distribution(&f.model, &f.cfg),
        &f.model,
        &f.prechar,
        f.cfg.alpha,
        f.cfg.beta,
        f.cfg.radius_options.clone(),
    );
    let n = 3_072; // 6 chunks: the 4-chunk pilot plus 2 planned chunks
    for threads in [1usize, 4] {
        for abort_at in [1_536usize, 2_560] {
            let tag = format!("mlmc-t{threads}-abort{abort_at}");
            let ck = scratch(&format!("resume-{tag}.ckpt"));
            let metrics = scratch(&format!("resume-{tag}.metrics.json"));
            let _ = std::fs::remove_file(&ck);
            let _ = std::fs::remove_file(&metrics);

            let base_opts = CampaignOptions {
                estimator: EstimatorKind::Mlmc,
                threads,
                ..CampaignOptions::default()
            };
            let reference = run_campaign_with(&r, &strategy, n, SEED, &base_opts);
            assert_eq!(reference.stop, StopReason::Completed);
            let m = reference.mlmc.as_ref().expect("mlmc summary present");
            assert_eq!(&m.chunk_levels[..4], &[1, 0, 1, 0], "{tag}: pilot order");
            assert!(m.plan_ratio.is_some(), "{tag}: plan frozen");

            // Checkpoint every 1024 runs; aborting at 1536 leaves the
            // 1024-run (mid-pilot) snapshot on disk, aborting at 2560
            // leaves the 2048-run (post-pilot, plan frozen) one.
            let ck_opts = CampaignOptions {
                checkpoint_path: Some(ck.clone()),
                checkpoint_every_runs: 1_024,
                metrics_path: Some(metrics.clone()),
                ..base_opts.clone()
            };
            let partial = run_campaign_observed(
                &r,
                &strategy,
                n,
                SEED,
                &ck_opts,
                &mut AbortAt { at_runs: abort_at },
            )
            .expect("first leg");
            assert_eq!(partial.stop, StopReason::Aborted, "{tag}");
            assert!(ck.exists(), "{tag}: checkpoint file missing after abort");
            let ck_doc = check_checkpoint_schema(&ck);
            assert_eq!(
                ck_doc.get("estimator").and_then(JsonValue::as_str),
                Some("mlmc"),
                "{tag}"
            );
            let plan_bits = ck_doc
                .get("mlmc")
                .and_then(|m| m.get("plan_ratio_bits"))
                .expect("mlmc state in checkpoint");
            if abort_at <= 1_536 {
                assert_eq!(plan_bits, &JsonValue::Null, "{tag}: plan not yet frozen");
            } else {
                assert!(
                    plan_bits.as_str().is_some(),
                    "{tag}: frozen plan serialized as bits"
                );
            }

            let resumed =
                run_campaign_observed(&r, &strategy, n, SEED, &ck_opts, &mut NullObserver)
                    .expect("resumed leg");
            assert_eq!(
                resumed, reference,
                "{tag}: resumed result differs from the uninterrupted run"
            );

            let doc = check_metrics_schema(&metrics);
            assert_eq!(
                doc.get("estimator").and_then(JsonValue::as_str),
                Some("mlmc")
            );
            let mj = doc.get("mlmc").expect("mlmc object in metrics");
            let n0 = mj.get("n0").and_then(JsonValue::as_u64).unwrap();
            let n1 = mj.get("n1").and_then(JsonValue::as_u64).unwrap();
            assert_eq!((n0 + n1) as usize, n, "{tag}: every run accounted");

            let _ = std::fs::remove_file(&ck);
            let _ = std::fs::remove_file(&metrics);
        }
    }
}

#[test]
fn target_eps_stop_is_deterministic_across_threads_and_kernels() {
    let f = fixture();
    let r = runner(f);
    let strategy = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
    let n = 4_096;
    let eps = 0.05;

    let mut results: Vec<(String, CampaignResult)> = Vec::new();
    for kernel in [CampaignKernel::Scalar, CampaignKernel::Compiled] {
        for threads in [1, 4] {
            let metrics = scratch(&format!("earlystop-{kernel:?}-t{threads}.json"));
            let _ = std::fs::remove_file(&metrics);
            let opts = CampaignOptions {
                threads,
                target_eps: Some(eps),
                target_confidence: 0.95,
                metrics_path: Some(metrics.clone()),
                ..CampaignOptions::with_kernel(kernel)
            };
            let res = run_campaign_with(&r, &strategy, n, SEED, &opts);
            assert_eq!(res.stop, StopReason::TargetEps, "{kernel:?} t{threads}");
            assert!(res.n < n, "{kernel:?} t{threads}: should stop early");
            assert!(res.n >= EARLY_STOP_MIN_RUNS);
            assert!(
                res.lln_bound(eps) <= 1.0 - 0.95 + 1e-12,
                "{kernel:?} t{threads}: bound {} not met",
                res.lln_bound(eps)
            );

            let doc = check_metrics_schema(&metrics);
            assert_eq!(
                doc.get("stop_reason").and_then(JsonValue::as_str),
                Some("target_eps")
            );
            assert_eq!(doc.get("n").and_then(JsonValue::as_u64), Some(res.n as u64));
            let _ = std::fs::remove_file(&metrics);

            results.push((format!("{kernel:?} t{threads}"), res));
        }
    }
    let (ref first_tag, ref first) = results[0];
    for (tag, res) in &results[1..] {
        // Kernel-shape counters (lane occupancy, sweep-wide gate
        // visits) legitimately differ between kernels; everything else —
        // including the kernel-invariant hot-path counters — must match.
        let mut res = res.clone();
        res.kernel_counters = first.kernel_counters;
        assert_eq!(
            &res, first,
            "early stop diverged between {first_tag} and {tag}"
        );
    }
}
