//! Compiled windows against the scalar kernel at the campaign level.
//!
//! The compiled kernel sweeps a window of chunks together and folds them
//! one by one in chunk order, so the merge, the stopping rule, checkpoints
//! and observers see the same per-chunk partials as under the scalar
//! kernel. These tests stop a campaign inside a window — by the
//! `--target-eps` rule at one and two workers, by an observer abort, and
//! by resuming from a checkpoint written at a chunk boundary inside a
//! window — on all five goals under no defense, the voter, the uniform
//! hardened set and the SCFI code, with one and two glitch spots. Each
//! result must equal the scalar kernel's field by field, `f64`s to the
//! bit; only the kernel-shape counters may differ. The metrics file's
//! `scheduler.discarded_runs` shows the window ran past the stop.

use std::path::PathBuf;
use std::sync::OnceLock;
use xlmc::estimator::{
    run_campaign_observed, run_campaign_with, CampaignKernel, CampaignOptions, CampaignResult,
    StopReason,
};
use xlmc::flow::FaultRunner;
use xlmc::harden::{DupConfigVote, HardenedSet, HardenedVariant, HardeningModel, ScfiFsm};
use xlmc::sampling::{baseline_distribution, ExperimentConfig, ImportanceSampling};
use xlmc::telemetry::{CampaignObserver, JsonValue, ObserverAction, ProgressEvent};
use xlmc::{Evaluation, Precharacterization, SystemModel};
use xlmc_fault::DoubleGlitch;
use xlmc_soc::workloads;

const SEED: u64 = 0x3D1;
const CHUNK: usize = 512;
/// Six chunks per campaign; the stops below fall at chunk 1.
const RUNS: usize = 6 * CHUNK;

struct Fixture {
    model: SystemModel,
    evals: Vec<Evaluation>,
    prechar: Precharacterization,
    strategy: ImportanceSampling,
    glitch: DoubleGlitch,
    defenses: Vec<(&'static str, Option<HardenedVariant>)>,
}

/// A short timing window, so strike groups repeat within the first chunks
/// and windows span several chunks from the start.
fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let model = SystemModel::with_defaults().unwrap();
        let cfg = ExperimentConfig {
            t_max: 2,
            ..Default::default()
        };
        let prechar = Precharacterization::run(&model, cfg.t_max, cfg.max_radius());
        let f = baseline_distribution(&model, &cfg);
        let glitch = DoubleGlitch::new(f.spatial.clone(), f.radius.clone());
        let strategy = ImportanceSampling::new(
            f,
            &model,
            &prechar,
            cfg.alpha,
            cfg.beta,
            cfg.radius_options.clone(),
        );
        let evals = [
            workloads::illegal_write(),
            workloads::illegal_read(),
            workloads::dma_exfiltration(),
            workloads::trap_escalation(),
            workloads::instruction_skip(),
        ]
        .into_iter()
        .map(|w| Evaluation::new(w).unwrap())
        .collect();
        let uniform = HardenedSet::new(
            [xlmc_soc::MpuBit::Violation, xlmc_soc::MpuBit::Enable],
            HardeningModel::default(),
        );
        let defenses = vec![
            ("none", None),
            (
                "dup_config_vote",
                Some(HardenedVariant::DupConfigVote(DupConfigVote::new())),
            ),
            ("uniform", Some(HardenedVariant::Uniform(uniform))),
            (
                "scfi_fsm",
                Some(HardenedVariant::ScfiFsm(ScfiFsm::with_miss_rate(0.5))),
            ),
        ];
        Fixture {
            model,
            evals,
            prechar,
            strategy,
            glitch,
            defenses,
        }
    })
}

/// Every `(goal, defense, fault mode)` cell: its name, whether it strikes
/// one spot, and its runner.
fn cells(f: &Fixture) -> Vec<(String, bool, FaultRunner<'_>)> {
    let mut cells = Vec::new();
    for eval in &f.evals {
        for (defense, hardening) in &f.defenses {
            for double in [false, true] {
                let name = format!(
                    "{} {defense} {}",
                    eval.workload.name,
                    if double { "double" } else { "single" }
                );
                let runner = FaultRunner {
                    model: &f.model,
                    eval,
                    prechar: &f.prechar,
                    hardening: hardening.as_ref(),
                    multi_fault: double.then_some(&f.glitch),
                };
                cells.push((name, !double, runner));
            }
        }
    }
    cells
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("xlmc-window-{}-{name}", std::process::id()))
}

/// Aborts the campaign at the first chunk boundary at or past `at_runs`.
struct AbortAt(usize);

impl CampaignObserver for AbortAt {
    fn on_progress(&mut self, ev: &ProgressEvent) -> ObserverAction {
        if ev.runs_done >= self.0 {
            ObserverAction::Abort
        } else {
            ObserverAction::Continue
        }
    }
}

/// Run a campaign with `abort_at` (if any) and a metrics file; the result
/// and the metrics file's `scheduler.discarded_runs`.
fn run(
    runner: &FaultRunner<'_>,
    opts: &CampaignOptions,
    abort_at: Option<usize>,
    tag: &str,
) -> (CampaignResult, u64) {
    let metrics = scratch(&format!("{tag}.metrics.json"));
    let opts = CampaignOptions {
        metrics_path: Some(metrics.clone()),
        ..opts.clone()
    };
    let strategy = &fixture().strategy;
    let res = match abort_at {
        Some(at) => {
            run_campaign_observed(runner, strategy, RUNS, SEED, &opts, &mut AbortAt(at)).unwrap()
        }
        None => run_campaign_with(runner, strategy, RUNS, SEED, &opts),
    };
    let doc = JsonValue::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let _ = std::fs::remove_file(&metrics);
    let discarded = doc
        .get("scheduler")
        .and_then(|s| s.get("discarded_runs"))
        .and_then(JsonValue::as_u64)
        .expect("scheduler.discarded_runs");
    (res, discarded)
}

/// `got` equals the scalar kernel's `want` in every field but the
/// kernel-shape counters.
fn assert_same(mut got: CampaignResult, want: &CampaignResult, ctx: &str) {
    got.kernel_counters = want.kernel_counters;
    assert_eq!(&got, want, "{ctx}: differs from the scalar kernel");
}

fn kernel(kernel: CampaignKernel, threads: usize) -> CampaignOptions {
    CampaignOptions {
        threads,
        ..CampaignOptions::with_kernel(kernel)
    }
}

/// Under one glitch spot a window spans the first chunks: the sweeps of
/// the first one are not full, since the short timing window repeats its
/// groups. A run past `stop_chunk` then belongs to a chunk the stop throws
/// away. Under two spots every run takes a lane, the first chunk fills its
/// sweeps alone and windows hold one chunk.
fn assert_stopped_inside(single: bool, discarded: u64, name: &str) {
    if single {
        assert!(discarded > 0, "{name}: the stop ends its window");
        assert!(discarded < 8 * CHUNK as u64, "{name}: {discarded}");
    }
}

/// The `--target-eps` rule stops at chunk 1, the first boundary it may,
/// inside the first window: at one and two workers the compiled result is
/// the scalar one.
#[test]
fn window_early_stop_matches_scalar() {
    let f = fixture();
    let eps = |o: CampaignOptions| CampaignOptions {
        target_eps: Some(0.5),
        ..o
    };
    for (name, single, runner) in cells(f) {
        let (want, _) = run(
            &runner,
            &eps(kernel(CampaignKernel::Scalar, 1)),
            None,
            "eps-s",
        );
        assert_eq!(want.stop, StopReason::TargetEps, "{name}");
        assert_eq!(want.n, 2 * CHUNK, "{name}: stops at chunk 1");
        for threads in [1, 2] {
            let opts = eps(kernel(CampaignKernel::Compiled, threads));
            let (got, discarded) = run(&runner, &opts, None, "eps-c");
            assert_same(got, &want, &format!("{name} t{threads}"));
            if threads == 1 {
                assert_stopped_inside(single, discarded, &name);
            }
        }
    }
}

/// An observer abort at chunk 1, inside the first window, leaves the
/// scalar result.
#[test]
fn window_observer_abort_matches_scalar() {
    let f = fixture();
    let at = Some(2 * CHUNK);
    for (name, single, runner) in cells(f) {
        let (want, _) = run(&runner, &kernel(CampaignKernel::Scalar, 1), at, "abort-s");
        assert_eq!(
            (want.stop, want.n),
            (StopReason::Aborted, 2 * CHUNK),
            "{name}"
        );
        let (got, discarded) = run(&runner, &kernel(CampaignKernel::Compiled, 1), at, "abort-c");
        assert_same(got, &want, &name);
        assert_stopped_inside(single, discarded, &name);
    }
}

/// A campaign checkpointed after every chunk and aborted at chunk 1
/// resumes from the checkpoint written after chunk 0, a boundary inside
/// the first window, and ends with the scalar kernel's uninterrupted
/// result.
#[test]
fn window_resume_from_inside_a_window_matches_scalar() {
    let f = fixture();
    for (k, (name, single, runner)) in cells(f).into_iter().enumerate() {
        let (want, _) = run(
            &runner,
            &kernel(CampaignKernel::Scalar, 1),
            None,
            "resume-s",
        );
        assert_eq!(want.stop, StopReason::Completed, "{name}");
        let ck = scratch(&format!("ck{k}.json"));
        let _ = std::fs::remove_file(&ck);
        let opts = CampaignOptions {
            checkpoint_path: Some(ck.clone()),
            checkpoint_every_runs: CHUNK,
            ..kernel(CampaignKernel::Compiled, 1)
        };
        let (first, discarded) = run(&runner, &opts, Some(2 * CHUNK), "resume-c1");
        assert_eq!(
            (first.stop, first.n),
            (StopReason::Aborted, 2 * CHUNK),
            "{name}"
        );
        assert_stopped_inside(single, discarded, &name);
        let (got, _) = run(&runner, &opts, None, "resume-c2");
        let _ = std::fs::remove_file(&ck);
        assert_same(got, &want, &name);
    }
}
