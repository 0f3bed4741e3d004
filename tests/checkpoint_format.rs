//! The `xlmc-checkpoint-v4` format, pinned by two files written by an
//! earlier build of the engine (`tests/fixtures/`): a single-estimator
//! campaign after 4 of its 8 chunks, and an MLMC campaign in the middle
//! of its 4-chunk pilot (2 chunks merged, no plan frozen yet). Each was
//! written by a campaign aborted through its observer one chunk past its
//! last checkpoint. Resuming either gives the uninterrupted campaign's
//! result, bit for bit; that the files re-serialize to the identical bytes
//! and carry their body's checksum is pinned by `checkpoint::tests` in the
//! core crate.

use std::path::PathBuf;
use xlmc::estimator::{
    run_campaign_observed, run_campaign_with, CampaignOptions, EstimatorKind, StopReason,
};
use xlmc::flow::FaultRunner;
use xlmc::sampling::{baseline_distribution, ExperimentConfig, RandomSampling};
use xlmc::telemetry::{CampaignObserver, ObserverAction, ProgressEvent};
use xlmc::{Evaluation, Precharacterization, SystemModel};
use xlmc_soc::workloads;

/// The campaign both files were written by: random sampling on the
/// illegal-write benchmark, compiled kernel, 4096 runs.
const SEED: u64 = 0x5E5A;
const RUNS: usize = 4096;

/// Records the first merged boundary: a resumed campaign's first boundary
/// lies one chunk past the checkpoint's prefix.
#[derive(Default)]
struct FirstBoundary(Option<usize>);

impl CampaignObserver for FirstBoundary {
    fn on_progress(&mut self, event: &ProgressEvent) -> ObserverAction {
        self.0.get_or_insert(event.runs_done);
        ObserverAction::Continue
    }
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../tests/fixtures/{name}"))
}

#[test]
fn resuming_the_pinned_checkpoints_gives_the_uninterrupted_result() {
    let model = SystemModel::with_defaults().unwrap();
    let eval = Evaluation::new(workloads::illegal_write()).unwrap();
    let cfg = ExperimentConfig {
        t_max: 16,
        ..Default::default()
    };
    let prechar = Precharacterization::run(&model, cfg.t_max, cfg.max_radius());
    let runner = FaultRunner {
        model: &model,
        eval: &eval,
        prechar: &prechar,
        hardening: None,
        multi_fault: None,
    };
    let strategy = RandomSampling::new(baseline_distribution(&model, &cfg));
    // The estimates the earlier build reached uninterrupted.
    for (name, estimator, saved_runs, ssf) in [
        (
            "checkpoint_single_4_chunks.json",
            EstimatorKind::Single,
            2048,
            0.016357421875,
        ),
        (
            "checkpoint_mlmc_mid_pilot.json",
            EstimatorKind::Mlmc,
            1024,
            0.015950520833333332,
        ),
    ] {
        let base = CampaignOptions {
            estimator,
            ..CampaignOptions::default()
        };
        let uninterrupted = run_campaign_with(&runner, &strategy, RUNS, SEED, &base);
        assert_eq!(uninterrupted.stop, StopReason::Completed);
        assert_eq!(uninterrupted.ssf.to_bits(), f64::to_bits(ssf), "{name}");
        for threads in [1, 4] {
            // Resume a copy: the campaign rewrites its checkpoint as it goes.
            let ck =
                std::env::temp_dir().join(format!("xlmc-{}-t{threads}-{name}", std::process::id()));
            std::fs::copy(fixture_path(name), &ck).unwrap();
            let options = CampaignOptions {
                threads,
                checkpoint_path: Some(ck.clone()),
                ..base.clone()
            };
            let mut first = FirstBoundary::default();
            let mut resumed =
                run_campaign_observed(&runner, &strategy, RUNS, SEED, &options, &mut first)
                    .expect("the pinned checkpoint resumes");
            // The kernel-shape counters count work done: the resumed leg
            // starts with cold strike memos.
            resumed.kernel_counters = uninterrupted.kernel_counters;
            assert_eq!(
                first.0,
                Some(saved_runs + 512),
                "{name}: resumed, not restarted"
            );
            assert_eq!(resumed, uninterrupted, "{name} at {threads} threads");
            let _ = std::fs::remove_file(&ck);
        }
    }
}
