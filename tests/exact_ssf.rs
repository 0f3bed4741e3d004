//! The exact single-fault SSF by enumeration (`xlmc::exact`), pinned.
//!
//! For one spot with no hardening, or the deterministic
//! `dup_config_vote`, the verdict is a fixed function of the sample, and
//! `f` is uniform over 115,200 samples (50 `t` x 144 cells x 2 radii x 8
//! phase bins): the SSF is exactly the success count over that. The pins
//! are the success counts of all five goals under both defenses, and the
//! successes inside the pre-characterization space, so the samples
//! Observation 1 misses on `trap_escalation` and `instruction_skip` stay
//! visible. Every verdict on the frames that hold the missed samples
//! (`t` in {2, 5, 6, 9}) is checked against the uncached run-to-halt
//! `reference_verdict`.
//!
//! Every shipped strategy's campaign is also checked against the exact
//! value, within 4 sigma computed exactly from the enumeration.
//!
//! The pinned table runs in every build. The verdict cross-check and the
//! strategy check are `#[ignore]`d in the default run and run in release
//! in CI (`cargo test --release -p xlmc-integration --test exact_ssf --
//! --include-ignored`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;
use xlmc::estimator::{run_campaign_with, CampaignKernel, CampaignOptions};
use xlmc::exact::{enumerate, ExactError};
use xlmc::flow::{FaultRunner, FlowScratch};
use xlmc::harden::{DupConfigVote, HardenedSet, HardenedVariant, HardeningModel, ScfiFsm};
use xlmc::resume::reference_verdict;
use xlmc::sampling::{
    baseline_distribution, ConeSampling, ExperimentConfig, ImportanceSampling, RandomSampling,
    SamplingStrategy,
};
use xlmc::{Evaluation, Precharacterization, SystemModel};
use xlmc_fault::sample::PHASE_BINS;
use xlmc_fault::{AttackDistribution, AttackSample, DoubleGlitch, SpatialDist};
use xlmc_soc::{workloads, MpuBit};

struct Fixture {
    model: SystemModel,
    evals: Vec<Evaluation>,
    prechar: Precharacterization,
    f: AttackDistribution,
    dup: HardenedVariant,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let model = SystemModel::with_defaults().unwrap();
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
        let cfg = ExperimentConfig::default();
        let prechar = Precharacterization::run(&model, cfg.t_max, cfg.max_radius());
        let f = baseline_distribution(&model, &cfg);
        Fixture {
            model,
            evals,
            prechar,
            f,
            dup: HardenedVariant::DupConfigVote(DupConfigVote::new()),
        }
    })
}

fn runner<'a>(fix: &'a Fixture, goal: usize, dup: bool) -> FaultRunner<'a> {
    FaultRunner {
        model: &fix.model,
        eval: &fix.evals[goal],
        prechar: &fix.prechar,
        hardening: dup.then_some(&fix.dup),
        multi_fault: None,
    }
}

/// `(goal, dup_config_vote, exact successes, successes in space)`, in the
/// goal order of [`fixture`].
const EXACT: [(&str, bool, u64, u64); 10] = [
    ("memory_write", false, 2_358, 2_358),
    ("memory_write", true, 6, 6),
    ("memory_read", false, 2_368, 2_368),
    ("memory_read", true, 16, 16),
    ("dma_exfiltration", false, 2_376, 2_376),
    ("dma_exfiltration", true, 24, 24),
    ("trap_escalation", false, 12_569, 12_299),
    ("trap_escalation", true, 366, 96),
    ("instruction_skip", false, 1_564, 1_536),
    ("instruction_skip", true, 28, 0),
];

/// All ten cells: about 20 s in a debug build, 2 s in release.
#[test]
fn exact_counts_of_every_goal_and_defense() {
    let fix = fixture();
    for (index, &(name, dup, successes, in_space)) in EXACT.iter().enumerate() {
        let goal = index / 2;
        assert_eq!(fix.evals[goal].workload.name, name);
        let count = enumerate(&runner(fix, goal, dup), &fix.f).unwrap();
        assert_eq!(count.support, 115_200, "{name} dup={dup}");
        assert_eq!(count.class_counts.total(), 115_200, "{name} dup={dup}");
        assert_eq!(
            (count.successes, count.in_space),
            (successes, in_space),
            "{name} dup={dup}"
        );
    }
}

/// Every verdict on the frames that hold the samples outside the
/// pre-characterization space equals the run-to-halt reference.
#[test]
#[ignore = "92k run-to-halt references; CI runs it in release with --include-ignored"]
fn verdicts_on_the_missed_frames_match_the_reference() {
    let fix = fixture();
    let SpatialDist::UniformOverCells(cells) = &fix.f.spatial else {
        panic!("the baseline spatial distribution is uniform");
    };
    let mut rng = StdRng::seed_from_u64(0);
    for goal in 0..fix.evals.len() {
        for dup in [false, true] {
            let r = runner(fix, goal, dup);
            let mut scratch = FlowScratch::default();
            for t in [2, 5, 6, 9] {
                for &center in cells {
                    for &radius in fix.f.radius.options() {
                        for phase in 0..PHASE_BINS {
                            let sample = AttackSample {
                                t,
                                center,
                                radius,
                                phase,
                            };
                            let view = r.run_with(&sample, &mut rng, &mut scratch);
                            let te = view.injection_cycle.expect("t <= t_max is in the run");
                            let bits: Vec<MpuBit> = view.faulty_bits.to_vec();
                            let success = view.success;
                            assert_eq!(
                                success,
                                reference_verdict(r.eval, te, &bits),
                                "goal {goal} dup={dup} {sample:?} bits {bits:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Every strategy's campaign lands within 4 sigma of the exact SSF on the
/// goals whose pre-characterization space holds every successful sample:
/// `memory_write`, `memory_read` and `dma_exfiltration` with no defense.
/// For a campaign of `n` runs drawn from `g` with weight `w = f/g`, the
/// estimator's variance is exactly
/// `(sum over successful s of f(s) w(s) - SSF^2) / n`, summed here over the
/// enumeration with `SamplingStrategy::weight`.
///
/// `trap_escalation` and `instruction_skip` wait for an unbiased proposal:
/// some of their successful samples lie outside the space every shipped
/// strategy but random sampling draws from (12,569 vs 12,299 and 1,564 vs
/// 1,536 above), so the cone and importance estimates are biased low by
/// that missed mass and a sigma bound would not hold.
#[test]
#[ignore = "three full enumerations and nine campaigns; CI runs it in release with --include-ignored"]
fn every_strategy_is_within_four_sigma_of_the_exact_value() {
    let fix = fixture();
    let cfg = ExperimentConfig::default();
    let SpatialDist::UniformOverCells(cells) = &fix.f.spatial else {
        panic!("the baseline spatial distribution is uniform");
    };
    let strategies: Vec<Box<dyn SamplingStrategy>> = vec![
        Box::new(RandomSampling::new(fix.f.clone())),
        Box::new(ConeSampling::new(
            fix.f.clone(),
            &fix.prechar,
            cfg.radius_options.clone(),
        )),
        Box::new(ImportanceSampling::new(
            fix.f.clone(),
            &fix.model,
            &fix.prechar,
            cfg.alpha,
            cfg.beta,
            cfg.radius_options.clone(),
        )),
    ];
    let (n, seed) = (16_384, 0xE5AC7);
    let mut rng = StdRng::seed_from_u64(0);
    for (goal, &(name, _, successes, _)) in EXACT.iter().step_by(2).take(3).enumerate() {
        let r = runner(fix, goal, false);
        // The successful samples of f's support, as `enumerate` walks it.
        let mut scratch = FlowScratch::default();
        let mut wins = Vec::new();
        let (t_min, t_max) = fix.f.temporal.support();
        for t in t_min..=t_max {
            for &center in cells {
                for &radius in fix.f.radius.options() {
                    for phase in 0..PHASE_BINS {
                        let sample = AttackSample {
                            t,
                            center,
                            radius,
                            phase,
                        };
                        if r.run_with(&sample, &mut rng, &mut scratch).success {
                            wins.push(sample);
                        }
                    }
                }
            }
        }
        assert_eq!(wins.len() as u64, successes, "{name}");
        let support = 115_200.0;
        let exact = successes as f64 / support;
        for strategy in &strategies {
            let second_moment: f64 = wins.iter().map(|s| strategy.weight(s) / support).sum();
            let sigma = ((second_moment - exact * exact) / n as f64).sqrt();
            let opts = CampaignOptions::with_kernel(CampaignKernel::Compiled);
            let res = run_campaign_with(&r, strategy.as_ref(), n, seed, &opts);
            assert_eq!(res.n, n);
            assert!(
                (res.ssf - exact).abs() <= 4.0 * sigma,
                "{name} {}: ssf {} vs exact {exact} (sigma {sigma})",
                strategy.name(),
                res.ssf
            );
        }
    }
}

#[test]
fn stochastic_defenses_and_double_glitch_are_typed_errors() {
    let fix = fixture();
    let uniform = HardenedVariant::Uniform(HardenedSet::new(
        [MpuBit::Violation],
        HardeningModel::default(),
    ));
    let scfi = HardenedVariant::ScfiFsm(ScfiFsm::new());
    for (h, name) in [(&uniform, "uniform"), (&scfi, "scfi_fsm")] {
        let r = FaultRunner {
            hardening: Some(h),
            ..runner(fix, 0, false)
        };
        assert_eq!(
            enumerate(&r, &fix.f),
            Err(ExactError::StochasticHardening(name))
        );
    }
    let glitch = DoubleGlitch::new(fix.f.spatial.clone(), fix.f.radius.clone());
    let r = FaultRunner {
        multi_fault: Some(&glitch),
        ..runner(fix, 0, false)
    };
    assert_eq!(enumerate(&r, &fix.f), Err(ExactError::MultiFault));
}
