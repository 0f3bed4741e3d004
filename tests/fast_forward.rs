//! RTL fast-forward soundness: the checkpoint cache, the golden-
//! reconvergence early exit and the per-worker conclusion memo are pure
//! accelerations — for any strike, on any workload, the concluded verdict
//! must be bit-identical to the plain run-to-halt reference.
//!
//! Three layers of evidence:
//! 1. a property test drawing randomized attack samples across all three
//!    workloads and comparing a fast-forwarding scratch against a disabled
//!    one fed the identical RNG stream;
//! 2. a direct check of non-analytic verdicts against an independent
//!    run-to-halt RTL reference (the same oracle `analytic_vs_rtl` uses);
//! 3. a campaign-level equality of full `CampaignResult`s with fast-forward
//!    on and off, for both kernels.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;
use xlmc::estimator::{run_campaign_with, CampaignKernel, CampaignOptions};
use xlmc::flow::{FaultRunner, FlowScratch, StrikeClass};
use xlmc::sampling::{baseline_distribution, ExperimentConfig, RandomSampling};
use xlmc::{Evaluation, Precharacterization, SystemModel};
use xlmc_soc::{workloads, MpuBit, Soc};

/// One expensive fixture for every test: the system model, the golden runs
/// of all three attack workloads and the shared pre-characterization.
struct Fixture {
    model: SystemModel,
    evals: Vec<Evaluation>,
    prechar: Precharacterization,
    cfg: ExperimentConfig,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let model = SystemModel::with_defaults().unwrap();
        let evals = vec![
            Evaluation::new(workloads::illegal_write()).unwrap(),
            Evaluation::new(workloads::illegal_read()).unwrap(),
            Evaluation::new(workloads::dma_exfiltration()).unwrap(),
        ];
        let cfg = ExperimentConfig {
            t_max: 16,
            ..Default::default()
        };
        let prechar = Precharacterization::run(&model, cfg.t_max, cfg.max_radius());
        Fixture {
            model,
            evals,
            prechar,
            cfg,
        }
    })
}

/// The independent oracle: restore the nearest golden checkpoint, step to
/// the injection cycle, apply the error set and run to halt — no caches, no
/// early exit, no memo.
fn run_to_halt_reference(eval: &Evaluation, bits: &[MpuBit], te: u64) -> bool {
    let mut soc: Soc = eval.golden.nearest_checkpoint(te).clone();
    while soc.cycle < te {
        soc.step();
    }
    soc.step();
    for &b in bits {
        soc.mpu.toggle_bit(b);
    }
    soc.run_until_halt(eval.max_cycles);
    eval.workload.goal.succeeded(&soc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For randomized strikes across all workloads, a fast-forwarding
    /// scratch and a disabled one fed the identical RNG stream agree on
    /// every observable field of the outcome, and every non-analytic
    /// verdict equals the independent run-to-halt reference.
    #[test]
    fn early_exit_verdicts_equal_run_to_halt_verdicts(
        workload_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let f = fixture();
        let eval = &f.evals[workload_idx];
        let runner = FaultRunner {
            model: &f.model,
            eval,
            prechar: &f.prechar,
            hardening: None,
            multi_fault: None,
        };
        let fd = baseline_distribution(&f.model, &f.cfg);
        let mut ff_on = FlowScratch::default();
        let mut ff_off = FlowScratch::default();
        ff_off.set_fast_forward(false);

        let mut sampler = StdRng::seed_from_u64(seed);
        for i in 0..48u64 {
            let sample = fd.sample(&mut sampler);
            let mut rng_on = StdRng::seed_from_u64(seed ^ i.wrapping_mul(0x9e37_79b9));
            let mut rng_off = rng_on.clone();

            let on = runner.run_with(&sample, &mut rng_on, &mut ff_on).to_outcome();
            let off = runner.run_with(&sample, &mut rng_off, &mut ff_off).to_outcome();

            prop_assert_eq!(on.success, off.success, "sample {:?}", sample);
            prop_assert_eq!(on.class, off.class, "sample {:?}", sample);
            prop_assert_eq!(on.analytic, off.analytic, "sample {:?}", sample);
            prop_assert_eq!(&on.faulty_bits, &off.faulty_bits, "sample {:?}", sample);
            prop_assert_eq!(on.injection_cycle, off.injection_cycle, "sample {:?}", sample);

            // Non-analytic, non-masked conclusions came from an RTL resume:
            // both must equal the oracle.
            if !on.analytic && on.class != StrikeClass::Masked {
                let te = on.injection_cycle.expect("resumed runs have a cycle");
                let oracle = run_to_halt_reference(eval, &on.faulty_bits, te);
                prop_assert_eq!(
                    on.success, oracle,
                    "fast-forward diverged from run-to-halt at te {}", te
                );
            }
        }

        let stats = ff_on.fast_forward_stats();
        prop_assert!(stats.enabled);
        let off_stats = ff_off.fast_forward_stats();
        prop_assert!(!off_stats.enabled);
        prop_assert_eq!(off_stats.checkpoint_cache_hits, 0);
        prop_assert_eq!(off_stats.early_exits, 0);
    }
}

/// Driving one workload hard enough shows the accelerator actually engages:
/// resumes happen, the exact-cycle snapshot cache gets hits, and disabling
/// it never records any.
#[test]
fn fast_forward_engages_on_repeated_strikes() {
    let f = fixture();
    let eval = &f.evals[0];
    let runner = FaultRunner {
        model: &f.model,
        eval,
        prechar: &f.prechar,
        hardening: None,
        multi_fault: None,
    };
    let fd = baseline_distribution(&f.model, &f.cfg);
    let mut scratch = FlowScratch::default();
    let mut sampler = StdRng::seed_from_u64(0xFF_0051);
    for i in 0..600u64 {
        let sample = fd.sample(&mut sampler);
        let mut rng = StdRng::seed_from_u64(i);
        let _ = runner.run_with(&sample, &mut rng, &mut scratch);
    }
    let stats = scratch.fast_forward_stats();
    assert!(stats.enabled);
    assert!(stats.rtl_resumes > 0, "no strike reached an RTL resume");
    assert!(
        stats.checkpoint_cache_hits > 0,
        "repeated injection cycles never hit the snapshot cache: {stats:?}"
    );
    assert!(stats.checkpoint_hit_rate() > 0.0);
}

/// Campaign-level equality: the full `CampaignResult` — estimate, variance,
/// class split, attribution, convergence trace — is bit-identical with
/// fast-forward on and off, for both kernels and a multi-worker schedule.
#[test]
fn campaign_results_match_with_fast_forward_off() {
    let f = fixture();
    let eval = &f.evals[2];
    let runner = FaultRunner {
        model: &f.model,
        eval,
        prechar: &f.prechar,
        hardening: None,
        multi_fault: None,
    };
    let strategy = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
    for kernel in [CampaignKernel::Compiled, CampaignKernel::Scalar] {
        let mut on = CampaignOptions::with_kernel(kernel);
        on.threads = 2;
        let off = CampaignOptions {
            fast_forward: false,
            ..on.clone()
        };
        let accelerated = run_campaign_with(&runner, &strategy, 2_000, 0x00D3_C0DE, &on);
        let reference = run_campaign_with(&runner, &strategy, 2_000, 0x00D3_C0DE, &off);
        assert_eq!(
            accelerated, reference,
            "fast-forward changed the campaign result ({kernel:?})"
        );
    }
}
