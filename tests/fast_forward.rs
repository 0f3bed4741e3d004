//! RTL resume soundness: the exact-cycle snapshot cache and the
//! per-worker conclusion memo are pure accelerations — for any strike, on
//! any workload, the concluded verdict must be bit-identical to the plain
//! run-to-halt reference.
//!
//! Two layers of evidence:
//! 1. a property test drawing randomized attack samples on all five attack
//!    goals — `trap_escalation` and `instruction_skip` included, where RTL
//!    resumes dominate — and checking every non-analytic verdict against an
//!    independent run-to-halt RTL reference (the same oracle
//!    `analytic_vs_rtl` uses), which the library's own
//!    [`reference_verdict`] must match too;
//! 2. a check that repeated strikes actually hit the snapshot cache.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;
use xlmc::flow::{FaultRunner, FlowScratch, StrikeClass};
use xlmc::resume::reference_verdict;
use xlmc::sampling::{baseline_distribution, ExperimentConfig};
use xlmc::{Evaluation, Precharacterization, SystemModel};
use xlmc_soc::{workloads, MpuBit, Soc};

/// One expensive fixture for every test: the system model, the golden runs
/// of all five attack workloads and the shared pre-characterization.
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
/// memo.
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

    /// For randomized strikes on every attack goal, each verdict a
    /// snapshot-cached RTL resume concluded equals the independent
    /// run-to-halt reference, and so does the library's uncached
    /// [`reference_verdict`].
    #[test]
    fn cached_verdicts_equal_run_to_halt_verdicts(seed in any::<u64>()) {
        let f = fixture();
        let fd = baseline_distribution(&f.model, &f.cfg);
        for eval in &f.evals {
            let runner = FaultRunner {
                model: &f.model,
                eval,
                prechar: &f.prechar,
                hardening: None,
                multi_fault: None,
            };
            let mut scratch = FlowScratch::default();
            let mut sampler = StdRng::seed_from_u64(seed);
            for i in 0..48u64 {
                let sample = fd.sample(&mut sampler);
                let mut rng = StdRng::seed_from_u64(seed ^ i.wrapping_mul(0x9e37_79b9));
                let out = runner.run_with(&sample, &mut rng, &mut scratch).to_outcome();

                // Non-analytic, non-masked conclusions came from an RTL
                // resume: it must equal the oracle.
                if !out.analytic && out.class != StrikeClass::Masked {
                    let te = out.injection_cycle.expect("resumed runs have a cycle");
                    let oracle = run_to_halt_reference(eval, &out.faulty_bits, te);
                    prop_assert_eq!(
                        out.success, oracle,
                        "{:?}: cached resume diverged from run-to-halt at te {}",
                        eval.workload.goal, te
                    );
                    prop_assert_eq!(reference_verdict(eval, te, &out.faulty_bits), oracle);
                }
            }
        }
    }
}

/// Driving one workload hard enough shows the accelerator actually engages:
/// resumes happen and the exact-cycle snapshot cache gets hits.
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
    let stats = scratch.resume_stats();
    assert!(stats.rtl_resumes > 0, "no strike reached an RTL resume");
    assert!(
        stats.checkpoint_cache_hits > 0,
        "repeated injection cycles never hit the snapshot cache: {stats:?}"
    );
    assert!(stats.checkpoint_hit_rate() > 0.0);
}
