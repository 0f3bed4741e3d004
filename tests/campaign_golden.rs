//! Statistical golden test: pinned-seed campaign results per strategy.
//!
//! The campaign engine promises bit-identical results for a fixed
//! `(seed, n, strategy)` regardless of thread count and kernel choice.
//! These tests pin the exact `(ssf, sample_variance)` pair of a small
//! campaign for each sampling strategy, so any unintended change to the
//! sampling streams, the strike kernels, the cross-level conclusion or the
//! Chan merge shows up as a bit-level diff — not as a silent statistical
//! drift that a tolerance-based assertion would absorb.
//!
//! Next to each `(ssf, sample_variance)` pair sit the campaign's hot-path
//! [`CampaignCounters`], which are kernel- and thread-invariant too, so
//! one pinned row covers every configuration.
//!
//! The goldens were recorded from this tree at the pinned seed. A change
//! that *intends* to alter the streams (new RNG layout, different chunk
//! partition, resampled distributions) must re-record them; the assertion
//! message prints the observed bits for exactly that purpose.

use std::sync::OnceLock;
use xlmc::estimator::{run_campaign_with, CampaignKernel, CampaignOptions};
use xlmc::flow::FaultRunner;
use xlmc::sampling::{
    baseline_distribution, ConeSampling, ExperimentConfig, ImportanceSampling, RandomSampling,
    SamplingStrategy,
};
use xlmc::trace::CampaignCounters;
use xlmc::{Evaluation, Precharacterization, SystemModel};
use xlmc_soc::workloads;

const RUNS: usize = 4_000;
const SEED: u64 = 0x90_1D;

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

/// The pinned counters of a golden campaign. Every fixture campaign meets
/// all 16 injection cycles of its `t_max` window in each of its 8 chunks,
/// lands no sample out of run and clones one SoC per chunk, so the rows
/// differ in the conclusion split and the pulses only.
fn golden_counters(
    conclusion_memo_hits: usize,
    conclusion_memo_misses: usize,
    conclusions_analytic: usize,
    conclusions_rtl: usize,
    pulses_propagated: usize,
) -> CampaignCounters {
    CampaignCounters {
        cycle_memo_hits: 3872,
        cycle_memo_misses: 128,
        conclusion_memo_hits,
        conclusion_memo_misses,
        conclusions_analytic,
        conclusions_rtl,
        soc_clones: 8,
        soc_restores: conclusions_rtl - 8,
        pulses_propagated,
        out_of_run: 0,
    }
}

/// Run the pinned campaign and compare against the recorded golden.
///
/// Runs both kernels: the goldens must hold for the default compiled
/// kernel *and* the scalar reference, which keeps the recording itself
/// honest (a golden that only one kernel reproduces means the equivalence
/// contract broke, not the statistics).
fn check(
    strategy: &dyn SamplingStrategy,
    golden_ssf: u64,
    golden_var: u64,
    golden_ctr: CampaignCounters,
) {
    let f = fixture();
    let runner = FaultRunner {
        model: &f.model,
        eval: &f.write_eval,
        prechar: &f.prechar,
        hardening: None,
        multi_fault: None,
    };
    for kernel in [CampaignKernel::Compiled, CampaignKernel::Scalar] {
        let opts = CampaignOptions::with_kernel(kernel);
        let r = run_campaign_with(&runner, strategy, RUNS, SEED, &opts);
        assert!(r.ssf.is_finite() && r.sample_variance.is_finite());
        assert_eq!(
            (r.ssf.to_bits(), r.sample_variance.to_bits()),
            (golden_ssf, golden_var),
            "{} ({kernel:?}): got ssf {} ({:#018x}), variance {:.6e} ({:#018x}) \
             — if the sampling streams changed intentionally, re-record the goldens",
            strategy.name(),
            r.ssf,
            r.ssf.to_bits(),
            r.sample_variance,
            r.sample_variance.to_bits(),
        );
        assert_eq!(
            r.counters,
            golden_ctr,
            "{} ({kernel:?}): hot-path counters",
            strategy.name(),
        );
    }
    // Tracing must be a pure observer: the same campaign run with span
    // recording and provenance capture enabled reproduces the golden bits.
    let dir = std::env::temp_dir().join(format!(
        "xlmc-golden-trace-{}-{}",
        std::process::id(),
        strategy.name()
    ));
    let opts = CampaignOptions {
        trace_path: Some(dir.join("trace.json")),
        ..CampaignOptions::with_kernel(CampaignKernel::Compiled)
    };
    let r = run_campaign_with(&runner, strategy, RUNS, SEED, &opts);
    assert_eq!(
        (r.ssf.to_bits(), r.sample_variance.to_bits()),
        (golden_ssf, golden_var),
        "{} (traced): tracing changed the campaign result",
        strategy.name(),
    );
    assert_eq!(
        r.counters,
        golden_ctr,
        "{} (traced): hot-path counters",
        strategy.name(),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn uniform_random_campaign_matches_golden() {
    let f = fixture();
    // ssf 0.017999999999999995, variance 1.768042e-2
    let strategy = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
    check(
        &strategy,
        0x3f926e978d4fdf3a,
        0x3f921ad0e885c382,
        golden_counters(178, 1939, 1378, 561, 71440),
    );
}

#[test]
fn correlation_cone_campaign_matches_golden() {
    let f = fixture();
    let strategy = ConeSampling::new(
        baseline_distribution(&f.model, &f.cfg),
        &f.prechar,
        f.cfg.radius_options.clone(),
    );
    // ssf 0.018433593750000008, variance 1.089590e-2
    check(
        &strategy,
        0x3f92e04189374bc9,
        0x3f865096a541acff,
        golden_counters(345, 2616, 1748, 868, 41511),
    );
}

/// MLMC golden: the multilevel estimator's per-level executors are scalar,
/// so the same pinned bits must hold under every kernel *and* thread
/// count — and the folded correction term is pinned
/// alongside the point estimate, so a drift hidden inside the telescoped
/// sum (level-0 bias moving one way, correction the other) still trips.
#[test]
fn mlmc_importance_campaign_matches_golden() {
    use xlmc::estimator::EstimatorKind;
    let f = fixture();
    let strategy = ImportanceSampling::new(
        baseline_distribution(&f.model, &f.cfg),
        &f.model,
        &f.prechar,
        f.cfg.alpha,
        f.cfg.beta,
        f.cfg.radius_options.clone(),
    );
    let runner = FaultRunner {
        model: &f.model,
        eval: &f.write_eval,
        prechar: &f.prechar,
        hardening: None,
        multi_fault: None,
    };
    // ssf 0.018154774746748918, variance 7.159919e-3, correction mean 0.0
    // (the static SetToSeuMap is exact on this fixture, so the pinned
    // correction is the zero bit pattern — a nonzero value here is itself
    // a signal that the map lost fidelity).
    const GOLDEN_SSF: u64 = 0x3f92972a4f36d16e;
    const GOLDEN_VAR: u64 = 0x3f7d53b8375bf36d;
    const GOLDEN_MEAN1_DIFF: u64 = 0x0000000000000000;
    // The gate-path keys of the coupled chunks and the SEU-map keys of the
    // level-0 chunks; only the coupled chunks strike the netlist.
    let golden_ctr = golden_counters(610, 2037, 1228, 809, 9385);
    for kernel in [CampaignKernel::Compiled, CampaignKernel::Scalar] {
        for threads in [1, 4] {
            let opts = CampaignOptions {
                threads,
                estimator: EstimatorKind::Mlmc,
                ..CampaignOptions::with_kernel(kernel)
            };
            let r = run_campaign_with(&runner, &strategy, RUNS, SEED, &opts);
            let m = r.mlmc.as_ref().expect("mlmc summary present");
            assert!(r.ssf.is_finite() && r.sample_variance.is_finite());
            assert_eq!(
                (
                    r.ssf.to_bits(),
                    r.sample_variance.to_bits(),
                    m.mean1_diff.to_bits(),
                ),
                (GOLDEN_SSF, GOLDEN_VAR, GOLDEN_MEAN1_DIFF),
                "mlmc ({kernel:?}, threads {threads}): \
                 got ssf {} ({:#018x}), variance {:.6e} ({:#018x}), \
                 mean1_diff {:.6e} ({:#018x}) \
                 — if the sampling streams changed intentionally, re-record the goldens",
                r.ssf,
                r.ssf.to_bits(),
                r.sample_variance,
                r.sample_variance.to_bits(),
                m.mean1_diff,
                m.mean1_diff.to_bits(),
            );
            assert_eq!(
                r.counters, golden_ctr,
                "mlmc ({kernel:?}, threads {threads}): hot-path counters"
            );
        }
    }
}

#[test]
fn full_importance_campaign_matches_golden() {
    let f = fixture();
    let strategy = ImportanceSampling::new(
        baseline_distribution(&f.model, &f.cfg),
        &f.model,
        &f.prechar,
        f.cfg.alpha,
        f.cfg.beta,
        f.cfg.radius_options.clone(),
    );
    // ssf 0.01776518304420538, variance 5.365679e-3
    check(
        &strategy,
        0x3f92310940bab100,
        0x3f75fa526b7cde96,
        golden_counters(610, 2037, 1228, 809, 38161),
    );
}

/// The double-glitch campaign keeps the engine's determinism contract:
/// the secondary strike's entropy word is split off each run's own stream,
/// so the full `(ssf, variance, successes)` triple is bit-identical across
/// both kernels and both thread counts. The first configuration acts
/// as the reference — a kernel- or thread-dependent divergence in either
/// strike draw shows up as a bit diff here.
#[test]
fn double_glitch_campaign_is_bit_identical_across_kernels_and_threads() {
    let f = fixture();
    let fd = baseline_distribution(&f.model, &f.cfg);
    let glitch = xlmc_fault::DoubleGlitch::new(fd.spatial.clone(), fd.radius.clone());
    let strategy = ImportanceSampling::new(
        fd,
        &f.model,
        &f.prechar,
        f.cfg.alpha,
        f.cfg.beta,
        f.cfg.radius_options.clone(),
    );
    let runner = FaultRunner {
        model: &f.model,
        eval: &f.write_eval,
        prechar: &f.prechar,
        hardening: None,
        multi_fault: Some(&glitch),
    };
    let golden_ctr = golden_counters(245, 3123, 1742, 1381, 101833);
    let mut reference: Option<(u64, u64, usize)> = None;
    for kernel in [CampaignKernel::Compiled, CampaignKernel::Scalar] {
        for threads in [1usize, 4] {
            let opts = CampaignOptions {
                threads,
                ..CampaignOptions::with_kernel(kernel)
            };
            let r = run_campaign_with(&runner, &strategy, RUNS, SEED, &opts);
            assert!(r.ssf.is_finite() && r.sample_variance.is_finite());
            assert_eq!(
                r.counters, golden_ctr,
                "double glitch ({kernel:?}, threads {threads}): hot-path counters"
            );
            let triple = (r.ssf.to_bits(), r.sample_variance.to_bits(), r.successes);
            match reference {
                None => reference = Some(triple),
                Some(want) => assert_eq!(
                    triple, want,
                    "double glitch ({kernel:?}, threads {threads}) diverged from the \
                     compiled single-thread reference"
                ),
            }
        }
    }
    // The mode must actually engage: at this pinned seed the widened
    // error sets change the estimate relative to the single-spot campaign.
    let single = FaultRunner {
        multi_fault: None,
        ..runner
    };
    let base = run_campaign_with(&single, &strategy, RUNS, SEED, &CampaignOptions::default());
    let (dg_ssf, _, _) = reference.unwrap();
    assert_ne!(
        dg_ssf,
        base.ssf.to_bits(),
        "double glitch left the estimate untouched — the mode never engaged"
    );
}
