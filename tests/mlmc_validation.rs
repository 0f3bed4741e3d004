//! Statistical acceptance harness for the multilevel estimator.
//!
//! Two obligations, per ISSUE 7:
//!
//! 1. **Unbiasedness (3σ z-test).** On every workload × hardening variant,
//!    the MLMC point estimate must sit within three combined standard
//!    errors of a run-to-halt oracle campaign over the *same* `(seed, n)`
//!    sample stream — the single estimator, whose every non-analytic
//!    verdict comes from an RTL resume that runs to halt.
//! 2. **Correction-term provenance.** The folded level-1 statistics must
//!    reproduce *bit-exactly* from the raw paired records: re-derive the
//!    coupled run indices from `MlmcSummary::chunk_levels`, re-evaluate
//!    every pair solo with [`coupled_run_with`], and replay the engine's
//!    own Welford-push / Chan-merge order.

use std::sync::OnceLock;

use xlmc::estimator::{run_campaign_with, CampaignOptions, EstimatorKind, CHUNK_RUNS};
use xlmc::flow::FaultRunner;
use xlmc::harden::{HardenedSet, HardenedVariant, HardeningModel};
use xlmc::multilevel::{coupled_run_with, MlmcScratch, SetToSeuMap};
use xlmc::resume::ConclusionMemo;
use xlmc::sampling::{baseline_distribution, ExperimentConfig, ImportanceSampling};
use xlmc::stats::RunningStats;
use xlmc::{Evaluation, Precharacterization, SystemModel};
use xlmc_soc::{workloads, MpuBit};

/// Six chunks: the four-chunk pilot plus two planned chunks, so the frozen
/// allocation is exercised on every fixture.
const RUNS: usize = 6 * CHUNK_RUNS;
const SEED: u64 = 0xACCE;

/// The model, pre-characterization and sampling config are
/// workload-independent; build them once for the whole harness.
struct Fixture {
    model: SystemModel,
    prechar: Precharacterization,
    cfg: ExperimentConfig,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let model = SystemModel::with_defaults().unwrap();
        let cfg = ExperimentConfig {
            t_max: 16,
            ..Default::default()
        };
        let prechar = Precharacterization::run(&model, cfg.t_max, cfg.max_radius());
        Fixture {
            model,
            prechar,
            cfg,
        }
    })
}

fn importance(f: &Fixture) -> ImportanceSampling {
    ImportanceSampling::new(
        baseline_distribution(&f.model, &f.cfg),
        &f.model,
        &f.prechar,
        f.cfg.alpha,
        f.cfg.beta,
        f.cfg.radius_options.clone(),
    )
}

fn mlmc_options() -> CampaignOptions {
    CampaignOptions {
        estimator: EstimatorKind::Mlmc,
        ..CampaignOptions::with_threads(2)
    }
}

/// The run-to-halt oracle: the paper's single estimator, whose RTL
/// resumes always run to halt.
fn oracle_options() -> CampaignOptions {
    CampaignOptions::with_threads(2)
}

/// Paired-sample z-test of the MLMC estimate against the oracle on one
/// runner. Both campaigns consume the same per-run `SplitMix64` streams,
/// so the gate marginal of every coupled chunk is bit-identical to the
/// oracle's verdicts on those indices — the discrepancy is pure level-0
/// sampling noise, and the independent-variance band below is
/// conservative.
fn assert_within_three_sigma(runner: &FaultRunner<'_>, label: &str) {
    let f = fixture();
    let strategy = importance(f);
    let mlmc = run_campaign_with(runner, &strategy, RUNS, SEED, &mlmc_options());
    let oracle = run_campaign_with(runner, &strategy, RUNS, SEED, &oracle_options());

    assert_eq!(mlmc.estimator, EstimatorKind::Mlmc);
    let m = mlmc.mlmc.as_ref().expect("mlmc summary present");
    assert!(m.n0 > 0 && m.n1 > 0, "{label}: both levels sampled");
    assert_eq!((m.n0 + m.n1) as usize, RUNS, "{label}: every run folded");
    assert!(
        m.plan_ratio.is_some(),
        "{label}: allocation frozen after the pilot"
    );

    let se = (m.estimator_variance() + oracle.sample_variance / oracle.n as f64)
        .sqrt()
        .max(1e-9);
    let diff = (mlmc.ssf - oracle.ssf).abs();
    assert!(
        diff <= 3.0 * se,
        "{label}: |{:.6} - {:.6}| = {diff:.3e} exceeds 3σ = {:.3e} \
         (s0² {:.3e}, s1² {:.3e}, oracle s² {:.3e})",
        mlmc.ssf,
        oracle.ssf,
        3.0 * se,
        m.var0,
        m.var1_diff,
        oracle.sample_variance,
    );
}

fn hardened_set() -> HardenedVariant {
    HardenedVariant::Uniform(HardenedSet::new(
        [MpuBit::Violation, MpuBit::Enable],
        HardeningModel::default(),
    ))
}

#[test]
fn mlmc_matches_oracle_on_illegal_write() {
    let f = fixture();
    let eval = Evaluation::new(workloads::illegal_write()).unwrap();
    let hardened = hardened_set();
    for (label, hardening) in [
        ("illegal_write", None),
        ("illegal_write+hard", Some(&hardened)),
    ] {
        let runner = FaultRunner {
            model: &f.model,
            eval: &eval,
            prechar: &f.prechar,
            hardening,
            multi_fault: None,
        };
        assert_within_three_sigma(&runner, label);
    }
}

#[test]
fn mlmc_matches_oracle_on_illegal_read() {
    let f = fixture();
    let eval = Evaluation::new(workloads::illegal_read()).unwrap();
    let hardened = hardened_set();
    for (label, hardening) in [
        ("illegal_read", None),
        ("illegal_read+hard", Some(&hardened)),
    ] {
        let runner = FaultRunner {
            model: &f.model,
            eval: &eval,
            prechar: &f.prechar,
            hardening,
            multi_fault: None,
        };
        assert_within_three_sigma(&runner, label);
    }
}

#[test]
fn mlmc_matches_oracle_on_dma_exfiltration() {
    let f = fixture();
    let eval = Evaluation::new(workloads::dma_exfiltration()).unwrap();
    let hardened = hardened_set();
    for (label, hardening) in [("dma", None), ("dma+hard", Some(&hardened))] {
        let runner = FaultRunner {
            model: &f.model,
            eval: &eval,
            prechar: &f.prechar,
            hardening,
            multi_fault: None,
        };
        assert_within_three_sigma(&runner, label);
    }
}

/// Regression: `--replay N` on an MLMC campaign must compare at the level
/// the campaign evaluated run `N`, not by re-running the gate flow. The
/// target here is deliberately a pilot level-0 run whose gate and RTL
/// verdicts differ — replaying the wrong level would fail the in-engine
/// cross-check (it panics on divergence).
#[test]
fn replay_of_a_level0_run_compares_at_level_zero() {
    let f = fixture();
    // illegal_read is the fixture workload with a non-empty cross-level
    // gap inside the pilot's level-0 chunks at this seed.
    let eval = Evaluation::new(workloads::illegal_read()).unwrap();
    let runner = FaultRunner {
        model: &f.model,
        eval: &eval,
        prechar: &f.prechar,
        hardening: None,
        multi_fault: None,
    };
    let strategy = importance(f);

    // Pilot level-0 chunks are the odd pilot indices: chunks 1 and 3.
    let map = SetToSeuMap::build(&f.model, &eval, &f.prechar);
    let mut memo = ConclusionMemo::default();
    let mut scratch = MlmcScratch::default();
    let target = [1usize, 3]
        .iter()
        .flat_map(|&c| c * CHUNK_RUNS..(c + 1) * CHUNK_RUNS)
        .find(|&i| {
            let rec = coupled_run_with(
                &runner,
                &map,
                &strategy,
                SEED,
                i as u64,
                &mut scratch,
                &mut memo,
            );
            rec.gate_success != rec.rtl_success
        })
        .expect("a pilot level-0 run where the levels disagree") as u64;

    let options = CampaignOptions {
        replay: Some(target),
        ..mlmc_options()
    };
    // Panics inside the engine's cross-check if the replay re-derives the
    // wrong level's verdict.
    let result = run_campaign_with(&runner, &strategy, RUNS, SEED, &options);
    let m = result.mlmc.as_ref().expect("mlmc summary present");
    assert_eq!(
        m.chunk_levels[target as usize / CHUNK_RUNS],
        0,
        "the probed run must sit in a level-0 chunk"
    );
}

/// Replay every coupled run solo and reproduce the campaign's folded
/// level-1 statistics bit-for-bit: same per-run records, same Welford push
/// order within each chunk, same Chan merge order across chunks.
#[test]
fn correction_term_reproduces_from_raw_paired_records() {
    let f = fixture();
    let eval = Evaluation::new(workloads::illegal_write()).unwrap();
    let runner = FaultRunner {
        model: &f.model,
        eval: &eval,
        prechar: &f.prechar,
        hardening: None,
        multi_fault: None,
    };
    let strategy = importance(f);
    let result = run_campaign_with(&runner, &strategy, RUNS, SEED, &mlmc_options());
    let m = result.mlmc.as_ref().expect("mlmc summary present");
    assert_eq!(m.chunk_levels.len(), RUNS.div_ceil(CHUNK_RUNS));

    let map = SetToSeuMap::build(&f.model, &eval, &f.prechar);
    let mut memo = ConclusionMemo::default();
    let mut scratch = MlmcScratch::default();
    let mut diff = RunningStats::new();
    let mut gate = RunningStats::new();
    let mut rtl = RunningStats::new();
    let mut records = Vec::new();
    for (c, &level) in m.chunk_levels.iter().enumerate() {
        if level != 1 {
            continue;
        }
        let mut chunk_diff = RunningStats::new();
        let mut chunk_gate = RunningStats::new();
        let mut chunk_rtl = RunningStats::new();
        for i in c * CHUNK_RUNS..((c + 1) * CHUNK_RUNS).min(result.n) {
            let rec = coupled_run_with(
                &runner,
                &map,
                &strategy,
                SEED,
                i as u64,
                &mut scratch,
                &mut memo,
            );
            chunk_diff.push(rec.diff());
            chunk_gate.push(rec.gate_term());
            chunk_rtl.push(rec.rtl_term());
            records.push(rec);
        }
        diff.merge(&chunk_diff);
        gate.merge(&chunk_gate);
        rtl.merge(&chunk_rtl);
    }

    assert_eq!(diff.count(), m.n1, "coupled run indices re-derived exactly");
    assert_eq!(diff.mean().to_bits(), m.mean1_diff.to_bits());
    assert_eq!(diff.variance().to_bits(), m.var1_diff.to_bits());
    assert_eq!(gate.mean().to_bits(), m.mean1_gate.to_bits());
    assert_eq!(rtl.mean().to_bits(), m.mean1_rtl.to_bits());

    // The folded correction mean is exactly the gap between the raw
    // marginal means: mean(w·e_gate) − mean(w·e_rtl) over the same
    // records (up to summation rounding).
    let n1 = records.len() as f64;
    let mean_gate: f64 = records.iter().map(|r| r.gate_term()).sum::<f64>() / n1;
    let mean_rtl: f64 = records.iter().map(|r| r.rtl_term()).sum::<f64>() / n1;
    assert!(
        (mean_gate - mean_rtl - m.mean1_diff).abs() < 1e-12,
        "{mean_gate} - {mean_rtl} vs {}",
        m.mean1_diff
    );

    // And the telescoped point estimate is the level-0 mean plus that
    // correction.
    assert!((result.ssf - (m.mean0 + m.mean1_diff)).abs() < 1e-15);
}
