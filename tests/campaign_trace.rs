//! Tracing, hot-path counters, and provenance/replay contracts.
//!
//! The trace subsystem promises three things. First, it is a **pure
//! observer**: a campaign run with span recording, counters and provenance
//! capture enabled returns the bit-identical `CampaignResult` of an
//! untraced run. Second, the hot-path counters are **schedule-invariant**:
//! defined chunk-locally, their totals are a pure function of
//! `(seed, n, strategy)` — identical between the scalar and compiled kernels
//! and at any thread count (only the kernel-shape counters differ by
//! kernel). Third, provenance **replays**: any recorded run, re-derived
//! solo from `SplitMix64::for_run(seed, i)`, reproduces the campaign's
//! verdict for that run.
//!
//! The trace file written along the way is validated against the
//! checked-in `schemas/trace.schema.json`.

use std::path::PathBuf;
use std::sync::OnceLock;
use xlmc::estimator::{
    replay_run, run_campaign_with, CampaignKernel, CampaignOptions, CampaignResult,
};
use xlmc::flow::FaultRunner;
use xlmc::harden::{DupConfigVote, HardenedSet, HardenedVariant, HardeningModel};
use xlmc::sampling::{
    baseline_distribution, ExperimentConfig, ImportanceSampling, RandomSampling, SamplingStrategy,
};
use xlmc::telemetry::{validate_against_schema, JsonValue};
use xlmc::trace::TraceSink;
use xlmc::{Evaluation, Precharacterization, SystemModel};
use xlmc_soc::workloads;

const SEED: u64 = 0x7247;
const RUNS: usize = 1_024; // two full chunks

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

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("xlmc-trace-{}-{name}", std::process::id()))
}

/// Run a campaign with a metrics file and return its result and the
/// scheduler's `strike_memo_hits` and `handle_recalls` (summed over the
/// workers' strike memos).
fn run_with_strike_hits(
    r: &FaultRunner<'_>,
    strategy: &dyn SamplingStrategy,
    n: usize,
    opts: &CampaignOptions,
    tag: &str,
) -> (CampaignResult, u64, u64) {
    let metrics = scratch(&format!("{tag}.metrics.json"));
    let opts = CampaignOptions {
        metrics_path: Some(metrics.clone()),
        ..opts.clone()
    };
    let res = run_campaign_with(r, strategy, n, SEED, &opts);
    let doc = JsonValue::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let _ = std::fs::remove_file(&metrics);
    let scheduler = |key| {
        doc.get("scheduler")
            .and_then(|s| s.get(key))
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("scheduler.{key}"))
    };
    (
        res,
        scheduler("strike_memo_hits"),
        scheduler("handle_recalls"),
    )
}

#[test]
fn warm_campaign_hits_both_memo_layers() {
    // Over two chunks of a t_max = 16 campaign, the per-chunk cycle-value
    // memo and conclusion memo must both see repeats: the timing window is
    // far smaller than the chunk, so T_e values and (T_e, error-pattern)
    // pairs recur within a chunk by pigeonhole.
    let f = fixture();
    let r = runner(f);
    let strategy = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
    let res = run_campaign_with(&r, &strategy, RUNS, SEED, &CampaignOptions::default());
    assert!(
        res.counters.cycle_memo_hits > 0,
        "no cycle-value memo hits: {:?}",
        res.counters
    );
    assert!(
        res.counters.conclusion_memo_hits > 0,
        "no conclusion memo hits: {:?}",
        res.counters
    );
    // Internal consistency: every non-out-of-run run does one cycle-memo
    // lookup; every concluded pattern is analytic or RTL.
    assert_eq!(
        res.counters.cycle_memo_hits + res.counters.cycle_memo_misses + res.counters.out_of_run,
        RUNS
    );
    assert_eq!(
        res.counters.conclusions_analytic + res.counters.conclusions_rtl,
        res.counters.conclusion_memo_misses
    );
}

#[test]
fn counter_totals_are_kernel_and_thread_invariant() {
    let f = fixture();
    let r = runner(f);
    let strategy = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
    let mut results = Vec::new();
    for kernel in [CampaignKernel::Scalar, CampaignKernel::Compiled] {
        for threads in [1usize, 4] {
            let opts = CampaignOptions {
                threads,
                ..CampaignOptions::with_kernel(kernel)
            };
            let tag = format!("{kernel:?} t{threads}");
            let (res, hits, _) = run_with_strike_hits(&r, &strategy, RUNS, &opts, &tag);
            results.push((tag, res, hits));
        }
    }
    let (ref first_tag, ref first, _) = results[0];
    for (tag, res, _) in &results[1..] {
        assert_eq!(
            res.counters, first.counters,
            "hot-path counters diverged between {first_tag} and {tag}"
        );
        assert_eq!(
            res.first_success, first.first_success,
            "first_success diverged between {first_tag} and {tag}"
        );
    }
    // The kernel-shape counters DO describe the compiled kernel: a full
    // compiled campaign packs lanes and groups frames.
    let (_, compiled_t4, strike_hits) = results.last().unwrap();
    assert!(compiled_t4.kernel_counters.lane_batches > 0);
    // Every run that lands inside the benchmark occupies a lane or takes
    // its group's result from a worker's strike memo.
    assert_eq!(
        compiled_t4.kernel_counters.lanes_occupied
            + *strike_hits as usize
            + compiled_t4.counters.out_of_run,
        RUNS
    );
    assert!(compiled_t4.kernel_counters.frame_groups >= compiled_t4.kernel_counters.lane_batches);
    assert!(compiled_t4.kernel_counters.mean_lane_occupancy() > 1.0);
}

/// The strike memo engages and changes no result: on a 50k-run importance
/// campaign at one and four workers, repeats of untimed
/// `(T_e, center, radius)` groups skip the sweep, every in-run run is a
/// lane or a strike-memo hit, and every deterministic field equals the
/// scalar kernel's. The double glitch bypasses the memo.
#[test]
fn strike_memo_engages_and_changes_no_result() {
    let f = fixture();
    let r = runner(f);
    let fd = baseline_distribution(&f.model, &f.cfg);
    let strategy = ImportanceSampling::new(
        fd.clone(),
        &f.model,
        &f.prechar,
        f.cfg.alpha,
        f.cfg.beta,
        f.cfg.radius_options.clone(),
    );
    let n = 50 * RUNS;
    let scalar = run_campaign_with(
        &r,
        &strategy,
        n,
        SEED,
        &CampaignOptions::with_kernel(CampaignKernel::Scalar),
    );
    for threads in [1usize, 4] {
        let opts = CampaignOptions {
            threads,
            ..CampaignOptions::with_kernel(CampaignKernel::Compiled)
        };
        let tag = format!("strike-memo-t{threads}");
        let (mut res, hits, recalls) = run_with_strike_hits(&r, &strategy, n, &opts, &tag);
        assert_eq!(recalls, hits, "{tag}: every hit is a handle recall");
        assert!(hits > 0, "{tag}: no strike-memo hit");
        assert_eq!(
            res.kernel_counters.lanes_occupied + hits as usize + res.counters.out_of_run,
            n,
            "{tag}"
        );
        res.kernel_counters = scalar.kernel_counters;
        assert_eq!(res, scalar, "{tag}: differs from the scalar kernel");
    }
    let glitch = xlmc_fault::DoubleGlitch::new(fd.spatial.clone(), fd.radius.clone());
    let r = FaultRunner {
        multi_fault: Some(&glitch),
        ..runner(f)
    };
    let opts = CampaignOptions::with_kernel(CampaignKernel::Compiled);
    let (res, hits, _) = run_with_strike_hits(&r, &strategy, 4 * RUNS, &opts, "strike-memo-glitch");
    assert_eq!(hits, 0, "the double glitch bypasses the strike memo");
    assert_eq!(
        res.kernel_counters.lanes_occupied + res.counters.out_of_run,
        4 * RUNS
    );
}

/// The counter invariance where the memo is busiest: importance sampling
/// concentrates strikes, the voter masks most configuration flips and the
/// second glitch spot widens the error sets, so keys repeat within and
/// across chunks. Counters, estimate bits and attribution must not depend
/// on the kernel or on how the chunks are spread over per-worker memos.
#[test]
fn counters_stay_invariant_under_hardening_and_double_glitch() {
    let f = fixture();
    let fd = baseline_distribution(&f.model, &f.cfg);
    let glitch = xlmc_fault::DoubleGlitch::new(fd.spatial.clone(), fd.radius.clone());
    let vote = HardenedVariant::DupConfigVote(DupConfigVote::new());
    let r = FaultRunner {
        hardening: Some(&vote),
        multi_fault: Some(&glitch),
        ..runner(f)
    };
    let strategy = ImportanceSampling::new(
        fd,
        &f.model,
        &f.prechar,
        f.cfg.alpha,
        f.cfg.beta,
        f.cfg.radius_options.clone(),
    );
    let runs = 4 * RUNS; // eight chunks, so four workers each take two
    let mut results = Vec::new();
    for kernel in [CampaignKernel::Scalar, CampaignKernel::Compiled] {
        for threads in [1usize, 2, 4] {
            let opts = CampaignOptions {
                threads,
                ..CampaignOptions::with_kernel(kernel)
            };
            let res = run_campaign_with(&r, &strategy, runs, SEED, &opts);
            results.push((format!("{kernel:?} t{threads}"), res));
        }
    }
    let (ref first_tag, ref first) = results[0];
    assert!(
        first.counters.conclusion_memo_hits > 0 && first.counters.conclusion_memo_misses > 0,
        "the campaign must both repeat and conclude keys: {:?}",
        first.counters
    );
    for (tag, res) in &results[1..] {
        assert_eq!(
            res.counters, first.counters,
            "hot-path counters diverged between {first_tag} and {tag}"
        );
        assert_eq!(
            (res.ssf.to_bits(), res.sample_variance.to_bits()),
            (first.ssf.to_bits(), first.sample_variance.to_bits()),
            "estimate diverged between {first_tag} and {tag}"
        );
        assert_eq!(
            res.attribution, first.attribution,
            "attribution diverged between {first_tag} and {tag}"
        );
    }
}

/// Outcome handles change no counter. With no defense and with the voter
/// the compiled kernel's strike-memo hits all come from handles; under the
/// stochastic uniform hardening none does. At one and two workers every
/// `CampaignCounters` field, the estimate and the attribution equal the
/// scalar kernel's.
#[test]
fn outcome_handles_keep_every_counter() {
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
    let uniform = HardenedVariant::Uniform(HardenedSet::new(
        [xlmc_soc::MpuBit::Violation, xlmc_soc::MpuBit::Enable],
        HardeningModel::default(),
    ));
    let n = 8 * RUNS;
    for (hardening, fixed) in [(None, true), (Some(&vote), true), (Some(&uniform), false)] {
        let r = FaultRunner {
            hardening,
            ..runner(f)
        };
        let scalar = run_campaign_with(
            &r,
            &strategy,
            n,
            SEED,
            &CampaignOptions::with_kernel(CampaignKernel::Scalar),
        );
        for threads in [1usize, 2] {
            let opts = CampaignOptions {
                threads,
                ..CampaignOptions::with_kernel(CampaignKernel::Compiled)
            };
            let tag = format!(
                "{} t{threads}",
                hardening.map_or("none", HardenedVariant::name)
            );
            let (mut res, hits, recalls) = run_with_strike_hits(&r, &strategy, n, &opts, &tag);
            assert!(hits > 0, "{tag}: no strike-memo hit");
            assert_eq!(recalls, if fixed { hits } else { 0 }, "{tag}");
            assert_eq!(res.counters, scalar.counters, "{tag}: counters");
            res.kernel_counters = scalar.kernel_counters;
            assert_eq!(res, scalar, "{tag}: differs from the scalar kernel");
        }
    }
}

#[test]
fn tracing_is_a_pure_observer_and_the_file_validates() {
    let f = fixture();
    let r = runner(f);
    let strategy = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
    let untraced = run_campaign_with(&r, &strategy, RUNS, SEED, &CampaignOptions::default());

    let trace_path = scratch("observer.json");
    let _ = std::fs::remove_file(&trace_path);
    let opts = CampaignOptions {
        trace_path: Some(trace_path.clone()),
        threads: 4,
        ..CampaignOptions::default()
    };
    let mut traced = run_campaign_with(&r, &strategy, RUNS, SEED, &opts);
    // The kernel-shape counters count work done, which depends on which
    // worker's strike memo a chunk meets.
    traced.kernel_counters = untraced.kernel_counters;
    assert_eq!(traced, untraced, "tracing changed the campaign result");

    // The written document validates against the checked-in schema and
    // carries every section.
    let schema_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../schemas/trace.schema.json");
    let schema = JsonValue::parse(&std::fs::read_to_string(&schema_path).expect("read schema"))
        .expect("schema parses");
    let doc = JsonValue::parse(&std::fs::read_to_string(&trace_path).expect("read trace"))
        .expect("trace parses");
    validate_against_schema(&doc, &schema).expect("trace matches schema");

    let events = doc.get("traceEvents").and_then(JsonValue::as_arr).unwrap();
    // One chunk span per chunk, plus the per-sweep phase spans inside.
    let chunk_spans = events
        .iter()
        .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some("chunk"))
        .count();
    assert_eq!(chunk_spans, RUNS / 512);
    for phase in ["draw", "strike", "conclude", "fold"] {
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(JsonValue::as_str) == Some(phase)),
            "no {phase:?} span in the trace"
        );
    }

    // Provenance: the ring holds the tail of the campaign and the success
    // log matches the result's success count.
    let ring = doc
        .get("provenance")
        .and_then(|p| p.get("ring"))
        .and_then(JsonValue::as_arr)
        .unwrap();
    assert!(!ring.is_empty());
    let last = ring.last().unwrap();
    assert_eq!(
        last.get("run_index").and_then(JsonValue::as_u64),
        Some(RUNS as u64 - 1)
    );
    let successes = doc
        .get("provenance")
        .and_then(|p| p.get("successes"))
        .and_then(JsonValue::as_arr)
        .unwrap();
    assert_eq!(successes.len(), traced.successes);

    let _ = std::fs::remove_file(&trace_path);
}

#[test]
fn recorded_runs_replay_to_the_same_verdict() {
    let f = fixture();
    let r = runner(f);
    let strategy = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
    let res = run_campaign_with(&r, &strategy, RUNS, SEED, &CampaignOptions::default());
    let first = res
        .first_success
        .expect("a 1k-run campaign at this seed has at least one success");
    // The first success and an arbitrary mid-campaign run both re-derive
    // solo to self-consistent records.
    let rec = replay_run(&r, &strategy, SEED, first, &TraceSink::disabled());
    assert_eq!(rec.run_index, first);
    assert!(rec.success, "replay of the first success did not succeed");
    let mid = replay_run(&r, &strategy, SEED, RUNS as u64 / 2, &TraceSink::disabled());
    assert_eq!(mid.run_index, RUNS as u64 / 2);
    // Replaying is deterministic: doing it twice gives identical records.
    let again = replay_run(&r, &strategy, SEED, first, &TraceSink::disabled());
    assert_eq!(rec, again);
}

#[test]
fn replay_flag_cross_checks_the_campaign_record() {
    // End-to-end `--replay` path: run a traced campaign with
    // `replay = Some(i)`; the engine asserts internally that the solo
    // re-execution matches the provenance record, so reaching the result
    // is the pass condition.
    let f = fixture();
    let r = runner(f);
    let strategy = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
    let probe = run_campaign_with(&r, &strategy, RUNS, SEED, &CampaignOptions::default());
    let target = probe.first_success.expect("campaign has a success");
    let opts = CampaignOptions {
        replay: Some(target),
        ..CampaignOptions::default()
    };
    let res = run_campaign_with(&r, &strategy, RUNS, SEED, &opts);
    assert_eq!(res, probe, "replay changed the campaign result");
}
