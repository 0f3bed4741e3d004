//! Telemetry contracts: the event stream, the Prometheus exposition and
//! the latency registry are **pure observers** of the campaign engine.
//!
//! The engine promises that turning `--events` and `--prom` on changes
//! nothing about the computation — the `CampaignResult` stays bit-identical
//! across every kernel, thread count and estimator. It further promises
//! that the `--events` JSONL stream is replayable provenance: every
//! `chunk_merged` line carries the chunk's Welford triple as IEEE-754 bit
//! patterns, and folding those triples in chunk order rebuilds the final
//! SSF estimate to the bit. Every line must validate against the checked-in
//! `schemas/events.schema.json`, carry a monotonic `seq`, and the stream
//! must stay well-formed even when the campaign is aborted mid-flight.

use std::path::PathBuf;
use std::sync::OnceLock;
use xlmc::estimator::{
    run_campaign_observed, run_campaign_with, CampaignKernel, CampaignOptions, EstimatorKind,
    StopReason,
};
use xlmc::flow::FaultRunner;
use xlmc::json::f64_from_bits_str;
use xlmc::sampling::{
    baseline_distribution, ExperimentConfig, ImportanceSampling, RandomSampling, SamplingStrategy,
};
use xlmc::stats::RunningStats;
use xlmc::telemetry::{
    validate_against_schema, CampaignObserver, JsonValue, ObserverAction, ProgressEvent,
};
use xlmc::{Evaluation, Precharacterization, SystemModel};
use xlmc_soc::workloads;

const SEED: u64 = 0x7E1E;

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
    std::env::temp_dir().join(format!("xlmc-telemetry-{}-{name}", std::process::id()))
}

/// Clone `base` with fresh `--events` / `--prom` output paths tagged by
/// `tag`; returns the options plus both paths (pre-cleared).
fn with_telemetry(base: &CampaignOptions, tag: &str) -> (CampaignOptions, PathBuf, PathBuf) {
    let events = scratch(&format!("{tag}.events.jsonl"));
    let prom = scratch(&format!("{tag}.prom"));
    let _ = std::fs::remove_file(&events);
    let _ = std::fs::remove_file(&prom);
    let opts = CampaignOptions {
        events_path: Some(events.clone()),
        prom_path: Some(prom.clone()),
        ..base.clone()
    };
    (opts, events, prom)
}

/// Parse every non-empty line of an events file.
fn read_events(path: &PathBuf) -> Vec<JsonValue> {
    let src = std::fs::read_to_string(path).expect("read events file");
    src.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| {
            JsonValue::parse(l).unwrap_or_else(|e| panic!("line {} is not JSON: {e}", i + 1))
        })
        .collect()
}

fn events_schema() -> &'static JsonValue {
    static SCHEMA: OnceLock<JsonValue> = OnceLock::new();
    SCHEMA.get_or_init(|| {
        let path =
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../schemas/events.schema.json");
        JsonValue::parse(&std::fs::read_to_string(&path).expect("read events schema"))
            .expect("events schema parses")
    })
}

fn event_name(ev: &JsonValue) -> &str {
    ev.get("event")
        .and_then(JsonValue::as_str)
        .expect("event field")
}

/// Validate every line against the schema and check the stream-level
/// invariants: `seq` counts up from 0, `elapsed_s` never goes backwards,
/// the stream opens with `campaign_started` and closes with
/// `campaign_finished`.
fn check_stream(events: &[JsonValue], tag: &str) {
    assert!(events.len() >= 2, "{tag}: stream too short");
    let schema = events_schema();
    let mut last_elapsed = 0.0f64;
    for (i, ev) in events.iter().enumerate() {
        validate_against_schema(ev, schema)
            .unwrap_or_else(|e| panic!("{tag}: line {} fails schema: {e}", i + 1));
        assert_eq!(
            ev.get("seq").and_then(JsonValue::as_u64),
            Some(i as u64),
            "{tag}: seq not monotonic at line {}",
            i + 1
        );
        let elapsed = ev
            .get("elapsed_s")
            .and_then(JsonValue::as_f64)
            .expect("elapsed_s");
        assert!(
            elapsed >= last_elapsed,
            "{tag}: elapsed_s went backwards at line {}",
            i + 1
        );
        last_elapsed = elapsed;
    }
    assert_eq!(event_name(&events[0]), "campaign_started", "{tag}");
    assert_eq!(
        event_name(events.last().unwrap()),
        "campaign_finished",
        "{tag}"
    );
}

fn bits_field(ev: &JsonValue, key: &str) -> f64 {
    f64_from_bits_str(ev.get(key).unwrap_or_else(|| panic!("missing {key}")), key)
        .unwrap_or_else(|e| panic!("{key}: {e}"))
}

/// Fold the `chunk_merged` Welford triples in chunk order and return the
/// rebuilt point estimate — the same merge the engine performs, so the
/// result must match `CampaignResult::ssf` to the bit.
fn rebuild_ssf(events: &[JsonValue], estimator: EstimatorKind) -> f64 {
    let mut single = RunningStats::new();
    let mut level0 = RunningStats::new();
    let mut level1_diff = RunningStats::new();
    let mut expect_chunk = 0u64;
    for ev in events.iter().filter(|e| event_name(e) == "chunk_merged") {
        assert_eq!(
            ev.get("chunk").and_then(JsonValue::as_u64),
            Some(expect_chunk),
            "chunk_merged events out of order"
        );
        expect_chunk += 1;
        let count = ev.get("count").and_then(JsonValue::as_u64).expect("count");
        let stats = RunningStats::from_raw(
            count,
            bits_field(ev, "mean_bits"),
            bits_field(ev, "m2_bits"),
        );
        let level = ev.get("level").and_then(JsonValue::as_u64).expect("level");
        match estimator {
            EstimatorKind::Single => single.merge(&stats),
            EstimatorKind::Mlmc if level == 0 => level0.merge(&stats),
            EstimatorKind::Mlmc => level1_diff.merge(&stats),
        }
    }
    assert!(expect_chunk > 0, "no chunk_merged events");
    match estimator {
        EstimatorKind::Single => single.mean(),
        EstimatorKind::Mlmc => {
            assert!(level0.count() > 0, "no level-0 chunks in the stream");
            level0.mean() + level1_diff.mean()
        }
    }
}

/// Telemetry must not perturb the campaign: with `--events` and `--prom`
/// on, the whole `CampaignResult` — estimate, variance, counters,
/// attribution — is bit-identical to the bare run, across both kernels,
/// one and four threads, and both estimators.
#[test]
fn telemetry_is_a_pure_observer_across_kernels_threads_estimators() {
    let f = fixture();
    let r = runner(f);
    let strategy = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
    for kernel in [CampaignKernel::Scalar, CampaignKernel::Compiled] {
        for threads in [1usize, 4] {
            for estimator in [EstimatorKind::Single, EstimatorKind::Mlmc] {
                // MLMC needs its 4-chunk pilot plus planned chunks.
                let n = match estimator {
                    EstimatorKind::Single => 2_048,
                    EstimatorKind::Mlmc => 3_072,
                };
                let tag = format!("pure-{kernel:?}-t{threads}-{estimator:?}");
                let base = CampaignOptions {
                    threads,
                    estimator,
                    ..CampaignOptions::with_kernel(kernel)
                };
                let bare = run_campaign_with(&r, &strategy, n, SEED, &base);
                let (opts, events, prom) = with_telemetry(&base, &tag);
                let mut observed = run_campaign_with(&r, &strategy, n, SEED, &opts);
                // The kernel-shape counters count work done, which depends
                // on which worker's strike memo a chunk meets.
                observed.kernel_counters = bare.kernel_counters;
                assert_eq!(
                    observed, bare,
                    "{tag}: telemetry perturbed the campaign result"
                );
                assert!(events.exists(), "{tag}: events file missing");
                assert!(prom.exists(), "{tag}: prom file missing");
                check_stream(&read_events(&events), &tag);
                let _ = std::fs::remove_file(&events);
                let _ = std::fs::remove_file(&prom);
            }
        }
    }
}

/// The lifecycle stream of a checkpointed campaign: schema-valid lines,
/// a `campaign_started` header carrying the run parameters, one
/// `chunk_merged` per chunk, `checkpoint_written` at the cadence, and a
/// `campaign_finished` trailer whose `ssf_bits` is the exact result.
#[test]
fn events_stream_is_schema_valid_and_ordered() {
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
    let n = 2_560; // 5 chunks of 512
    let ck = scratch("stream.ckpt");
    let _ = std::fs::remove_file(&ck);
    let base = CampaignOptions {
        threads: 4,
        checkpoint_path: Some(ck.clone()),
        checkpoint_every_runs: 1_024,
        ..CampaignOptions::default()
    };
    let (opts, events_path, prom) = with_telemetry(&base, "stream");
    let result = run_campaign_with(&r, &strategy, n, SEED, &opts);
    assert_eq!(result.stop, StopReason::Completed);

    let events = read_events(&events_path);
    check_stream(&events, "stream");

    let started = &events[0];
    assert_eq!(started.get("seed").and_then(JsonValue::as_u64), Some(SEED));
    assert_eq!(
        started.get("requested_runs").and_then(JsonValue::as_u64),
        Some(n as u64)
    );
    assert_eq!(
        started.get("kernel").and_then(JsonValue::as_str),
        Some("compiled")
    );
    assert_eq!(
        started.get("estimator").and_then(JsonValue::as_str),
        Some("single")
    );
    assert_eq!(started.get("threads").and_then(JsonValue::as_u64), Some(4));
    assert_eq!(
        started.get("resumed_runs").and_then(JsonValue::as_u64),
        Some(0)
    );

    let merged: Vec<&JsonValue> = events
        .iter()
        .filter(|e| event_name(e) == "chunk_merged")
        .collect();
    assert_eq!(merged.len(), 5, "one chunk_merged per chunk");
    assert_eq!(
        merged
            .last()
            .unwrap()
            .get("runs_done")
            .and_then(JsonValue::as_u64),
        Some(n as u64)
    );
    assert!(
        events.iter().any(|e| event_name(e) == "checkpoint_written"),
        "no checkpoint_written event at the cadence"
    );

    let finished = events.last().unwrap();
    assert_eq!(
        finished.get("stop_reason").and_then(JsonValue::as_str),
        Some("completed")
    );
    assert_eq!(
        finished.get("n").and_then(JsonValue::as_u64),
        Some(n as u64)
    );
    assert_eq!(
        bits_field(finished, "ssf_bits").to_bits(),
        result.ssf.to_bits(),
        "campaign_finished ssf_bits is not the exact result"
    );

    let _ = std::fs::remove_file(&ck);
    let _ = std::fs::remove_file(&events_path);
    let _ = std::fs::remove_file(&prom);
}

/// Replaying the `chunk_merged` Welford triples in chunk order rebuilds
/// the final SSF **bit-for-bit** — the event stream is complete enough to
/// audit the estimate without rerunning the campaign. Checked under both
/// estimators at four worker threads (merge order, not arrival order,
/// defines the stream).
#[test]
fn final_ssf_rebuilds_from_chunk_merged_events_bit_for_bit() {
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
    for estimator in [EstimatorKind::Single, EstimatorKind::Mlmc] {
        let n = match estimator {
            EstimatorKind::Single => 2_560,
            EstimatorKind::Mlmc => 3_072,
        };
        let tag = format!("rebuild-{estimator:?}");
        let base = CampaignOptions {
            threads: 4,
            estimator,
            ..CampaignOptions::default()
        };
        let (opts, events_path, prom) = with_telemetry(&base, &tag);
        let result = run_campaign_with(&r, &strategy, n, SEED, &opts);
        assert_eq!(result.stop, StopReason::Completed, "{tag}");

        let events = read_events(&events_path);
        let rebuilt = rebuild_ssf(&events, estimator);
        assert_eq!(
            rebuilt.to_bits(),
            result.ssf.to_bits(),
            "{tag}: rebuilt SSF {rebuilt} != campaign SSF {} (bit-exact)",
            result.ssf
        );

        let _ = std::fs::remove_file(&events_path);
        let _ = std::fs::remove_file(&prom);
    }
}

/// The `--prom` exposition is well-formed Prometheus text: `xlmc_`-prefixed
/// families with TYPE comments, the campaign labels on every sample, and
/// the latency digests as summaries with quantile labels.
#[test]
fn prom_exposition_has_expected_families_and_labels() {
    let f = fixture();
    let r = runner(f);
    let strategy = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
    let base = CampaignOptions {
        threads: 2,
        ..CampaignOptions::default()
    };
    let (opts, events_path, prom) = with_telemetry(&base, "prom");
    let result = run_campaign_with(&r, &strategy, 1_024, SEED, &opts);
    assert_eq!(result.stop, StopReason::Completed);

    let text = std::fs::read_to_string(&prom).expect("read prom file");
    assert!(text.contains("# TYPE xlmc_runs_total counter"), "{text}");
    assert!(text.contains("xlmc_runs_total{"), "{text}");
    assert!(text.contains("# TYPE xlmc_ssf gauge"), "{text}");
    assert!(
        text.contains("# TYPE xlmc_chunk_wall_seconds summary"),
        "{text}"
    );
    assert!(text.contains("quantile=\"0.99\""), "{text}");
    assert!(text.contains("kernel=\"compiled\""), "{text}");
    assert!(text.contains("estimator=\"single\""), "{text}");
    assert!(
        text.contains(&format!("strategy=\"{}\"", strategy.name())),
        "{text}"
    );
    // The final snapshot agrees with the result.
    let runs_line = text
        .lines()
        .find(|l| l.starts_with("xlmc_runs_total{"))
        .expect("runs_total sample");
    let value: f64 = runs_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert_eq!(value as usize, result.n);

    let _ = std::fs::remove_file(&events_path);
    let _ = std::fs::remove_file(&prom);
}

/// Aborts the campaign at the first chunk boundary at or past `at_runs`.
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

/// An aborted campaign still leaves a well-formed stream: every line
/// parses and validates, and the trailer records the `aborted` stop — the
/// crash-safety contract (each line flushed as written) observed through
/// the same path a monitoring tail would use.
#[test]
fn aborted_campaign_leaves_a_valid_events_stream() {
    let f = fixture();
    let r = runner(f);
    let strategy = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
    let base = CampaignOptions {
        threads: 4,
        ..CampaignOptions::default()
    };
    let (opts, events_path, prom) = with_telemetry(&base, "abort");
    let result = run_campaign_observed(
        &r,
        &strategy,
        4_096,
        SEED,
        &opts,
        &mut AbortAt { at_runs: 1_024 },
    )
    .expect("campaign");
    assert_eq!(result.stop, StopReason::Aborted);
    assert!(result.n < 4_096);

    let events = read_events(&events_path);
    check_stream(&events, "abort");
    assert_eq!(
        events
            .last()
            .unwrap()
            .get("stop_reason")
            .and_then(JsonValue::as_str),
        Some("aborted")
    );

    let _ = std::fs::remove_file(&events_path);
    let _ = std::fs::remove_file(&prom);
}

/// The metrics file's `timing.phases` accounts for a campaign's chunks on
/// either kernel, on ~20k runs. The compiled kernel times five phases
/// (draw, lane build and recall, kernel sweep, conclude, fold), each
/// nonzero. The scalar kernel times three, from whole-chunk laps: the
/// draw, every run's strike and conclusion as `conclude_s`, and the fold;
/// it has no lanes or sweeps. The sums never exceed the chunks' wall time,
/// and the scalar kernel's laps cover it to within 5%.
#[test]
fn phase_times_cover_the_compiled_chunks() {
    let f = fixture();
    let strategy = ImportanceSampling::new(
        baseline_distribution(&f.model, &f.cfg),
        &f.model,
        &f.prechar,
        f.cfg.alpha,
        f.cfg.beta,
        f.cfg.radius_options.clone(),
    );
    for (kernel, timed) in [
        (
            CampaignKernel::Compiled,
            &["draw_s", "lanes_s", "sweep_s", "conclude_s", "fold_s"][..],
        ),
        (
            CampaignKernel::Scalar,
            &["draw_s", "conclude_s", "fold_s"][..],
        ),
    ] {
        let metrics = scratch(&format!("phases.{kernel:?}.metrics.json"));
        let opts = CampaignOptions {
            metrics_path: Some(metrics.clone()),
            ..CampaignOptions::with_kernel(kernel)
        };
        let res = run_campaign_with(&runner(f), &strategy, 40 * 512, SEED, &opts);
        assert_eq!(res.n, 40 * 512);
        let doc = JsonValue::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        let _ = std::fs::remove_file(&metrics);
        let timing = doc.get("timing").unwrap();
        let wall = timing
            .get("latency")
            .and_then(|l| l.get("chunk_wall"))
            .and_then(|h| h.get("sum_s"))
            .and_then(JsonValue::as_f64)
            .unwrap();
        let Some(JsonValue::Obj(phases)) = timing.get("phases") else {
            panic!("timing.phases must be an object");
        };
        let names: Vec<&str> = phases.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            ["draw_s", "lanes_s", "sweep_s", "conclude_s", "fold_s"]
        );
        let mut total = 0.0;
        for (name, v) in phases {
            let s = v.as_f64().unwrap();
            let ctx = format!("{kernel:?} {name}: {s}");
            assert_eq!(s > 0.0, timed.contains(&name.as_str()), "{ctx}");
            total += s;
        }
        assert!(
            total <= wall,
            "{kernel:?}: phases {total} s > chunk wall {wall} s"
        );
        if kernel == CampaignKernel::Scalar {
            let ratio = total / wall;
            assert!(
                ratio >= 0.95,
                "scalar phases cover {ratio} of the chunk wall"
            );
        }
    }
}
