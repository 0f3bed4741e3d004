//! Campaign-engine throughput benchmark: runs/sec of the compiled and
//! scalar kernels against a sequential seed-style baseline.
//!
//! The baseline reproduces the pre-sharding engine: one shared `StdRng`,
//! the allocating [`FaultRunner::run`] per attack (fresh cycle values,
//! fresh strike buffers, cloned checkpoint on every RTL resume). The
//! `scalar_threads_1` row is the sharded engine with the one-run-at-a-time
//! kernel; the `engine_compiled_threads_N` rows are the default 256-wide
//! compiled-program kernel at 1, 2 and 4 worker threads — same number of
//! runs, same flow, per-run `SplitMix64` streams, bit-identical results
//! across every row but the baseline (whose RNG scheme predates per-run
//! streams). The `engine_mlmc_threads_{1,4}` rows run the two-level MLMC
//! estimator (`--estimator mlmc`): its estimate is asserted bit-identical
//! across threads {1,4} and both kernels. The telemetry ablation pair,
//! `engine_compiled_threads_1_long` and `engine_telemetry_threads_1` (events
//! + Prometheus on), runs [`TELEMETRY_RUNS`] each in every mode.
//!
//! Every row reports the fastest of three repeats (scheduler
//! interference on a shared host is one-sided, so max-of-N estimates
//! uncontended throughput; the result is asserted bit-identical across
//! repeats). Results land in `BENCH_campaign.json` in the working directory
//! (`schemas/bench.schema.json`), one object per configuration with
//! runs/sec and the speedup over the baseline; `--bench-json PATH` writes
//! the same document to PATH in any mode (the CI smoke validates it
//! against the schema).
//!
//! A strike-only **gate-level-path microbenchmark** accompanies the
//! end-to-end rows (the `gate_path` object in the JSON): the same
//! stratified draw pushed through each kernel's strike phase alone, which
//! is where the kernels actually differ — the draw/conclude/fold phases
//! are kernel-invariant scalar work that dilutes end-to-end ratios.
//!
//! `--smoke` also runs both estimators to the same `--target-eps` goal
//! and **fails** (exit 1) if MLMC spends more than 0.5x the single
//! estimator's gate-accurate runs, or if its estimate leaves the 3-sigma
//! band around the gate-accurate reference (both gates are deterministic
//! run-count comparisons, never wall-clock).
//!
//! `--smoke` runs a reduced campaign and **fails** (exit 1) if the compiled
//! kernel's single-thread throughput drops below [`END_TO_END_VS_SCALAR`]x
//! the scalar kernel's, if its gate path drops below
//! [`GATE_PATH_VS_SCALAR`]x the scalar kernel's, if telemetry costs more
//! than 5% of the long compiled row's throughput, or — on a host with 4+
//! CPUs — if two compiled workers fall below 0.7x one worker (the
//! threads-scaling regression gate). With `--trace` the throughput gates are reported but
//! not enforced: span recording adds per-sweep overhead only the compiled
//! kernel pays, so the comparison is unfair.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;
use xlmc::estimator::{
    gate_path_bench, replay_run, run_campaign_observed, run_campaign_with, CampaignKernel,
    CampaignOptions, EstimatorKind, GatePathBench, StopReason,
};
use xlmc::flow::FaultRunner;
use xlmc::sampling::{baseline_distribution, ImportanceSampling, SamplingStrategy};
use xlmc::stats::RunningStats;
use xlmc::telemetry::StderrProgress;
use xlmc::trace::TraceSink;
use xlmc_bench::{tagged_path, ExperimentContext};

const RUNS: usize = 100_000;
const SMOKE_RUNS: usize = 20_000;
/// Runs of the telemetry ablation pair, in every mode: enough that each
/// row lasts over 0.5 s on a 2-CPU Xeon host (2.4-3.5M runs/s once the
/// conclusion memo is warm), so the 5% overhead gate measures more than
/// scheduler noise.
const TELEMETRY_RUNS: usize = 2_000_000;
const SEED: u64 = 0xBE7C;
/// Every row is measured `REPEATS` times and the fastest repeat is kept.
/// On a shared host the scheduler noise at these durations (tens of
/// milliseconds in smoke mode) exceeds the kernel-vs-kernel deltas the
/// gates guard, and interference is one-sided — it only ever slows a
/// run down — so max-of-N is the honest throughput estimator.
const REPEATS: usize = 3;
/// The smoke gate on the strike-only gate path: compiled lanes/s over
/// scalar lanes/s. The gate used to require compiled >= 1.2x the removed
/// 64-lane kernel; it keeps that absolute strength as 1.2 * r, where
/// r = 2.82 is the median 64-lane/scalar lanes/s ratio over twelve
/// `--smoke` runs of the last revision that had the 64-lane kernel (2-CPU
/// shared host; r ranged 2.22..3.71, compiled/scalar 5.74..8.89, median
/// 7.18).
const GATE_PATH_VS_SCALAR: f64 = 1.2 * 2.82;
/// The smoke gate on end-to-end single-thread throughput: compiled runs/s
/// over scalar runs/s. It used to be two gates, 64-lane >= scalar and
/// compiled >= 0.9x the 64-lane kernel; the second keeps its absolute
/// strength as 0.9 * e, where e = 1.75 is the median 64-lane/scalar
/// runs/s ratio over twenty `--smoke` runs of the last revision that had
/// that kernel (same host; e ranged 0.98..2.25), and implies the first.
const END_TO_END_VS_SCALAR: f64 = 0.9 * 1.75;

struct Row {
    label: String,
    runs: usize,
    runs_per_sec: f64,
    elapsed_s: f64,
    ssf: f64,
}

/// The seed engine, verbatim: sequential, one shared RNG, allocating
/// per-run path.
fn baseline(runner: &FaultRunner<'_>, strategy: &dyn SamplingStrategy, runs: usize) -> Row {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut stats = RunningStats::new();
    let start = Instant::now();
    for _ in 0..runs {
        let sample = strategy.draw(&mut rng);
        let w = strategy.weight(&sample);
        let outcome = runner.run(&sample, &mut rng);
        stats.push(if outcome.success { w } else { 0.0 });
    }
    let elapsed = start.elapsed().as_secs_f64();
    Row {
        label: "baseline_sequential".into(),
        runs,
        runs_per_sec: runs as f64 / elapsed,
        elapsed_s: elapsed,
        ssf: stats.mean(),
    }
}

/// One engine row to measure: `runs` runs under `opts`.
struct RowSpec {
    label: String,
    runs: usize,
    opts: CampaignOptions,
}

fn engine(runner: &FaultRunner<'_>, strategy: &dyn SamplingStrategy, spec: &RowSpec) -> Row {
    let label = spec.label.clone();
    let runs = spec.runs;
    let mut opts = spec.opts.clone();
    // Tag the output paths per row so configurations don't clobber each
    // other (same scheme as run_observed_campaign).
    if let Some(p) = &opts.metrics_path {
        opts.metrics_path = Some(tagged_path(p, &label));
    }
    if let Some(p) = &opts.checkpoint_path {
        // Every repeat times the whole campaign: a checkpoint left by an
        // earlier repeat or invocation would be resumed, timing no work.
        let p = tagged_path(p, &label);
        match std::fs::remove_file(&p) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                panic!("remove stale checkpoint {}: {e}", p.display())
            }
            _ => {}
        }
        opts.checkpoint_path = Some(p);
    }
    if let Some(p) = &opts.trace_path {
        opts.trace_path = Some(tagged_path(p, &label));
    }
    if let Some(p) = &opts.events_path {
        opts.events_path = Some(tagged_path(p, &label));
    }
    if let Some(p) = &opts.prom_path {
        opts.prom_path = Some(tagged_path(p, &label));
    }
    let mut progress = StderrProgress::new(&label);
    let start = Instant::now();
    let r = run_campaign_observed(runner, strategy, runs, SEED, &opts, &mut progress)
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        });
    let elapsed = start.elapsed().as_secs_f64();
    // Provenance check: re-derive the campaign's first successful run
    // solo from (seed, index) and require the same verdict.
    if let Some(idx) = r.first_success {
        let rec = replay_run(runner, strategy, SEED, idx, &TraceSink::disabled());
        assert!(
            rec.success,
            "{label}: replay of first successful run {idx} did not succeed"
        );
        eprintln!("[{label}] replayed first success (run {idx}): verdict matches");
    }
    Row {
        label,
        runs,
        runs_per_sec: runs as f64 / elapsed,
        elapsed_s: elapsed,
        ssf: r.ssf,
    }
}

/// Measures every spec [`REPEATS`] times and keeps each spec's fastest
/// repeat, checking its result stayed bit-identical across repeats. The
/// specs alternate — repeat `r` of every spec runs before repeat `r + 1`
/// of any — so drift of a shared host weighs on all rows alike instead of
/// on whichever rows ran last.
fn engine_best(
    runner: &FaultRunner<'_>,
    strategy: &dyn SamplingStrategy,
    specs: &[RowSpec],
) -> Vec<Row> {
    let mut best: Vec<Option<Row>> = specs.iter().map(|_| None).collect();
    for _ in 0..REPEATS {
        for (spec, best) in specs.iter().zip(&mut best) {
            let row = engine(runner, strategy, spec);
            *best = Some(match best.take() {
                None => row,
                Some(b) => {
                    assert!(
                        b.ssf == row.ssf,
                        "{}: ssf changed across repeats: {} != {}",
                        spec.label,
                        b.ssf,
                        row.ssf
                    );
                    if row.runs_per_sec > b.runs_per_sec {
                        row
                    } else {
                        b
                    }
                }
            });
        }
    }
    best.into_iter().map(|b| b.expect("REPEATS >= 1")).collect()
}

/// The `--bench-json PATH` values, each checked writable before any work
/// starts: a path that cannot be created ends the binary with exit 2 and
/// one line naming it. The check creates no file that was not there.
fn bench_json_paths() -> Vec<String> {
    let mut paths = Vec::new();
    let mut argv = std::env::args();
    while let Some(a) = argv.next() {
        let path = match a.split_once('=') {
            Some(("--bench-json", v)) => Some(v.to_owned()),
            _ if a == "--bench-json" => argv.next(),
            _ => None,
        };
        if let Some(path) = path {
            let existed = std::path::Path::new(&path).exists();
            let probe = std::fs::OpenOptions::new()
                .append(true)
                .create(true)
                .open(&path)
                .and_then(|_| {
                    if existed {
                        Ok(())
                    } else {
                        std::fs::remove_file(&path)
                    }
                });
            if let Err(e) = probe {
                eprintln!("error: bench-json {path} cannot be written: {e}");
                std::process::exit(2);
            }
            paths.push(path);
        }
    }
    paths
}

fn main() {
    let base_opts = CampaignOptions::from_args_with(&[("--smoke", false), ("--bench-json", true)]);
    let bench_json = bench_json_paths();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let runs = if smoke { SMOKE_RUNS } else { RUNS };
    eprintln!("[bench_campaign] building model and golden runs ...");
    let ctx = ExperimentContext::build_observed(&base_opts);
    let runner = FaultRunner {
        model: &ctx.model,
        eval: &ctx.write_eval,
        prechar: &ctx.prechar,
        hardening: None,
        multi_fault: None,
    };
    let f = baseline_distribution(&ctx.model, &ctx.cfg);
    let strategy = ImportanceSampling::new(
        f,
        &ctx.model,
        &ctx.prechar,
        ctx.cfg.alpha,
        ctx.cfg.beta,
        ctx.cfg.radius_options.clone(),
    );

    eprintln!("[bench_campaign] {runs} importance-sampled attacks per configuration ...");
    let base_row = (0..REPEATS)
        .map(|_| baseline(&runner, &strategy, runs))
        .max_by(|a, b| a.runs_per_sec.total_cmp(&b.runs_per_sec))
        .expect("REPEATS >= 1");
    let row = |label: String, runs, threads, kernel| RowSpec {
        label,
        runs,
        opts: CampaignOptions {
            threads,
            kernel,
            ..base_opts.clone()
        },
    };
    let mut specs = vec![row(
        "scalar_threads_1".into(),
        runs,
        1,
        CampaignKernel::Scalar,
    )];
    for threads in [1, 2, 4] {
        specs.push(row(
            format!("engine_compiled_threads_{threads}"),
            runs,
            threads,
            CampaignKernel::Compiled,
        ));
    }
    // The two-level MLMC estimator: the cheap level maps each SET to a
    // multi-bit SEU and skips the netlist, the coupled correction level
    // re-evaluates the same (seed, run-index) faults gate-accurately.
    let mlmc_base = CampaignOptions {
        estimator: EstimatorKind::Mlmc,
        ..base_opts.clone()
    };
    for threads in [1, 4] {
        let mut spec = row(
            format!("engine_mlmc_threads_{threads}"),
            runs,
            threads,
            CampaignKernel::Compiled,
        );
        spec.opts.estimator = EstimatorKind::Mlmc;
        specs.push(spec);
    }

    // The telemetry ablation: compiled kernel with the event stream and
    // the Prometheus exposition forced on, against a bare twin of the same
    // [`TELEMETRY_RUNS`] length. Telemetry is specified as a pure
    // observer, so the overhead gate below holds the pair within 5%.
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    specs.push(row(
        "engine_compiled_threads_1_long".into(),
        TELEMETRY_RUNS,
        1,
        CampaignKernel::Compiled,
    ));
    let mut telemetry_spec = row(
        "engine_telemetry_threads_1".into(),
        TELEMETRY_RUNS,
        1,
        CampaignKernel::Compiled,
    );
    // Without --events / --prom the row writes into the temp dir: those
    // files are this run's own and are removed once the rows finish.
    let label = telemetry_spec.label.clone();
    let mut own_files = Vec::new();
    for (path, ext) in [
        (&mut telemetry_spec.opts.events_path, "events.jsonl"),
        (&mut telemetry_spec.opts.prom_path, "prom"),
    ] {
        if path.is_none() {
            let p = tmp.join(format!("bench_campaign_{pid}.{ext}"));
            own_files.push(tagged_path(&p, &label));
            *path = Some(p);
        }
    }
    specs.push(telemetry_spec);
    let mut rows = vec![base_row];
    rows.extend(engine_best(&runner, &strategy, &specs));
    for p in &own_files {
        let _ = std::fs::remove_file(p);
    }

    // The gate-level path in isolation: strike-only passes over one
    // stratified draw, per kernel. This is the comparison the compiled
    // kernel exists for — end-to-end rows dilute it with the scalar
    // draw/conclude/fold work every kernel pays identically.
    eprintln!("[bench_campaign] gate-level-path microbenchmark ...");
    let gp_runs = runs.min(50_000);
    let gp = |kernel| gate_path_bench(&runner, &strategy, gp_runs, SEED, kernel, REPEATS);
    let gp_scalar: GatePathBench = gp(CampaignKernel::Scalar);
    let gp_compiled = gp(CampaignKernel::Compiled);
    assert!(
        gp_scalar.pulses == gp_compiled.pulses && gp_scalar.faulty == gp_compiled.faulty,
        "gate-path checksums diverged: {}/{} pulses, {}/{} faulty-reg sums",
        gp_scalar.pulses,
        gp_compiled.pulses,
        gp_scalar.faulty,
        gp_compiled.faulty
    );
    let gp_ratio = gp_compiled.lanes_per_sec() / gp_scalar.lanes_per_sec();

    let base_rate = rows[0].runs_per_sec;
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut json = String::from("{\n  \"runs\": ");
    let _ = write!(
        json,
        "{runs},\n  \"seed\": {SEED},\n  \"host_cpus\": {host_cpus},\n  \"configs\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"label\": \"{}\", \"runs\": {}, \"runs_per_sec\": {:.2}, \
             \"elapsed_s\": {:.4}, \"speedup_vs_baseline\": {:.3}, \"ssf\": {:.6}}}{}",
            r.label,
            r.runs,
            r.runs_per_sec,
            r.elapsed_s,
            r.runs_per_sec / base_rate,
            r.ssf,
            sep
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"gate_path\": {{\"runs\": {}, \"sweep_lanes\": [1, 256], \
         \"scalar_lanes_per_sec\": {:.2}, \"compiled_lanes_per_sec\": {:.2}}}",
        gp_scalar.lanes,
        gp_scalar.lanes_per_sec(),
        gp_compiled.lanes_per_sec(),
    );
    json.push_str("}\n");
    if !smoke {
        std::fs::write("BENCH_campaign.json", &json).expect("write BENCH_campaign.json");
    }
    // `--bench-json PATH`: write the artifact in any mode (CI validates
    // the smoke run's document against schemas/bench.schema.json).
    for path in &bench_json {
        std::fs::write(path, &json).unwrap_or_else(|e| {
            eprintln!("error: bench-json {path} cannot be written: {e}");
            std::process::exit(2)
        });
        eprintln!("[bench_campaign] wrote {path}");
    }

    println!("\n== campaign throughput (importance sampling) ==");
    for r in &rows {
        println!(
            "  {:22} {:>9.1} runs/s  ({} runs, {:.2}s, {:.2}x baseline)",
            r.label,
            r.runs_per_sec,
            r.runs,
            r.elapsed_s,
            r.runs_per_sec / base_rate
        );
    }
    println!(
        "\n== gate-level path ({} in-run lanes, strike only, best of {REPEATS}) ==",
        gp_scalar.lanes
    );
    for (label, b) in [("scalar", &gp_scalar), ("compiled_256", &gp_compiled)] {
        println!(
            "  {:14} {:>10.1} lanes/s  ({} sweeps, {:.2}x scalar)",
            label,
            b.lanes_per_sec(),
            b.sweeps,
            b.lanes_per_sec() / gp_scalar.lanes_per_sec()
        );
    }

    let scalar = rows
        .iter()
        .find(|r| r.label == "scalar_threads_1")
        .expect("scalar row");
    let compiled = rows
        .iter()
        .find(|r| r.label == "engine_compiled_threads_1")
        .expect("compiled row");
    let compiled_t2 = rows
        .iter()
        .find(|r| r.label == "engine_compiled_threads_2")
        .expect("compiled threads-2 row");
    assert!(
        scalar.ssf == compiled.ssf && compiled.ssf == compiled_t2.ssf,
        "kernel results diverged: scalar ssf {} != compiled ssf {} / {}",
        scalar.ssf,
        compiled.ssf,
        compiled_t2.ssf
    );
    let bare_long = rows
        .iter()
        .find(|r| r.label == "engine_compiled_threads_1_long")
        .expect("long compiled row");
    let telemetry = rows
        .iter()
        .find(|r| r.label == "engine_telemetry_threads_1")
        .expect("telemetry row");
    assert!(
        telemetry.ssf == bare_long.ssf,
        "telemetry changed the result: ssf {} with events+prom != {} without",
        telemetry.ssf,
        bare_long.ssf
    );
    let mlmc_t1 = rows
        .iter()
        .find(|r| r.label == "engine_mlmc_threads_1")
        .expect("mlmc threads-1 row");
    let mlmc_t4 = rows
        .iter()
        .find(|r| r.label == "engine_mlmc_threads_4")
        .expect("mlmc threads-4 row");
    assert!(
        mlmc_t1.ssf == mlmc_t4.ssf,
        "mlmc result diverged across threads: {} != {}",
        mlmc_t1.ssf,
        mlmc_t4.ssf
    );
    // The MLMC executors are scalar at every level, so the estimate must
    // be bit-identical under the scalar kernel too (one untimed check).
    let mlmc_scalar = run_campaign_with(
        &runner,
        &strategy,
        runs,
        SEED,
        &CampaignOptions {
            kernel: CampaignKernel::Scalar,
            threads: 1,
            metrics_path: None,
            checkpoint_path: None,
            trace_path: None,
            ..mlmc_base.clone()
        },
    );
    assert!(
        mlmc_scalar.ssf == mlmc_t1.ssf,
        "mlmc result diverged under the scalar kernel: {} != {}",
        mlmc_scalar.ssf,
        mlmc_t1.ssf
    );
    if smoke {
        // MLMC budget gate (deterministic — run counts, never wall-clock):
        // at the same --target-eps/--target-confidence goal the MLMC
        // estimator must spend at most half the gate-accurate runs the
        // single estimator pays, and its point estimate must sit inside
        // the 3-sigma band around the gate-accurate reference.
        // Tight enough that the single estimator stops well above the
        // early-stop floor (otherwise both estimators idle at the minimum
        // and the budget comparison is vacuous).
        let eps = 0.005;
        let goal = CampaignOptions {
            target_eps: Some(eps),
            metrics_path: None,
            checkpoint_path: None,
            trace_path: None,
            ..base_opts.clone()
        };
        let single_goal = run_campaign_with(&runner, &strategy, runs, SEED, &goal);
        let mlmc_goal = run_campaign_with(
            &runner,
            &strategy,
            runs,
            SEED,
            &CampaignOptions {
                estimator: EstimatorKind::Mlmc,
                ..goal.clone()
            },
        );
        let m = mlmc_goal.mlmc.as_ref().expect("mlmc summary");
        let gate_runs_single = single_goal.n;
        let gate_runs_mlmc = m.n1 as usize;
        println!(
            "mlmc budget: {gate_runs_mlmc} gate-accurate runs (+{} RTL-only) vs \
             {gate_runs_single} for the single estimator at eps {eps}",
            m.n0
        );
        println!(
            "mlmc decomposition: s0^2 {:.3e} s1^2 {:.3e} (single s^2 {:.3e}), \
             share1 {:.3} (optimal {:.3}, plan {:?})",
            m.var0,
            m.var1_diff,
            single_goal.sample_variance,
            m.share1(),
            m.optimal_share1(),
            m.plan_ratio
        );
        assert_eq!(
            single_goal.stop,
            StopReason::TargetEps,
            "single estimator did not reach eps {eps} within {runs} runs"
        );
        assert_eq!(
            mlmc_goal.stop,
            StopReason::TargetEps,
            "mlmc estimator did not reach eps {eps} within {runs} runs"
        );
        if 2 * gate_runs_mlmc > gate_runs_single {
            eprintln!(
                "SMOKE FAIL: mlmc spent {gate_runs_mlmc} gate-accurate runs, above 0.5x the \
                 single estimator's {gate_runs_single}"
            );
            std::process::exit(1);
        }
        let se = (single_goal.sample_variance / single_goal.n as f64 + m.estimator_variance())
            .sqrt()
            .max(1e-4);
        if (single_goal.ssf - mlmc_goal.ssf).abs() > 3.0 * se {
            eprintln!(
                "SMOKE FAIL: mlmc estimate {} outside the 3-sigma band of the gate-accurate \
                 reference {} (sigma {se})",
                mlmc_goal.ssf, single_goal.ssf
            );
            std::process::exit(1);
        }
        // The throughput gate only means something untraced: span recording
        // sits inside the compiled kernel's per-sweep loop (the scalar
        // kernel records no inner spans), so a traced smoke run
        // systematically penalizes exactly the kernel the gate protects.
        if base_opts.trace_path.is_some() {
            println!(
                "smoke ok (traced; throughput gate skipped): compiled {:.0} runs/s, \
                 scalar {:.0} runs/s",
                compiled.runs_per_sec, scalar.runs_per_sec
            );
        } else if compiled.runs_per_sec < END_TO_END_VS_SCALAR * scalar.runs_per_sec {
            eprintln!(
                "SMOKE FAIL: compiled kernel ({:.0} runs/s) below {END_TO_END_VS_SCALAR:.2}x \
                 scalar ({:.0} runs/s) end to end",
                compiled.runs_per_sec, scalar.runs_per_sec
            );
            std::process::exit(1);
        } else if gp_ratio < GATE_PATH_VS_SCALAR {
            // The speedup claim is about the gate-level path: the strike
            // kernel itself, measured without the draw/conclude/fold work
            // that every kernel pays identically (both kernels propagate
            // the exact same pulse set, so that scalar work dilutes any
            // end-to-end ratio toward 1.0).
            eprintln!(
                "SMOKE FAIL: compiled gate path ({:.0} lanes/s) below {GATE_PATH_VS_SCALAR:.2}x \
                 scalar ({:.0} lanes/s)",
                gp_compiled.lanes_per_sec(),
                gp_scalar.lanes_per_sec()
            );
            std::process::exit(1);
        } else if host_cpus >= 4 && compiled_t2.runs_per_sec < 0.7 * compiled.runs_per_sec {
            // Threads-scaling gate, only meaningful with real parallelism:
            // on a 1-CPU container two workers plus the merge thread
            // oversubscribe the core and legitimately run slower. The 0.7x
            // allowance tolerates merge/contention overhead while still
            // catching the serialized-shard pathology this gate exists for.
            eprintln!(
                "SMOKE FAIL: compiled kernel at 2 threads ({:.0} runs/s) fell below 0.7x its \
                 single-thread rate ({:.0} runs/s) on a {host_cpus}-CPU host",
                compiled_t2.runs_per_sec, compiled.runs_per_sec
            );
            std::process::exit(1);
        } else if base_opts.events_path.is_none()
            && telemetry.runs_per_sec < 0.95 * bare_long.runs_per_sec
        {
            // Telemetry-overhead gate, armed only when the base options
            // leave events off (with --events set every row already pays
            // for the stream and the comparison is vacuous). Events and
            // prom writes happen on the merge thread at chunk/checkpoint
            // cadence, so a >5% hit means telemetry leaked into the hot
            // path.
            eprintln!(
                "SMOKE FAIL: telemetry (events + prom) cost more than 5% of compiled \
                 throughput ({:.0} runs/s vs {:.0} runs/s without it)",
                telemetry.runs_per_sec, bare_long.runs_per_sec
            );
            std::process::exit(1);
        } else {
            println!(
                "smoke ok: gate path compiled {gp_ratio:.2}x scalar (>= \
                 {GATE_PATH_VS_SCALAR:.2}x), end-to-end compiled {:.0} / scalar {:.0} runs/s, \
                 telemetry {:.2}x compiled",
                compiled.runs_per_sec,
                scalar.runs_per_sec,
                telemetry.runs_per_sec / bare_long.runs_per_sec
            );
        }
    } else {
        println!("wrote BENCH_campaign.json");
    }
}
