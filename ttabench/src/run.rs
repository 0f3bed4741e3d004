//! The three workloads, their set-up, the closed measurement loop and the
//! layer probes of the traced run.
//!
//! Every workload is a closed loop of one operation at a time, run until
//! the time budget is spent (at least one operation always completes):
//!
//! * `answer_single` / `answer_mlmc` — one operation is a cold answer for
//!   the whole attack suite: model, the five goldens plus the synthetic
//!   one, pre-characterization and strategy are built from scratch, then
//!   each goal's campaign runs to `target_eps` at 95% confidence on one
//!   worker ([`WORKERS`]). Operation `i` answers input slot
//!   `i mod OP_SEEDS`, so a run covers [`OP_SEEDS`] inputs, each several
//!   times, and every input can be pinned.
//! * `sweep_grid` — set up once, then repeat warm passes over 5 attacks ×
//!   {none, dup_config_vote} × {single, double}: fixed-size single-worker
//!   campaigns, no early stop. Every [`SWEEP_SETUP_EVERY`] passes it times
//!   one more (discarded) set-up, so `setup_s` samples the whole run as the
//!   answers' set-ups do.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rand::RngCore;
use xlmc::correlation::CorrelationData;
use xlmc::estimator::{
    gate_path_bench, run_campaign_with, CampaignKernel, CampaignOptions, CampaignResult,
    EstimatorKind, StopReason,
};
use xlmc::flow::{FaultRunner, FlowScratch};
use xlmc::harden::{DupConfigVote, HardenedVariant};
use xlmc::lifetime::{default_sample_cycles, RegisterCharacterization};
use xlmc::multilevel::SetToSeuMap;
use xlmc::rng::SplitMix64;
use xlmc::sampling::{
    baseline_distribution, ExperimentConfig, ImportanceSampling, SamplingStrategy,
};
use xlmc::space::SampleSpace;
use xlmc::trace::{TraceEvent, TraceSink};
use xlmc::{Evaluation, Precharacterization, SystemModel};
use xlmc_fault::DoubleGlitch;
use xlmc_soc::{workloads, GoldenRun};

use crate::check::{cell_key, check_band, check_pinned, Digest};
use crate::heap;
use crate::report::{per_layer, Metric, Outcome, END_TO_END, GOAL_NAMES};
use crate::stats::{median, tail, Tail};

/// The seed whose every campaign is pinned bit for bit in `pins.txt`.
pub const DEFAULT_SEED: u64 = 1;
/// Distinct answer inputs per run (answer workloads).
pub const OP_SEEDS: u64 = 16;
/// Campaign ceiling for the answer workloads; an answer that reaches it
/// without meeting `target_eps` is a failed operation.
pub const RUN_CAP: usize = 4_000_000;
/// `sweep_grid` times a fresh set-up after every this many passes.
pub const SWEEP_SETUP_EVERY: u64 = 4;
/// Repeats of every probe in the traced run; the fastest is reported, since
/// interference only ever slows a repeat down.
const PROBE_REPEATS: usize = 5;

/// The attack suite, in [`GOAL_NAMES`] order.
pub const GOALS: [fn() -> xlmc_soc::Workload; 5] = [
    workloads::illegal_write,
    workloads::illegal_read,
    workloads::dma_exfiltration,
    workloads::trap_escalation,
    workloads::instruction_skip,
];
/// Defenses of the sweep grid.
pub const DEFENSES: [&str; 2] = ["none", "dup_config_vote"];
/// Fault modes of the sweep grid.
pub const FAULT_MODES: [&str; 2] = ["single", "double"];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold answers with the single (gate-accurate) estimator.
    AnswerSingle,
    /// Cold answers with the two-level MLMC estimator.
    AnswerMlmc,
    /// Warm attack × defense sweep.
    SweepGrid,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::AnswerSingle,
        Workload::AnswerMlmc,
        Workload::SweepGrid,
    ];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AnswerSingle => "answer_single",
            Workload::AnswerMlmc => "answer_mlmc",
            Workload::SweepGrid => "sweep_grid",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Problem size of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// Answer campaigns stop once the LLN bound at this eps is met.
    pub target_eps: f64,
    /// Runs per sweep cell.
    pub sweep_runs: usize,
    /// Runs per configuration in the draw/strike/conclude probes.
    pub probe_runs: usize,
}

impl Size {
    /// The benchmark's size: eps 5e-3, 16,384 runs per sweep cell.
    pub const FULL: Size = Size {
        target_eps: 5e-3,
        sweep_runs: 16_384,
        probe_runs: 4_096,
    };
    /// A tiny size for the benchmark's own tests.
    pub const TINY: Size = Size {
        target_eps: 2e-2,
        sweep_runs: 1_024,
        probe_runs: 256,
    };
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed; every per-operation seed derives from it.
    pub seed: u64,
    /// Time budget of the measurement loop.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Problem size.
    pub size: Size,
}

/// Campaign workers of every workload. One: on a shared host a campaign
/// that keeps every core busy is slowed whenever another tenant runs on
/// any of them, and two-worker answers spread too widely between runs of
/// the same code for a regression bound.
pub const WORKERS: usize = 1;

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A per-operation seed: word 0 of the run stream `(seed, index)`.
pub fn derive(seed: u64, index: u64) -> u64 {
    SplitMix64::for_run(seed, index).next_u64()
}

// ---------------------------------------------------------------------------
// Set-up and operations
// ---------------------------------------------------------------------------

/// Everything an answer builds before its first campaign.
pub struct Setup {
    model: SystemModel,
    evals: Vec<Evaluation>,
    synthetic: GoldenRun,
    prechar: Precharacterization,
    strategy: ImportanceSampling,
    glitch: DoubleGlitch,
    dup: HardenedVariant,
}

/// Build the model, the goldens, the pre-characterization and the
/// strategy, each call spanned on `sink`.
pub fn setup(sink: &TraceSink) -> Setup {
    let cfg = ExperimentConfig::default();
    let model = {
        let _span = sink.span("model", "build");
        SystemModel::with_defaults().expect("the stock model builds")
    };
    let (evals, synthetic) = {
        let _span = sink.span("soc", "golden");
        let evals: Vec<Evaluation> = GOALS
            .iter()
            .zip(GOAL_NAMES)
            .map(|(goal, name)| {
                let eval = Evaluation::new(goal()).expect("every attack goal trips the MPU");
                assert_eq!(eval.workload.name, name, "GOAL_NAMES follows GOALS");
                eval
            })
            .collect();
        let synth = workloads::synthetic_precharacterization();
        (evals, GoldenRun::record(&synth.program, 20_000, 64))
    };
    let prechar = {
        let _span = sink.span("prechar", "run_with_golden");
        Precharacterization::run_with_golden(&model, &synthetic, cfg.t_max, cfg.max_radius())
    };
    let (strategy, glitch) = {
        let _span = sink.span("sampling", "strategy");
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
        (strategy, glitch)
    };
    Setup {
        model,
        evals,
        synthetic,
        prechar,
        strategy,
        glitch,
        dup: HardenedVariant::DupConfigVote(DupConfigVote::new()),
    }
}

/// A grid cell: goal index, defense, fault mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cell {
    goal: usize,
    defense: &'static str,
    fault_mode: &'static str,
}

impl Cell {
    fn key(&self) -> String {
        cell_key(GOAL_NAMES[self.goal], self.defense, self.fault_mode)
    }

    /// Every run of these cells concludes by RTL resume.
    fn rtl_heavy(&self) -> bool {
        self.defense == "none" && self.fault_mode == "single" && self.goal >= 3
    }

    /// These cells propagate ~3x the pulses and rarely resume RTL.
    fn gate_heavy(&self) -> bool {
        self.defense != "none" && self.fault_mode == "double"
    }
}

/// The cells an answer covers: every goal, no defense, single spot.
fn answer_cells() -> Vec<Cell> {
    (0..GOALS.len())
        .map(|goal| Cell {
            goal,
            defense: "none",
            fault_mode: "single",
        })
        .collect()
}

/// The sweep grid, goal-major.
fn grid_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for goal in 0..GOALS.len() {
        for defense in DEFENSES {
            for fault_mode in FAULT_MODES {
                cells.push(Cell {
                    goal,
                    defense,
                    fault_mode,
                });
            }
        }
    }
    cells
}

fn runner<'a>(s: &'a Setup, cell: &Cell) -> FaultRunner<'a> {
    FaultRunner {
        model: &s.model,
        eval: &s.evals[cell.goal],
        prechar: &s.prechar,
        hardening: (cell.defense != "none").then_some(&s.dup),
        multi_fault: (cell.fault_mode == "double").then_some(&s.glitch),
    }
}

/// One timed campaign.
pub struct CampaignRun {
    cell: Cell,
    wall_s: f64,
    result: CampaignResult,
}

/// One completed operation.
pub struct OpRun {
    /// Input slot; repetitions of a slot differ only in timing.
    slot: u64,
    wall_s: f64,
    setup_s: Option<f64>,
    campaigns: Vec<CampaignRun>,
}

fn campaign(
    s: &Setup,
    cell: Cell,
    n: usize,
    seed: u64,
    opts: &CampaignOptions,
    sink: &TraceSink,
) -> CampaignRun {
    let start = Instant::now();
    let result = {
        let _span = sink.span("campaign", GOAL_NAMES[cell.goal]);
        run_campaign_with(&runner(s, &cell), &s.strategy, n, seed, opts)
    };
    CampaignRun {
        cell,
        wall_s: start.elapsed().as_secs_f64(),
        result,
    }
}

fn answer_op(estimator: EstimatorKind, slot: u64, cfg: &Config, sink: &TraceSink) -> OpRun {
    let seed = derive(cfg.seed, slot);
    let start = Instant::now();
    let root = sink.span("op", "answer");
    let s = setup(sink);
    let setup_s = start.elapsed().as_secs_f64();
    let opts = CampaignOptions {
        threads: WORKERS,
        kernel: CampaignKernel::Compiled,
        estimator,
        target_eps: Some(cfg.size.target_eps),
        target_confidence: 0.95,
        ..CampaignOptions::default()
    };
    let campaigns = answer_cells()
        .into_iter()
        .map(|cell| campaign(&s, cell, RUN_CAP, seed, &opts, sink))
        .collect();
    drop(root);
    OpRun {
        slot,
        wall_s: start.elapsed().as_secs_f64(),
        setup_s: Some(setup_s),
        campaigns,
    }
}

fn sweep_pass(s: &Setup, cfg: &Config, sink: &TraceSink) -> OpRun {
    let start = Instant::now();
    let root = sink.span("op", "sweep_pass");
    let opts = CampaignOptions {
        threads: WORKERS,
        kernel: CampaignKernel::Compiled,
        ..CampaignOptions::default()
    };
    let campaigns = grid_cells()
        .into_iter()
        .enumerate()
        .map(|(c, cell)| {
            let seed = derive(cfg.seed, c as u64);
            campaign(s, cell, cfg.size.sweep_runs, seed, &opts, sink)
        })
        .collect();
    drop(root);
    OpRun {
        slot: 0,
        wall_s: start.elapsed().as_secs_f64(),
        setup_s: None,
        campaigns,
    }
}

/// The pin key of one campaign of an operation in input slot `slot`.
pub fn pin_key(workload: Workload, slot: u64, cell_key: &str) -> String {
    match workload {
        Workload::SweepGrid => format!("sweep_grid/{cell_key}"),
        w => format!("{}/{slot}/{cell_key}", w.name()),
    }
}

/// One operation of the workload: an answer for input `slot`, or a pass
/// over the grid with the warm set-up.
fn operation(cfg: &Config, slot: u64, warm: Option<&Setup>, sink: &TraceSink) -> OpRun {
    match (cfg.workload, warm) {
        (Workload::AnswerSingle, _) => answer_op(EstimatorKind::Single, slot, cfg, sink),
        (Workload::AnswerMlmc, _) => answer_op(EstimatorKind::Mlmc, slot, cfg, sink),
        (Workload::SweepGrid, Some(s)) => sweep_pass(s, cfg, sink),
        (Workload::SweepGrid, None) => unreachable!("the sweep is set up first"),
    }
}

/// Correctness of every estimate an operation produced.
fn check_op(cfg: &Config, op: &OpRun) -> Result<(), String> {
    let pinned = cfg.seed == DEFAULT_SEED && cfg.size == Size::FULL;
    for c in &op.campaigns {
        let key = c.cell.key();
        let r = &c.result;
        match cfg.workload {
            Workload::SweepGrid
                if r.stop != StopReason::Completed || r.n != cfg.size.sweep_runs =>
            {
                return Err(format!("{key}: {} of {} runs", r.n, cfg.size.sweep_runs));
            }
            Workload::AnswerSingle | Workload::AnswerMlmc if r.stop != StopReason::TargetEps => {
                return Err(format!("{key}: target eps not met after {} runs", r.n));
            }
            _ => {}
        }
        if pinned {
            check_pinned(&pin_key(cfg.workload, op.slot, &key), r)?;
        } else {
            check_band(&format!("{}/{key}", cfg.workload.name()), r)?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The measurement loop
// ---------------------------------------------------------------------------

/// The operations of one measurement loop.
#[derive(Default)]
struct Phase {
    ops: Vec<OpRun>,
    attempted: usize,
    failed: usize,
    setup_s: Vec<f64>,
    /// The most heap any operation added over what was live when it
    /// started, bytes. The measurement loop's own records of earlier
    /// operations are live then, so they do not count.
    peak_heap: usize,
    /// Heap the sweep's warm set-up holds, bytes (0 for the answers, whose
    /// set-up is part of every operation).
    warm_heap: usize,
}

fn phase(cfg: &Config, sink: &TraceSink, budget_s: f64) -> Phase {
    let start = Instant::now();
    let mut p = Phase::default();
    let sweep = cfg.workload == Workload::SweepGrid;
    let timed_setup = |p: &mut Phase| {
        let start = Instant::now();
        let s = setup(sink);
        p.setup_s.push(start.elapsed().as_secs_f64());
        s
    };
    let warm = sweep.then(|| {
        let before = heap::live_bytes();
        let s = timed_setup(&mut p);
        p.warm_heap = heap::live_bytes().saturating_sub(before);
        s
    });
    for i in 0u64.. {
        let slot = i % OP_SEEDS;
        let live = heap::live_bytes();
        heap::reset_peak();
        let op = catch_unwind(AssertUnwindSafe(|| {
            operation(cfg, slot, warm.as_ref(), sink)
        }));
        p.attempted += 1;
        p.peak_heap = p.peak_heap.max(heap::peak_bytes().saturating_sub(live));
        match op {
            Ok(op) => {
                if let Err(e) = check_op(cfg, &op) {
                    eprintln!("[ttabench] operation {i} failed: {e}");
                    p.failed += 1;
                }
                p.setup_s.extend(op.setup_s);
                p.ops.push(op);
            }
            Err(_) => {
                eprintln!("[ttabench] operation {i} panicked");
                p.failed += 1;
            }
        }
        if start.elapsed().as_secs_f64() >= budget_s {
            break;
        }
        if sweep && i % SWEEP_SETUP_EVERY == SWEEP_SETUP_EVERY - 1 {
            timed_setup(&mut p);
        }
    }
    p
}

/// Measure one run. `Err` when no operation completed, so no metric
/// exists.
pub fn run(cfg: &Config) -> Result<(Outcome, Conditions), String> {
    if cfg.trace {
        traced(cfg)
    } else {
        untraced(cfg)
    }
}

/// What a run was measured under, printed beside the result.
#[derive(Debug, Clone)]
pub struct Conditions {
    /// `key: value` pairs, values already JSON-encoded.
    pub fields: Vec<(&'static str, String)>,
}

impl Conditions {
    fn new(cfg: &Config, p: &Phase, tail: Option<Tail>) -> Self {
        let mut fields = vec![
            ("workload", format!("\"{}\"", cfg.workload.name())),
            ("seed", cfg.seed.to_string()),
            ("seconds", cfg.seconds.to_string()),
            ("traced", cfg.trace.to_string()),
            ("nproc", nproc().to_string()),
            ("workers", WORKERS.to_string()),
            ("operations", p.attempted.to_string()),
            ("inputs", fastest_per_slot(p).len().to_string()),
            (
                "campaigns_per_operation",
                p.ops.first().map_or(0, |o| o.campaigns.len()).to_string(),
            ),
            (
                "pinned",
                (cfg.seed == DEFAULT_SEED && cfg.size == Size::FULL).to_string(),
            ),
        ];
        if let Some(t) = tail {
            fields.push(("tail_percentile", format!("{:.1}", t.percentile)));
            fields.push(("tail_beyond", t.beyond.to_string()));
        }
        Self { fields }
    }

    /// One JSON object.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn walls(p: &Phase) -> Vec<f64> {
    p.ops.iter().map(|o| o.wall_s).collect()
}

/// One input slot's operation, rebuilt from the fastest repetition of
/// each of its parts.
struct Fastest {
    /// Set-up (answers only) plus every campaign.
    wall_s: f64,
    campaign_s: f64,
    runs: usize,
}

/// Repetitions of one piece of work differ only by host interference,
/// which only ever slows a repetition down. So each input slot's
/// campaigns are taken at their fastest repetition in the run, and the
/// set-up, which reads no input, at the fastest set-up of any operation.
fn fastest_per_slot(p: &Phase) -> BTreeMap<u64, Fastest> {
    let setup_s = p
        .ops
        .iter()
        .filter_map(|o| o.setup_s)
        .reduce(f64::min)
        .unwrap_or(0.0);
    let mut slots: BTreeMap<u64, Vec<(usize, f64)>> = BTreeMap::new();
    for op in &p.ops {
        let campaigns = slots
            .entry(op.slot)
            .or_insert_with(|| vec![(0, f64::MAX); op.campaigns.len()]);
        for (best, c) in campaigns.iter_mut().zip(&op.campaigns) {
            if c.wall_s < best.1 {
                *best = (c.result.n, c.wall_s);
            }
        }
    }
    slots
        .into_iter()
        .map(|(slot, campaigns)| {
            let campaign_s: f64 = campaigns.iter().map(|c| c.1).sum();
            let best = Fastest {
                wall_s: setup_s + campaign_s,
                campaign_s,
                runs: campaigns.iter().map(|c| c.0).sum(),
            };
            (slot, best)
        })
        .collect()
}

fn untraced(cfg: &Config) -> Result<(Outcome, Conditions), String> {
    let p = phase(cfg, &TraceSink::disabled(), cfg.seconds);
    if p.ops.is_empty() {
        return Err("no operation completed".into());
    }
    let best = fastest_per_slot(&p);
    // Each operation at its input's interference-free time: the tail is
    // then the slowest inputs', not the host's worst moments.
    let op_s: Vec<f64> = p.ops.iter().map(|o| best[&o.slot].wall_s).collect();
    let t = tail(&op_s);
    let (runs, campaign_s) = best
        .values()
        .fold((0, 0.0), |(n, w), b| (n + b.runs, w + b.campaign_s));
    let values = [
        median(&best.values().map(|b| b.wall_s).collect::<Vec<_>>()),
        t.value,
        median(&p.setup_s),
        runs as f64 / campaign_s,
        (p.warm_heap + p.peak_heap) as f64 / (1024.0 * 1024.0),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_owned(),
            value,
            unit,
        })
        .collect();
    let outcome = Outcome {
        attempted: p.attempted,
        failed: p.failed,
        metrics,
    };
    Ok((outcome, Conditions::new(cfg, &p, Some(t))))
}

// ---------------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------------

/// Costs of one cell's runs measured in isolation, summed over the
/// probe's runs.
struct RunCosts {
    runs: f64,
    /// `draw` + `weight`.
    draw_s: f64,
    /// The compiled strike pass, and the lanes it struck.
    strike_s: f64,
    lanes: f64,
    /// `FaultRunner::run_with` minus the scalar strike pass.
    conclude_s: f64,
}

impl RunCosts {
    fn per_run_s(&self) -> f64 {
        (self.draw_s + self.strike_s + self.conclude_s) / self.runs
    }
}

/// Time `draw` + `weight` over the campaign's own per-run streams, the
/// compiled and scalar strike paths, and `FaultRunner::run_with`, each the
/// fastest of [`PROBE_REPEATS`] passes.
fn run_costs(s: &Setup, cell: &Cell, runs: usize, seed: u64, sink: &TraceSink) -> RunCosts {
    let runner = runner(s, cell);
    let draw_s = fastest(&mut || {
        timed(sink, "sampling", "draw+weight", || {
            for i in 0..runs as u64 {
                let mut rng = SplitMix64::for_run(seed, i);
                let sample = s.strategy.draw(&mut rng);
                black_box(s.strategy.weight(&sample));
            }
        })
    });
    let strike = |kernel, name| {
        let _span = sink.span("gatesim", name);
        gate_path_bench(&runner, &s.strategy, runs, seed, kernel, PROBE_REPEATS)
    };
    let compiled = strike(CampaignKernel::Compiled, "gate_path_bench.compiled");
    let scalar = strike(CampaignKernel::Scalar, "gate_path_bench.scalar");
    let drawn: Vec<_> = (0..runs as u64)
        .map(|i| {
            let mut rng = SplitMix64::for_run(seed, i);
            (s.strategy.draw(&mut rng), rng)
        })
        .collect();
    let run_with_s = fastest(&mut || {
        let mut draws = drawn.clone();
        let mut scratch = FlowScratch::default();
        timed(sink, "flow", "run_with", || {
            for (sample, rng) in &mut draws {
                black_box(runner.run_with(sample, rng, &mut scratch).success);
            }
        })
    });
    RunCosts {
        runs: runs as f64,
        draw_s,
        strike_s: compiled.best_pass_s,
        lanes: compiled.lanes as f64,
        conclude_s: run_with_s - scalar.best_pass_s,
    }
}

/// The fastest of [`PROBE_REPEATS`] timings.
fn fastest(f: &mut dyn FnMut() -> f64) -> f64 {
    (0..PROBE_REPEATS).map(|_| f()).fold(f64::MAX, f64::min)
}

/// Run `f` inside a `cat/name` span on `sink` and return its wall time.
fn timed(sink: &TraceSink, cat: &'static str, name: &'static str, f: impl FnOnce()) -> f64 {
    let _span = sink.span(cat, name);
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Layer timings that cannot be read off an operation's spans.
struct Probe {
    cones_s: f64,
    correlation_s: f64,
    lifetime_s: f64,
    classification_s: f64,
    seu_map_s: Vec<f64>,
    costs: Vec<(Cell, RunCosts)>,
    rtl_cells_runs_per_s: Option<f64>,
    gate_cells_runs_per_s: Option<f64>,
    /// Probe campaigns whose estimate failed its reference band.
    failed: usize,
}

/// Time, each call spanned on `sink`, the layers an operation only calls
/// as a whole: the three pre-characterization steps (classification is
/// `run_with_golden` minus the other three, since its function is
/// private), the SET→SEU map per goal, and the per-run costs of `cells`.
fn probe(cfg: &Config, s: &Setup, cells: &[Cell], sink: &TraceSink) -> Probe {
    let ec = ExperimentConfig::default();
    let (t_max, halo) = (ec.t_max, ec.max_radius());
    let mut steps = Vec::new();
    for _ in 0..PROBE_REPEATS {
        let mut space = None;
        let cones = timed(sink, "prechar", "cones", || {
            space = Some(SampleSpace::build(&s.model, t_max, halo));
        });
        let space = space.expect("built above");
        let corr = timed(sink, "prechar", "correlation", || {
            black_box(CorrelationData::compute(&s.model, &s.synthetic, &space));
        });
        let life = timed(sink, "prechar", "lifetime", || {
            let cycles = default_sample_cycles(&s.synthetic, 5);
            black_box(RegisterCharacterization::measure(&s.synthetic, &cycles));
        });
        let whole = timed(sink, "prechar", "run_with_golden", || {
            black_box(Precharacterization::run_with_golden(
                &s.model,
                &s.synthetic,
                t_max,
                halo,
            ));
        });
        steps.push([cones, corr, life, whole]);
    }
    let step = |k: usize| steps.iter().map(|s| s[k]).fold(f64::MAX, f64::min);
    let seu_map_s = s
        .evals
        .iter()
        .map(|eval| {
            fastest(&mut || {
                timed(sink, "multilevel", "seu_map", || {
                    black_box(SetToSeuMap::build(&s.model, eval, &s.prechar));
                })
            })
        })
        .collect();
    let seed = derive(cfg.seed, u64::MAX);
    let costs = cells
        .iter()
        .map(|c| (*c, run_costs(s, c, cfg.size.probe_runs, seed, sink)))
        .collect();
    // The answers never run the sweep's cells: time its two halves once
    // here so every workload reports them.
    let mut failed = 0;
    let (rtl, gate) = if cfg.workload == Workload::SweepGrid {
        (None, None)
    } else {
        let opts = CampaignOptions::default();
        let mut half = |keep: fn(&Cell) -> bool| {
            let runs: Vec<CampaignRun> = grid_cells()
                .into_iter()
                .filter(keep)
                .map(|cell| campaign(s, cell, cfg.size.sweep_runs, seed, &opts, sink))
                .collect();
            for c in &runs {
                if let Err(e) = check_band(&format!("sweep_grid/{}", c.cell.key()), &c.result) {
                    eprintln!("[ttabench] probe campaign failed: {e}");
                    failed += 1;
                }
            }
            Some(runs_per_s(runs.iter()))
        };
        (half(Cell::rtl_heavy), half(Cell::gate_heavy))
    };
    Probe {
        cones_s: step(0),
        correlation_s: step(1),
        lifetime_s: step(2),
        classification_s: step(3) - step(0) - step(1) - step(2),
        seu_map_s,
        costs,
        rtl_cells_runs_per_s: rtl,
        gate_cells_runs_per_s: gate,
        failed,
    }
}

fn runs_per_s<'a>(campaigns: impl Iterator<Item = &'a CampaignRun>) -> f64 {
    let (n, wall) = campaigns.fold((0usize, 0.0f64), |(n, w), c| (n + c.result.n, w + c.wall_s));
    n as f64 / wall
}

/// Span durations by `(cat, name)`, in seconds.
fn span_secs(events: &[TraceEvent], cat: &str, name: &str) -> Vec<f64> {
    events
        .iter()
        .filter(|e| e.cat == cat && e.name == name)
        .map(|e| e.dur_us / 1e6)
        .collect()
}

/// Print the self-time table of the traced operations and return the
/// share of each operation's wall time that its spans cover. Every span
/// inside an operation is a direct child of the operation's span, so a
/// child's self time is its duration and the operation keeps what no
/// child covers.
fn self_time_table(cfg: &Config, events: &[TraceEvent]) -> Vec<f64> {
    let mut rows: BTreeMap<String, (usize, f64)> = BTreeMap::new();
    let mut cover = Vec::new();
    let mut wall_us = 0.0;
    for root in events.iter().filter(|e| e.cat == "op") {
        let end = root.ts_us + root.dur_us;
        let mut covered = 0.0;
        for e in events
            .iter()
            .filter(|e| e.cat != "op" && e.ts_us >= root.ts_us && e.ts_us + e.dur_us <= end)
        {
            let row = rows.entry(format!("{}/{}", e.cat, e.name)).or_default();
            *row = (row.0 + 1, row.1 + e.dur_us);
            covered += e.dur_us;
        }
        let row = rows
            .entry(format!("op/{} (uncovered)", root.name))
            .or_default();
        *row = (row.0 + 1, row.1 + root.dur_us - covered);
        cover.push(covered / root.dur_us);
        wall_us += root.dur_us;
    }
    let mut rows: Vec<(String, (usize, f64))> = rows.into_iter().collect();
    rows.sort_by(|a, b| b.1 .1.total_cmp(&a.1 .1));
    let label = cfg.workload.name();
    eprintln!(
        "[{label}] self time of {} traced operations ({:.3} s):",
        cover.len(),
        wall_us / 1e6
    );
    eprintln!(
        "[{label}]   {:<32} {:>6} {:>11} {:>7}",
        "span", "count", "self ms", "share"
    );
    for (name, (count, self_us)) in rows {
        eprintln!(
            "[{label}]   {name:<32} {count:>6} {:>11.3} {:>6.2}%",
            self_us / 1e3,
            100.0 * self_us / wall_us
        );
    }
    eprintln!(
        "[{label}]   the uncovered remainder is the benchmark's own glue between calls: \
         building FaultRunner and CampaignOptions and collecting results"
    );
    cover
}

fn traced(cfg: &Config) -> Result<(Outcome, Conditions), String> {
    let plain = phase(cfg, &TraceSink::disabled(), cfg.seconds / 2.0);
    let sink = TraceSink::enabled();
    let p = phase(cfg, &sink, cfg.seconds / 2.0);
    let (Some(first), false) = (p.ops.first(), plain.ops.is_empty()) else {
        return Err("no operation completed".into());
    };
    let events = sink.events();
    let op_walls = walls(&p);
    let cover = self_time_table(cfg, &events);

    let cells: Vec<Cell> = first.campaigns.iter().map(|c| c.cell).collect();
    let probe_sink = TraceSink::enabled();
    let pr = probe(cfg, &setup(&TraceSink::disabled()), &cells, &probe_sink);
    probe_sink.print_self_time(&format!("{} probe", cfg.workload.name()));
    // The probe counts as one more operation.
    let attempted = plain.attempted + p.attempted + 1;
    let failed = plain.failed + p.failed + usize::from(pr.failed > 0);
    let cost_of = |cell: &Cell| {
        let costs = pr.costs.iter().find(|(k, _)| k == cell);
        costs.expect("probed every cell").1.per_run_s()
    };
    let mlmc = cfg.workload == Workload::AnswerMlmc;
    let engine: Vec<f64> = p
        .ops
        .iter()
        .map(|op| {
            op.campaigns
                .iter()
                .map(|c| {
                    let map = if mlmc { pr.seu_map_s[c.cell.goal] } else { 0.0 };
                    c.wall_s - map - c.result.n as f64 * cost_of(&c.cell) / WORKERS as f64
                })
                .sum()
        })
        .collect();
    let goal_wall: Vec<f64> = (0..GOALS.len())
        .map(|g| {
            let per_op: Vec<f64> = p
                .ops
                .iter()
                .map(|op| {
                    let goal = op.campaigns.iter().filter(|c| c.cell.goal == g);
                    goal.map(|c| c.wall_s).sum()
                })
                .collect();
            median(&per_op)
        })
        .collect();
    let goal_runs: Vec<f64> = (0..GOALS.len())
        .map(|g| {
            first
                .campaigns
                .iter()
                .filter(|c| c.cell.goal == g)
                .map(|c| c.result.n as f64)
                .sum()
        })
        .collect();
    let sum = |f: &dyn Fn(&CampaignResult) -> usize| -> usize {
        first.campaigns.iter().map(|c| f(&c.result)).sum()
    };
    let counts = Counts {
        runs: sum(&|r| r.n),
        rtl_runs: sum(&|r| r.rtl_runs),
        analytic_runs: sum(&|r| r.analytic_runs),
        conclusion_hits: sum(&|r| r.counters.conclusion_memo_hits),
        conclusion_lookups: sum(&|r| {
            r.counters.conclusion_memo_hits + r.counters.conclusion_memo_misses
        }),
        cycle_hits: sum(&|r| r.counters.cycle_memo_hits),
        cycle_lookups: sum(&|r| r.counters.cycle_memo_hits + r.counters.cycle_memo_misses),
        soc_restores: sum(&|r| r.counters.soc_restores),
        pulses: sum(&|r| r.counters.pulses_propagated),
        lanes_occupied: sum(&|r| r.kernel_counters.lanes_occupied),
        lane_batches: sum(&|r| r.kernel_counters.lane_batches),
    };
    let sweep_half = |keep: fn(&Cell) -> bool, probed: Option<f64>| {
        probed.unwrap_or_else(|| {
            runs_per_s(
                plain
                    .ops
                    .iter()
                    .flat_map(|o| &o.campaigns)
                    .filter(|c| keep(&c.cell)),
            )
        })
    };
    let total = |f: fn(&RunCosts) -> f64| pr.costs.iter().map(|(_, c)| f(c)).sum::<f64>();
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    let mut values: Vec<f64> = vec![
        median(&span_secs(&events, "model", "build")),
        median(&span_secs(&events, "soc", "golden")),
        pr.cones_s,
        pr.correlation_s,
        pr.lifetime_s,
        pr.classification_s,
        median(&span_secs(&events, "sampling", "strategy")),
        pr.seu_map_s.iter().sum(),
    ];
    values.extend(&pr.seu_map_s);
    values.extend(&goal_wall);
    values.extend(&goal_runs);
    values.extend([
        1e9 * total(|c| c.draw_s) / total(|c| c.runs),
        1e9 * total(|c| c.strike_s) / total(|c| c.lanes),
        1e9 * total(|c| c.conclude_s) / total(|c| c.runs),
        median(&engine),
        sweep_half(Cell::rtl_heavy, pr.rtl_cells_runs_per_s),
        sweep_half(Cell::gate_heavy, pr.gate_cells_runs_per_s),
        counts.rtl_runs as f64,
        counts.analytic_runs as f64,
        ratio(counts.conclusion_hits, counts.conclusion_lookups),
        ratio(counts.cycle_hits, counts.cycle_lookups),
        counts.soc_restores as f64,
        counts.pulses as f64,
        ratio(counts.lanes_occupied, counts.lane_batches),
        median(&op_walls) - median(&walls(&plain)),
        cover.iter().copied().fold(f64::MAX, f64::min),
        failed as f64 / attempted as f64,
    ]);
    let metrics = per_layer()
        .into_iter()
        .zip(values)
        .map(|((name, unit), value)| Metric { name, value, unit })
        .collect();
    let outcome = Outcome {
        attempted,
        failed,
        metrics,
    };
    let mut conditions = Conditions::new(cfg, &p, None);
    conditions.fields.push(("counts", counts.render()));
    Ok((outcome, conditions))
}

/// Deterministic counts of the first traced operation, each with its base.
struct Counts {
    runs: usize,
    rtl_runs: usize,
    analytic_runs: usize,
    conclusion_hits: usize,
    conclusion_lookups: usize,
    cycle_hits: usize,
    cycle_lookups: usize,
    soc_restores: usize,
    pulses: usize,
    lanes_occupied: usize,
    lane_batches: usize,
}

impl Counts {
    fn render(&self) -> String {
        format!(
            "{{\"runs\": {}, \"rtl_runs\": {}, \"analytic_runs\": {}, \
             \"conclusion_memo_hits\": {}, \"conclusion_memo_lookups\": {}, \
             \"cycle_memo_hits\": {}, \"cycle_memo_lookups\": {}, \"soc_restores\": {}, \
             \"pulses\": {}, \"lanes_occupied\": {}, \"lane_batches\": {}}}",
            self.runs,
            self.rtl_runs,
            self.analytic_runs,
            self.conclusion_hits,
            self.conclusion_lookups,
            self.cycle_hits,
            self.cycle_lookups,
            self.soc_restores,
            self.pulses,
            self.lanes_occupied,
            self.lane_batches
        )
    }
}

/// `pins.txt` for [`DEFAULT_SEED`] at full size: one line per campaign of
/// every answer input slot and of one sweep pass.
pub fn pin_lines() -> Vec<String> {
    let mut lines = Vec::new();
    let sink = TraceSink::disabled();
    for workload in Workload::ALL {
        let cfg = Config {
            workload,
            seed: DEFAULT_SEED,
            seconds: 0.0,
            trace: false,
            size: Size::FULL,
        };
        let sweep = workload == Workload::SweepGrid;
        let warm = sweep.then(|| setup(&sink));
        for slot in 0..if sweep { 1 } else { OP_SEEDS } {
            let op = operation(&cfg, slot, warm.as_ref(), &sink);
            for c in &op.campaigns {
                let key = pin_key(workload, slot, &c.cell.key());
                lines.push(Digest::of(&c.result).line(&key));
            }
        }
    }
    lines
}
