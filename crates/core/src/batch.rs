//! Packed campaign chunk execution over the compiled transient kernel.
//!
//! One chunk of runs is executed in three phases:
//!
//! 1. **Draw** (scalar): each run's sample, weight and RNG come from
//!    `SplitMix64::for_run(seed, run_index)` exactly as in the scalar
//!    engine — lane packing never touches the per-run random streams.
//! 2. **Strike** (packed): in-run samples are stratified by injection
//!    cycle (in `(T_e, run_index)` order so runs sharing a frame land in
//!    the same sweep), grouped into sweeps of up to
//!    [`WIDE_LANES`](xlmc_gatesim::WIDE_LANES) lanes, and propagated
//!    through
//!    [`TransientSim::strike_compiled_with`](xlmc_gatesim::transient::TransientSim)
//!    in one pass over the netlist's compiled program per sweep.
//! 3. **Conclude + fold** (scalar): each lane's faulty registers, a packed
//!    set, go through the hardening/classification/resume pipeline with
//!    its own RNG, and the per-run results are folded into the chunk
//!    partial **in run-index order**, so the Welford/Chan statistics are
//!    bit-identical to the scalar engine's at any thread count and any
//!    lane assignment.

use std::time::Instant;

use xlmc_fault::{AttackSample, LaneStrikes};
use xlmc_gatesim::bitparallel::CycleWindow;
use xlmc_gatesim::{
    BatchLane, CompiledStrikeOutcome, CompiledTransientScratch, CycleGroup, CycleValues,
    StrikeOutcome, TransientScratch, WIDE_LANES,
};
use xlmc_netlist::GateId;

use crate::estimator::{fold_run, CampaignKernel, ChunkPartial, RunObs};
use crate::fastforward::{ConclusionMemo, FastForwardStats, RtlFastForward};
use crate::flow::{DffMask, FaultRunner, StrikeClass};
use crate::metrics::{LatencyHist, LatencyShard};
use crate::rng::SplitMix64;
use crate::sampling::SamplingStrategy;
use crate::trace::{CounterScratch, KernelCounters, TraceSink};
use rand::RngCore;

/// One run's scalar-phase products: the drawn sample, its importance
/// weight, and the RNG state *after* the draw (the only later consumer is
/// the hardening filter, which runs lane-by-lane in the conclude phase).
struct RunDraw {
    sample: AttackSample,
    w: f64,
    rng: SplitMix64,
}

/// One run's concluded outcome, buffered until the run-order fold.
#[derive(Clone, Copy)]
struct RunRecord {
    success: bool,
    class: StrikeClass,
    analytic: bool,
    /// The post-hardening registers in error.
    regs: DffMask,
    pulses: usize,
    /// Whether the conclusion was its chunk's first probe of the key.
    first_in_chunk: bool,
}

impl RunRecord {
    /// The record of a run without a strike.
    const MASKED: Self = Self {
        success: false,
        class: StrikeClass::Masked,
        analytic: false,
        regs: DffMask::EMPTY,
        pulses: 0,
        first_in_chunk: false,
    };
}

/// Reusable per-worker buffers for [`run_chunk_compiled`]. Like
/// [`FlowScratch`](crate::flow::FlowScratch), the RTL fast-forward state —
/// and the compiled kernel's cycle slots, named by `T_e` — is valid against
/// one `(model, evaluation, prechar)` triple only.
#[derive(Default)]
pub(crate) struct BatchChunkScratch {
    draws: Vec<RunDraw>,
    te: Vec<Option<u64>>,
    /// In-chunk indices of in-run samples, in `(T_e, index)` order.
    order: Vec<u32>,
    /// Per-cycle bucket offsets of the stratification pass.
    te_counts: Vec<u32>,
    lane_strikes: LaneStrikes,
    records: Vec<RunRecord>,
    ff: RtlFastForward,
    transient: CompiledTransientScratch,
    strike_out: CompiledStrikeOutcome,
    /// Wall-clock latency of each packed transient sweep — pure
    /// telemetry, harvested per chunk into the chunk partial.
    sweep_hist: LatencyHist,
}

impl BatchChunkScratch {
    /// The fast-forward counters accumulated by chunks on this scratch.
    pub(crate) fn fast_forward_stats(&self) -> FastForwardStats {
        self.ff.stats()
    }

    /// Drain the latency observations accumulated since the last call
    /// (kernel sweeps plus fast-forward positioning) into a shard the
    /// campaign engine attaches to the finished chunk's partial.
    pub(crate) fn take_latency(&mut self) -> LatencyShard {
        LatencyShard {
            kernel_sweep: std::mem::take(&mut self.sweep_hist),
            snapshot_restore: self.ff.take_restore_latency(),
            ..LatencyShard::default()
        }
    }
}

impl std::fmt::Debug for BatchChunkScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchChunkScratch").finish_non_exhaustive()
    }
}

#[cfg(test)]
impl BatchChunkScratch {
    /// Run `i` of the last executed chunk, as
    /// `(success, class, analytic, faulty_bits, weight)` — the per-run
    /// observables the lane-equivalence tests compare against the scalar
    /// engine.
    fn recorded(
        &self,
        runner: &FaultRunner<'_>,
        i: usize,
    ) -> (bool, StrikeClass, bool, Vec<xlmc_soc::MpuBit>, f64) {
        let r = &self.records[i];
        let mut bits = Vec::new();
        runner.bits_into(r.regs, &mut bits);
        (r.success, r.class, r.analytic, bits, self.draws[i].w)
    }
}

/// Phase 1: scalar draws identical to the scalar engine, then
/// stratification by injection cycle. Same-frame runs
/// share batches (fewer value groups per batch), and the `(T_e, index)`
/// order keeps the grouping a pure function of the chunk contents —
/// independent of threads and lane assignment.
fn draw_and_stratify(
    runner: &FaultRunner<'_>,
    strategy: &dyn SamplingStrategy,
    seed: u64,
    start: usize,
    end: usize,
    scratch: &mut BatchChunkScratch,
) {
    let m = end - start;
    scratch.draws.clear();
    scratch.te.clear();
    if scratch.records.len() < m {
        scratch.records.resize(m, RunRecord::MASKED);
    }
    let golden_cycles = runner.eval.golden.cycles;
    for i in 0..m {
        let mut rng = SplitMix64::for_run(seed, (start + i) as u64);
        let (sample, w) = strategy.draw_weighted(&mut rng);
        let te = sample
            .injection_cycle(runner.eval.target_cycle)
            .filter(|&te| te < golden_cycles);
        if te.is_none() {
            // Out-of-run: masked without a strike, like the scalar path.
            scratch.records[i] = RunRecord::MASKED;
        }
        scratch.te.push(te);
        scratch.draws.push(RunDraw { sample, w, rng });
    }
    stratify(&scratch.te, &mut scratch.order, &mut scratch.te_counts);
}

/// The in-run indices of `te` in `(T_e, index)` order, by one counting
/// pass over the chunk's `T_e` range: each run lands in its cycle's bucket
/// in index order, which is the order a `(T_e, index)` sort gives.
fn stratify(te: &[Option<u64>], order: &mut Vec<u32>, counts: &mut Vec<u32>) {
    order.clear();
    let mut in_run = te.iter().flatten();
    let Some(&first) = in_run.next() else {
        return;
    };
    let (lo, hi) = in_run.fold((first, first), |(lo, hi), &t| (lo.min(t), hi.max(t)));
    counts.clear();
    counts.resize((hi - lo) as usize + 2, 0);
    for &t in te.iter().flatten() {
        counts[(t - lo) as usize + 1] += 1;
    }
    for b in 1..counts.len() {
        counts[b] += counts[b - 1];
    }
    order.resize(counts[counts.len() - 1] as usize, 0);
    for (i, t) in te.iter().enumerate() {
        if let Some(t) = t {
            let slot = &mut counts[(t - lo) as usize];
            order[*slot as usize] = i as u32;
            *slot += 1;
        }
    }
}

/// The stable-value groups of one compiled sweep over `batch` (whose
/// equal cycles are contiguous after [`stratify`]), named by `T_e`.
fn cycle_groups<'c>(
    cycles: &'c CycleWindow,
    te: &[Option<u64>],
    batch: &[u32],
) -> Vec<CycleGroup<'c>> {
    let mut groups: Vec<CycleGroup<'c>> = Vec::new();
    for (lane, &ri) in batch.iter().enumerate() {
        let t = te[ri as usize].expect("struck runs inject inside the run");
        let (k, bit) = (lane / 64, 1u64 << (lane % 64));
        match groups.last_mut() {
            Some(g) if g.cycle == t as usize => g.lanes[k] |= bit,
            _ => {
                let mut lanes = [0; 4];
                lanes[k] = bit;
                groups.push(cycles.group(t as usize, lanes));
            }
        }
    }
    groups
}

/// Harden and conclude run `ri`'s strike — its registers in error `regs`
/// and the pulses it propagated — into its record.
fn conclude_lane(
    runner: &FaultRunner<'_>,
    scratch: &mut BatchChunkScratch,
    memo: &mut ConclusionMemo,
    chunk: u32,
    ri: usize,
    mut regs: DffMask,
    pulses: usize,
) {
    let te = scratch.te[ri].expect("struck runs inject inside the run");
    runner.harden(&mut regs, &mut scratch.draws[ri].rng);
    let (c, first_in_chunk) = runner.conclude_with(te, regs, &mut scratch.ff, memo, Some(chunk));
    scratch.records[ri] = RunRecord {
        success: c.success,
        class: c.class,
        analytic: c.analytic,
        regs,
        pulses,
        first_in_chunk,
    };
}

/// Fold the chunk's buffered records into a partial, in run-index order.
fn fold_records(
    runner: &FaultRunner<'_>,
    scratch: &mut BatchChunkScratch,
    ctr: &mut CounterScratch,
    start: usize,
    m: usize,
    kc: KernelCounters,
    record_provenance: bool,
) -> ChunkPartial {
    let mut p = ChunkPartial {
        level: crate::multilevel::LEVEL_GATE,
        kernel_counters: kc,
        ..ChunkPartial::default()
    };
    for i in 0..m {
        let rec = &scratch.records[i];
        fold_run(
            &mut p,
            ctr,
            RunObs {
                run_index: (start + i) as u64,
                sample: &scratch.draws[i].sample,
                te: scratch.te[i],
                pulses: rec.pulses,
                class: rec.class,
                analytic: rec.analytic,
                success: rec.success,
                w: scratch.draws[i].w,
                regs: rec.regs,
                first_in_chunk: rec.first_in_chunk,
                dff_bits: runner.model.mpu.dff_bits(),
            },
            record_provenance,
        );
    }
    p
}

/// Execute runs `start..end` through the 256-wide compiled-program kernel.
///
/// Produces the same [`ChunkPartial`] as the scalar
/// [`run_chunk`](crate::estimator) bit-for-bit: per-run samples, weights,
/// strike outcomes, hardening draws and the fold order are all identical;
/// only the transient propagation is shared across lanes, up to
/// [`WIDE_LANES`] runs per sweep of the netlist's levelized
/// [`GateProgram`](xlmc_netlist::GateProgram).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_chunk_compiled(
    runner: &FaultRunner<'_>,
    strategy: &dyn SamplingStrategy,
    seed: u64,
    start: usize,
    end: usize,
    scratch: &mut BatchChunkScratch,
    cycles: &CycleWindow,
    memo: &mut ConclusionMemo,
    chunk: u32,
    ctr: &mut CounterScratch,
    record_provenance: bool,
    sink: &TraceSink,
    tid: u32,
) -> ChunkPartial {
    ctr.begin_chunk();
    let m = end - start;
    let draw_span = sink.span_on(tid, "chunk", "draw");
    draw_and_stratify(runner, strategy, seed, start, end, scratch);
    drop(draw_span);

    let period = runner.model.transient.config().clock_period_ps;
    let netlist = runner.model.mpu.netlist();
    let program = netlist
        .program()
        .expect("model netlist was levelized at construction");
    let mut kc = KernelCounters::default();
    let mut pulses = 0usize;
    for b0 in (0..scratch.order.len()).step_by(WIDE_LANES) {
        let b1 = (b0 + WIDE_LANES).min(scratch.order.len());
        let batch = &scratch.order[b0..b1];
        let strike_span = sink.span_on(tid, "chunk", "strike");
        scratch.lane_strikes.clear();
        for &ri in batch {
            let ri = ri as usize;
            // The second-spot entropy word comes off the run's own stream
            // here — the same stream position as the scalar engine, which
            // draws it right after the primary spot query and before the
            // hardening draws in `FaultRunner::harden`.
            let spot2 = runner
                .multi_fault
                .map(|mf| mf.second_spot(scratch.draws[ri].rng.next_u64()));
            scratch.lane_strikes.push_sample_with(
                &scratch.draws[ri].sample,
                spot2.as_ref(),
                &runner.model.placement,
                program,
                period,
            );
        }
        let groups = cycle_groups(cycles, &scratch.te, batch);
        let lanes = batch_lanes(&scratch.lane_strikes);
        let t_sweep = Instant::now();
        runner.model.transient.strike_compiled_with(
            netlist,
            program,
            &groups,
            &lanes,
            &mut scratch.transient,
            &mut scratch.strike_out,
        );
        scratch.sweep_hist.record(t_sweep.elapsed().as_secs_f64());
        drop(lanes);
        kc.lane_batches += 1;
        kc.lanes_occupied += batch.len();
        kc.frame_groups += groups.len();
        kc.gates_visited += scratch.strike_out.gates_visited();
        kc.timed_lanes += scratch.strike_out.timed_lanes();
        kc.resimulated_lanes += scratch.strike_out.resimulated_lanes();
        pulses += scratch.strike_out.pulses_total();
        drop(strike_span);

        let _conclude_span = sink.span_on(tid, "chunk", "conclude");
        for lane in 0..b1 - b0 {
            let ri = scratch.order[b0 + lane];
            let regs = DffMask::from_words(scratch.strike_out.faulty_words(lane));
            conclude_lane(runner, scratch, memo, chunk, ri as usize, regs, 0);
        }
    }

    // Fold in run-index order, exactly like the scalar kernel. The pulse
    // counter is a chunk sum, so it takes the sweeps' totals rather than
    // per-lane counts.
    let _fold_span = sink.span_on(tid, "chunk", "fold");
    let mut p = fold_records(runner, scratch, ctr, start, m, kc, record_provenance);
    p.counters.pulses_propagated += pulses;
    p
}

/// The kernel lanes of the strikes in `strikes`.
fn batch_lanes(strikes: &LaneStrikes) -> Vec<BatchLane<'_>> {
    (0..strikes.lanes())
        .map(|l| {
            let (primary, secondary) = strikes.footprints(l);
            BatchLane {
                primary,
                secondary,
                strike_time_ps: strikes.strike_time_ps(l),
            }
        })
        .collect()
}

/// One gate-level-path measurement: the strike phase alone — stratified
/// lane batches through the selected kernel — with the draw, conclude and
/// fold phases (which are kernel-invariant) excluded. This is what the
/// compiled-kernel speedup claim is about; end-to-end campaign throughput
/// dilutes it with per-run scalar work every kernel pays identically.
#[derive(Debug, Clone, Copy)]
pub struct GatePathBench {
    /// In-run lanes struck per pass over the drawn set.
    pub lanes: usize,
    /// Kernel sweeps per pass.
    pub sweeps: usize,
    /// Wall time of the fastest timed pass.
    pub best_pass_s: f64,
    /// Checksum: pulses propagated in one pass (kernel-invariant).
    pub pulses: u64,
    /// Checksum: faulty registers of one pass, summed over `id + 1`
    /// (kernel-invariant; latched and upset DFFs both count).
    pub faulty: u64,
}

impl GatePathBench {
    /// Strike-kernel throughput in lanes (runs) per second.
    pub fn lanes_per_sec(&self) -> f64 {
        self.lanes as f64 / self.best_pass_s
    }
}

/// Benchmark the gate-level path of `kernel`: draw and stratify `runs`
/// samples once (seeded exactly like a campaign chunk), derive the golden
/// window (and, for the scalar kernel, the injection cycles' values), warm
/// the kernel scratch with one untimed pass, then time `passes`
/// strike-only passes and keep the fastest (interference on a shared host
/// only ever slows a pass down).
pub fn gate_path_bench(
    runner: &FaultRunner<'_>,
    strategy: &dyn SamplingStrategy,
    runs: usize,
    seed: u64,
    kernel: CampaignKernel,
    passes: usize,
) -> GatePathBench {
    let mut scratch = BatchChunkScratch::default();
    draw_and_stratify(runner, strategy, seed, 0, runs, &mut scratch);
    let cycles = runner.model.golden_window(&runner.eval.golden);

    let period = runner.model.transient.config().clock_period_ps;
    let netlist = runner.model.mpu.netlist();
    let program = netlist
        .program()
        .expect("model netlist was levelized at construction");
    let mut scalar_values: Vec<Option<CycleValues>> = vec![None; cycles.cycles()];
    if kernel == CampaignKernel::Scalar {
        for &ri in &scratch.order {
            let te = scratch.te[ri as usize].unwrap() as usize;
            let (words, bit) = cycles.block(te);
            scalar_values[te]
                .get_or_insert_with(CycleValues::default)
                .unpack_into(netlist, words, bit);
        }
    }
    let mut stransient = TransientScratch::default();
    let mut sout = StrikeOutcome::default();
    let mut struck: Vec<GateId> = Vec::new();
    let mut faulty_regs: Vec<GateId> = Vec::new();
    let mut bench = GatePathBench {
        lanes: scratch.order.len(),
        sweeps: 0,
        best_pass_s: f64::INFINITY,
        pulses: 0,
        faulty: 0,
    };

    let mut pass = |scratch: &mut BatchChunkScratch, checksum: Option<&mut GatePathBench>| {
        let mut sweeps = 0usize;
        let mut pulses = 0u64;
        let mut faulty = 0u64;
        match kernel {
            CampaignKernel::Scalar => {
                for &ri in &scratch.order {
                    let ri = ri as usize;
                    let te = scratch.te[ri].unwrap();
                    scratch.lane_strikes.clear();
                    scratch.lane_strikes.push_sample(
                        &scratch.draws[ri].sample,
                        &runner.model.placement,
                        program,
                        period,
                    );
                    scratch.lane_strikes.struck_into(0, program, &mut struck);
                    runner.model.transient.strike_with(
                        netlist,
                        scalar_values[te as usize]
                            .as_ref()
                            .expect("the scalar pass unpacked every injection cycle"),
                        &struck,
                        scratch.lane_strikes.strike_time_ps(0),
                        &mut stransient,
                        &mut sout,
                    );
                    sweeps += 1;
                    pulses += sout.pulses_propagated as u64;
                    sout.faulty_registers_into(&mut faulty_regs);
                    faulty += faulty_regs
                        .iter()
                        .map(|g| g.index() as u64 + 1)
                        .sum::<u64>();
                }
            }
            CampaignKernel::Compiled => {
                for batch in scratch.order.chunks(WIDE_LANES) {
                    scratch.lane_strikes.clear();
                    for &ri in batch {
                        scratch.lane_strikes.push_sample(
                            &scratch.draws[ri as usize].sample,
                            &runner.model.placement,
                            program,
                            period,
                        );
                    }
                    let groups = cycle_groups(&cycles, &scratch.te, batch);
                    let lanes = batch_lanes(&scratch.lane_strikes);
                    runner.model.transient.strike_compiled_with(
                        netlist,
                        program,
                        &groups,
                        &lanes,
                        &mut scratch.transient,
                        &mut scratch.strike_out,
                    );
                    drop(lanes);
                    sweeps += 1;
                    pulses += scratch.strike_out.pulses_total() as u64;
                    for lane in 0..batch.len() {
                        scratch
                            .strike_out
                            .faulty_registers_into(netlist, lane, &mut faulty_regs);
                        faulty += faulty_regs
                            .iter()
                            .map(|g| g.index() as u64 + 1)
                            .sum::<u64>();
                    }
                }
            }
        }
        if let Some(b) = checksum {
            b.sweeps = sweeps;
            b.pulses = pulses;
            b.faulty = faulty;
        }
    };

    // Untimed warmup: sizes every scratch buffer and fills the checksums.
    pass(&mut scratch, Some(&mut bench));
    for _ in 0..passes {
        let start = Instant::now();
        pass(&mut scratch, None);
        bench.best_pass_s = bench.best_pass_s.min(start.elapsed().as_secs_f64());
    }
    bench
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowScratch;
    use crate::harden::{DupConfigVote, HardenedSet, HardenedVariant, HardeningModel, ScfiFsm};
    use crate::model::{Evaluation, SystemModel};
    use crate::precharacterize::Precharacterization;
    use crate::sampling::{
        baseline_distribution, ConeSampling, ExperimentConfig, ImportanceSampling, RandomSampling,
    };
    use xlmc_soc::workloads;

    struct Fixture {
        model: SystemModel,
        eval: Evaluation,
        prechar: Precharacterization,
        cfg: ExperimentConfig,
    }

    fn fixture() -> Fixture {
        let model = SystemModel::with_defaults().unwrap();
        let eval = Evaluation::new(workloads::illegal_write()).unwrap();
        let cfg = ExperimentConfig {
            t_max: 20,
            ..Default::default()
        };
        let prechar = Precharacterization::run(&model, cfg.t_max, cfg.max_radius());
        Fixture {
            model,
            eval,
            prechar,
            cfg,
        }
    }

    fn strategies(f: &Fixture) -> Vec<Box<dyn SamplingStrategy>> {
        let fd = baseline_distribution(&f.model, &f.cfg);
        vec![
            Box::new(RandomSampling::new(fd.clone())),
            Box::new(ConeSampling::new(
                fd.clone(),
                &f.prechar,
                f.cfg.radius_options.clone(),
            )),
            Box::new(ImportanceSampling::new(
                fd,
                &f.model,
                &f.prechar,
                f.cfg.alpha,
                f.cfg.beta,
                f.cfg.radius_options.clone(),
            )),
        ]
    }

    proptest::proptest! {
        /// The counting pass orders in-run indices exactly like the
        /// `(T_e, index)` comparison sort it replaced, out-of-run entries
        /// left out, on random `T_e` vectors with repeats and wide spans.
        #[test]
        fn stratify_matches_the_comparison_sort(
            draws in proptest::collection::vec((0u32..4, 0u64..40), 0..200),
            base in 0u64..1_000,
        ) {
            let te: Vec<Option<u64>> = draws
                .iter()
                .map(|&(kind, t)| (kind != 0).then_some(base + t * u64::from(kind)))
                .collect();
            let mut want: Vec<u32> = (0..te.len() as u32)
                .filter(|&i| te[i as usize].is_some())
                .collect();
            want.sort_unstable_by_key(|&i| (te[i as usize].unwrap(), i));
            let (mut order, mut counts) = (vec![7], Vec::new());
            stratify(&te, &mut order, &mut counts);
            proptest::prop_assert_eq!(order, want);
        }
    }

    /// The lane-equivalence property at system level: for every run of a
    /// full chunk, the compiled kernel's (outcome, weight) is bit-identical
    /// to the scalar engine's — across all three sampling strategies, with
    /// and without the randomized hardening countermeasure (which exercises
    /// the per-lane RNG hand-off).
    #[test]
    fn compiled_chunk_runs_match_scalar_runs_across_strategies() {
        let f = fixture();
        let hardened = HardenedVariant::Uniform(HardenedSet::new(
            [xlmc_soc::MpuBit::Violation, xlmc_soc::MpuBit::Enable],
            HardeningModel::default(),
        ));
        for hardening in [None, Some(&hardened)] {
            let runner = FaultRunner {
                model: &f.model,
                eval: &f.eval,
                prechar: &f.prechar,
                hardening,
                multi_fault: None,
            };
            for strat in strategies(&f) {
                for seed in [3u64, 77] {
                    let n = 200;
                    let cache = runner.model.golden_window(&runner.eval.golden);
                    let mut memo = ConclusionMemo::default();
                    let mut cscratch = BatchChunkScratch::default();
                    let mut ctr = CounterScratch::default();
                    let sink = TraceSink::disabled();
                    run_chunk_compiled(
                        &runner,
                        strat.as_ref(),
                        seed,
                        0,
                        n,
                        &mut cscratch,
                        &cache,
                        &mut memo,
                        0,
                        &mut ctr,
                        false,
                        &sink,
                        0,
                    );

                    let mut flow = FlowScratch::default();
                    for i in 0..n {
                        let mut rng = SplitMix64::for_run(seed, i as u64);
                        let sample = strat.draw(&mut rng);
                        let w = strat.weight(&sample);
                        let out = runner.run_with(&sample, &mut rng, &mut flow);
                        let (cs, cc, ca, cbits, cw) = cscratch.recorded(&runner, i);
                        let ctx = format!(
                            "strategy {} seed {seed} run {i} hardened {}",
                            strat.name(),
                            hardening.is_some()
                        );
                        assert_eq!(cs, out.success, "{ctx}");
                        assert_eq!(cc, out.class, "{ctx}");
                        assert_eq!(ca, out.analytic, "{ctx}");
                        assert_eq!(cbits, out.faulty_bits, "{ctx}");
                        assert!(cw == w, "{ctx}: weight {cw} != {w}");
                    }
                }
            }
        }
    }

    /// The 256-wide compiled kernel reproduces the scalar engine run by
    /// run on *all five* attack workloads (each exercises a different
    /// target register cone), with and without hardening.
    #[test]
    fn compiled_chunk_runs_match_scalar_runs_across_workloads() {
        let model = SystemModel::with_defaults().unwrap();
        let cfg = ExperimentConfig {
            t_max: 20,
            ..Default::default()
        };
        let prechar = Precharacterization::run(&model, cfg.t_max, cfg.max_radius());
        let hardened = HardenedVariant::Uniform(HardenedSet::new(
            [xlmc_soc::MpuBit::Violation, xlmc_soc::MpuBit::Enable],
            HardeningModel::default(),
        ));
        for workload in [
            workloads::illegal_write(),
            workloads::illegal_read(),
            workloads::dma_exfiltration(),
            workloads::trap_escalation(),
            workloads::instruction_skip(),
        ] {
            let eval = Evaluation::new(workload).unwrap();
            for hardening in [None, Some(&hardened)] {
                let runner = FaultRunner {
                    model: &model,
                    eval: &eval,
                    prechar: &prechar,
                    hardening,
                    multi_fault: None,
                };
                let strat = RandomSampling::new(baseline_distribution(&model, &cfg));
                let seed = 41u64;
                // 300 runs crosses the 256-lane boundary.
                let n = 300;
                let cache = runner.model.golden_window(&runner.eval.golden);
                let mut memo = ConclusionMemo::default();
                let mut cscratch = BatchChunkScratch::default();
                let mut ctr = CounterScratch::default();
                let sink = TraceSink::disabled();
                run_chunk_compiled(
                    &runner,
                    &strat,
                    seed,
                    0,
                    n,
                    &mut cscratch,
                    &cache,
                    &mut memo,
                    0,
                    &mut ctr,
                    false,
                    &sink,
                    0,
                );
                let mut flow = FlowScratch::default();
                for i in 0..n {
                    let mut rng = SplitMix64::for_run(seed, i as u64);
                    let sample = strat.draw(&mut rng);
                    let w = strat.weight(&sample);
                    let out = runner.run_with(&sample, &mut rng, &mut flow);
                    let (cs, cc, ca, cbits, cw) = cscratch.recorded(&runner, i);
                    let ctx = format!(
                        "workload {} run {i} hardened {}",
                        runner.eval.workload.name,
                        hardening.is_some()
                    );
                    assert_eq!(cs, out.success, "{ctx}");
                    assert_eq!(cc, out.class, "{ctx}");
                    assert_eq!(ca, out.analytic, "{ctx}");
                    assert_eq!(cbits, out.faulty_bits, "{ctx}");
                    assert!(cw == w, "{ctx}: weight {cw} != {w}");
                }
            }
        }
    }

    /// Under the double-glitch mode the compiled kernel still reproduces
    /// the scalar engine run by run: the second-spot entropy word is drawn
    /// at the same per-run stream position in both kernels, so lane
    /// packing never perturbs the second strike (or the hardening draws
    /// that follow it on the same stream).
    #[test]
    fn kernels_match_scalar_under_double_glitch() {
        let f = fixture();
        let fd = baseline_distribution(&f.model, &f.cfg);
        let glitch = xlmc_fault::DoubleGlitch::new(fd.spatial.clone(), fd.radius.clone());
        let hardened = HardenedVariant::Uniform(HardenedSet::new(
            [xlmc_soc::MpuBit::Violation, xlmc_soc::MpuBit::Enable],
            HardeningModel::default(),
        ));
        for hardening in [None, Some(&hardened)] {
            let runner = FaultRunner {
                model: &f.model,
                eval: &f.eval,
                prechar: &f.prechar,
                hardening,
                multi_fault: Some(&glitch),
            };
            let strat = RandomSampling::new(fd.clone());
            let seed = 23u64;
            let n = 300;
            let cache = runner.model.golden_window(&runner.eval.golden);
            let mut memo = ConclusionMemo::default();
            let mut scratch = BatchChunkScratch::default();
            let mut ctr = CounterScratch::default();
            let sink = TraceSink::disabled();
            run_chunk_compiled(
                &runner,
                &strat,
                seed,
                0,
                n,
                &mut scratch,
                &cache,
                &mut memo,
                0,
                &mut ctr,
                false,
                &sink,
                0,
            );
            let mut flow = FlowScratch::default();
            for i in 0..n {
                let mut rng = SplitMix64::for_run(seed, i as u64);
                let sample = strat.draw(&mut rng);
                let w = strat.weight(&sample);
                let out = runner.run_with(&sample, &mut rng, &mut flow);
                let (cs, cc, ca, cbits, cw) = scratch.recorded(&runner, i);
                let ctx = format!("hardened={} run {i}", hardening.is_some());
                assert_eq!(cs, out.success, "{ctx}");
                assert_eq!(cc, out.class, "{ctx}");
                assert_eq!(ca, out.analytic, "{ctx}");
                assert_eq!(cbits, out.faulty_bits, "{ctx}");
                assert!(cw == w, "{ctx}: weight {cw} != {w}");
            }
        }
    }

    /// The compiled engine reproduces the scalar engine run by run on all
    /// five goals under the deterministic voter (the sweep grid's defense)
    /// and the stochastic SCFI code, with one and two glitch spots. Both
    /// keep the hardening filter's draw order: one `flip_survives` per
    /// candidate bit in ascending DFF `GateId` order, checked against that
    /// filter applied to the unhardened strike's bits.
    #[test]
    fn compiled_hardening_order_matches_scalar_on_every_goal() {
        let model = SystemModel::with_defaults().unwrap();
        let cfg = ExperimentConfig {
            t_max: 20,
            ..Default::default()
        };
        let prechar = Precharacterization::run(&model, cfg.t_max, cfg.max_radius());
        let fd = baseline_distribution(&model, &cfg);
        let glitch = xlmc_fault::DoubleGlitch::new(fd.spatial.clone(), fd.radius.clone());
        let defenses = [
            HardenedVariant::DupConfigVote(DupConfigVote::new()),
            HardenedVariant::ScfiFsm(ScfiFsm::with_miss_rate(0.5)),
        ];
        let mut multi_bit_candidates = 0;
        for workload in [
            workloads::illegal_write(),
            workloads::illegal_read(),
            workloads::dma_exfiltration(),
            workloads::trap_escalation(),
            workloads::instruction_skip(),
        ] {
            let eval = Evaluation::new(workload).unwrap();
            for defense in &defenses {
                for multi_fault in [None, Some(&glitch)] {
                    let runner = FaultRunner {
                        model: &model,
                        eval: &eval,
                        prechar: &prechar,
                        hardening: Some(defense),
                        multi_fault,
                    };
                    let strat = RandomSampling::new(fd.clone());
                    let (seed, n) = (57u64, 300);
                    let cache = runner.model.golden_window(&runner.eval.golden);
                    let mut memo = ConclusionMemo::default();
                    let mut cscratch = BatchChunkScratch::default();
                    let mut ctr = CounterScratch::default();
                    let sink = TraceSink::disabled();
                    run_chunk_compiled(
                        &runner,
                        &strat,
                        seed,
                        0,
                        n,
                        &mut cscratch,
                        &cache,
                        &mut memo,
                        0,
                        &mut ctr,
                        false,
                        &sink,
                        0,
                    );
                    let bare = FaultRunner {
                        hardening: None,
                        ..runner
                    };
                    let mut flow = FlowScratch::default();
                    for i in 0..n {
                        let mut rng = SplitMix64::for_run(seed, i as u64);
                        let sample = strat.draw(&mut rng);
                        let w = strat.weight(&sample);
                        // The filter's oracle: the unhardened strike's bits
                        // by DFF gate id, one survival draw per candidate
                        // right after the strike's own stream use.
                        let mut filter_rng = rng.clone();
                        let mut want = bare
                            .run_with(&sample, &mut filter_rng, &mut flow)
                            .faulty_bits
                            .to_vec();
                        want.sort_by_key(|&b| model.mpu.dff(b));
                        multi_bit_candidates += usize::from(want.len() > 1);
                        want.retain(|&b| defense.flip_survives(b, &mut filter_rng));
                        let out = runner.run_with(&sample, &mut rng, &mut flow);
                        let (cs, cc, ca, cbits, cw) = cscratch.recorded(&runner, i);
                        let ctx = format!(
                            "workload {} {} double={} run {i}",
                            runner.eval.workload.name,
                            defense.name(),
                            multi_fault.is_some()
                        );
                        assert_eq!(cc, out.class, "{ctx}");
                        assert_eq!(cs, out.success, "{ctx}");
                        assert_eq!(ca, out.analytic, "{ctx}");
                        assert_eq!(cbits, out.faulty_bits, "{ctx}");
                        assert_eq!(cbits, want, "{ctx}");
                        assert!(cw == w, "{ctx}: weight {cw} != {w}");
                    }
                }
            }
        }
        assert!(
            multi_bit_candidates > 0,
            "some run must put several registers through the filter"
        );
    }

    /// The compiled partial equals the scalar partial field by field at
    /// every 256-lane tail shape (1/63/64/65/255/256/257).
    #[test]
    fn compiled_partial_matches_scalar_partial() {
        let f = fixture();
        let runner = FaultRunner {
            model: &f.model,
            eval: &f.eval,
            prechar: &f.prechar,
            hardening: None,
            multi_fault: None,
        };
        let strat = RandomSampling::new(baseline_distribution(&f.model, &f.cfg));
        let cache = runner.model.golden_window(&runner.eval.golden);
        let mut memo = ConclusionMemo::default();
        let mut cscratch = BatchChunkScratch::default();
        let mut flow = FlowScratch::default();
        let mut ctr = CounterScratch::default();
        let sink = TraceSink::disabled();
        // One memo across the chunks, as a worker keeps it.
        for (chunk, (start, len)) in [
            (0usize, 1usize),
            (1, 63),
            (64, 64),
            (128, 65),
            (0, 255),
            (7, 256),
            (11, 257),
        ]
        .into_iter()
        .enumerate()
        {
            let c = run_chunk_compiled(
                &runner,
                &strat,
                9,
                start,
                start + len,
                &mut cscratch,
                &cache,
                &mut memo,
                chunk as u32,
                &mut ctr,
                false,
                &sink,
                0,
            );
            let s = crate::estimator::scalar_chunk_for_tests(
                &runner,
                &strat,
                9,
                start,
                start + len,
                &mut flow,
            );
            assert_eq!(c.stats.count(), s.stats.count(), "len {len}");
            assert!(c.stats.mean() == s.stats.mean(), "len {len} mean");
            assert!(c.stats.variance() == s.stats.variance(), "len {len} var");
            assert_eq!(c.class_counts, s.class_counts, "len {len}");
            assert_eq!(c.analytic_runs, s.analytic_runs, "len {len}");
            assert_eq!(c.rtl_runs, s.rtl_runs, "len {len}");
            assert_eq!(c.successes, s.successes, "len {len}");
            assert_eq!(c.attribution, s.attribution, "len {len}");
            assert_eq!(c.counters, s.counters, "len {len}");
            assert_eq!(c.first_success, s.first_success, "len {len}");
        }
    }
}
