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
//!    in one pass over the netlist's compiled program per sweep. A run
//!    whose `(T_e, center, radius)` group an earlier sweep found untimed
//!    takes that sweep's result from the [`StrikeMemo`] instead of a lane.
//! 3. **Conclude + fold** (scalar): each lane's faulty registers, a packed
//!    set, go through the hardening/classification/resume pipeline with
//!    its own RNG, and the per-run results are folded into the chunk
//!    partial **in run-index order**, so the Welford/Chan statistics are
//!    bit-identical to the scalar engine's at any thread count and any
//!    lane assignment.

use std::time::Instant;

use xlmc_fault::{AttackSample, LaneStrikes, RadiationSpot};
use xlmc_gatesim::bitparallel::CycleWindow;
use xlmc_gatesim::{
    BatchLane, CompiledStrikeOutcome, CompiledTransientScratch, CycleGroup, CycleValues,
    StrikeOutcome, TransientScratch, WIDE_LANES,
};
use xlmc_netlist::{GateId, GateProgram};

use crate::estimator::{fold_run, CampaignKernel, ChunkPartial, RunObs};
use crate::flow::{DffMask, FaultRunner, StrikeClass};
use crate::metrics::{LatencyHist, LatencyShard};
use crate::resume::{ConclusionMemo, ResumeStats, RtlResume};
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
        first_in_chunk: false,
    };
}

/// A strike-memo entry of a group no sweep has struck yet.
const UNSEEN: u16 = 0;
/// A strike-memo entry of a group whose first lane is in the sweep being
/// filled; the sweep resolves it before the chunk goes on.
const PENDING: u16 = u16::MAX - 1;
/// A strike-memo entry of a timed group: every run of it gets a lane.
const TIMED: u16 = u16::MAX;
/// A lane that records nothing in the strike memo.
const NO_ENTRY: u32 = u32::MAX;
/// Footprint rows the strike memo grows by.
const MEMO_ROW_BLOCK: usize = 32;

/// What the compiled sweeps found per `(T_e, footprint)` group, one entry
/// per group: [`UNSEEN`], [`PENDING`], [`TIMED`], or the group's pulse
/// count plus one when its lane was untimed.
///
/// Whether a lane is timed is decided by the kernel's logical pass from
/// the golden values at `T_e` and the footprint alone, never from the
/// strike phase, and an untimed lane latches nothing
/// ([`CompiledStrikeOutcome::timed`]). So every run of an untimed group
/// has the footprint's upset DFFs as its registers in error and the
/// group's pulse count, whatever its phase: later runs of the group skip
/// the lane and the sweep. A timed group always sweeps, since whether it
/// latches depends on the phase; so does a pulse count too large for an
/// entry.
///
/// The table is dense, one row per footprint id of the worker's
/// [`LaneStrikes`] and one column per `T_e` in the range the campaign's
/// chunks have drawn: a few tens of kilobytes for a whole campaign. One
/// per worker and campaign, like the footprint ids it is indexed by.
#[derive(Debug, Default)]
struct StrikeMemo {
    /// The `T_e` of column 0.
    te_lo: u64,
    /// Columns per row.
    te_len: usize,
    table: Vec<u16>,
    /// Runs concluded from an entry instead of a lane.
    hits: u64,
}

impl StrikeMemo {
    /// Widen the columns to cover `lo..=hi`, keeping every entry.
    fn cover(&mut self, lo: u64, hi: u64) {
        let old_hi = (self.te_lo + self.te_len as u64).wrapping_sub(1);
        if self.te_len > 0 && lo >= self.te_lo && hi <= old_hi {
            return;
        }
        let (lo, hi) = if self.te_len == 0 {
            (lo, hi)
        } else {
            (lo.min(self.te_lo), hi.max(old_hi))
        };
        let len = (hi - lo + 1) as usize;
        let rows = self.table.len().checked_div(self.te_len).unwrap_or(0);
        let mut table = Vec::with_capacity(rows.next_multiple_of(MEMO_ROW_BLOCK) * len);
        table.resize(rows * len, UNSEEN);
        let shift = (self.te_lo.saturating_sub(lo)) as usize;
        for r in 0..rows {
            table[r * len + shift..][..self.te_len]
                .copy_from_slice(&self.table[r * self.te_len..][..self.te_len]);
        }
        (self.te_lo, self.te_len, self.table) = (lo, len, table);
    }

    /// The entry of group `(te, spot)`; `te` must be covered.
    fn entry(&mut self, te: u64, spot: u32) -> u32 {
        let rows = spot as usize + 1;
        if rows * self.te_len > self.table.len() {
            let cap = rows.next_multiple_of(MEMO_ROW_BLOCK) * self.te_len;
            self.table.reserve_exact(cap - self.table.len());
            self.table.resize(rows * self.te_len, UNSEEN);
        }
        (spot as usize * self.te_len + (te - self.te_lo) as usize) as u32
    }

    /// Record a swept lane's finding for its group's entry `e`: the pulse
    /// count of an untimed lane, `None` for a timed one.
    fn settle(&mut self, e: u32, untimed_pulses: Option<usize>) {
        self.table[e as usize] = match untimed_pulses.map(|p| u16::try_from(p + 1)) {
            Some(Ok(v)) if v < PENDING => v,
            _ => TIMED,
        };
    }
}

/// Reusable per-worker buffers for [`run_chunk_compiled`]. Like
/// [`FlowScratch`](crate::flow::FlowScratch), the RTL resume state —
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
    /// The sweep being filled: per lane, its run and the strike-memo entry
    /// its result settles ([`NO_ENTRY`] for none).
    lanes: Vec<(u32, u32)>,
    /// Runs held until the sweep being filled resolves their group.
    held: Vec<u32>,
    /// Held runs whose group is resolved, in `(T_e, index)` order.
    ready: std::collections::VecDeque<u32>,
    /// Runs of the sweep being filled that recall their group's result;
    /// each one's record holds its registers in error until it concludes.
    recalled: Vec<u32>,
    /// Per lane of the last sweep: its pulse count.
    lane_pulses: Vec<usize>,
    strike_memo: StrikeMemo,
    records: Vec<RunRecord>,
    ff: RtlResume,
    transient: CompiledTransientScratch,
    strike_out: CompiledStrikeOutcome,
    /// Wall-clock latency of each packed transient sweep — pure
    /// telemetry, harvested per chunk into the chunk partial.
    sweep_hist: LatencyHist,
}

impl BatchChunkScratch {
    /// The resume counters accumulated by chunks on this scratch.
    pub(crate) fn resume_stats(&self) -> ResumeStats {
        self.ff.stats()
    }

    /// Runs concluded from the strike memo instead of a lane.
    pub(crate) fn strike_memo_hits(&self) -> u64 {
        self.strike_memo.hits
    }

    /// Drain the latency observations accumulated since the last call
    /// (kernel sweeps plus resume positioning) into a shard the
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
) -> Option<(u64, u64)> {
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
    stratify(&scratch.te, &mut scratch.order, &mut scratch.te_counts)
}

/// The in-run indices of `te` in `(T_e, index)` order, by one counting
/// pass over the chunk's `T_e` range: each run lands in its cycle's bucket
/// in index order, which is the order a `(T_e, index)` sort gives.
/// Returns that range, `None` when no run is in the run.
fn stratify(te: &[Option<u64>], order: &mut Vec<u32>, counts: &mut Vec<u32>) -> Option<(u64, u64)> {
    order.clear();
    let mut in_run = te.iter().flatten();
    let &first = in_run.next()?;
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
    Some((lo, hi))
}

/// The stable-value groups of one compiled sweep over `batch` (whose
/// equal cycles are contiguous after [`stratify`]), named by `T_e`.
fn cycle_groups<'c>(
    cycles: &'c CycleWindow,
    te: &[Option<u64>],
    batch: impl IntoIterator<Item = u32>,
) -> Vec<CycleGroup<'c>> {
    let mut groups: Vec<CycleGroup<'c>> = Vec::new();
    for (lane, ri) in batch.into_iter().enumerate() {
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

/// Harden and conclude run `ri`'s strike, its registers in error `regs`,
/// into its record.
fn conclude_lane(
    runner: &FaultRunner<'_>,
    scratch: &mut BatchChunkScratch,
    memo: &mut ConclusionMemo,
    chunk: u32,
    ri: usize,
    mut regs: DffMask,
) {
    let te = scratch.te[ri].expect("struck runs inject inside the run");
    runner.harden(&mut regs, &mut scratch.draws[ri].rng);
    let (c, first_in_chunk) = runner.conclude_with(te, regs, &mut scratch.ff, memo, Some(chunk));
    scratch.records[ri] = RunRecord {
        success: c.success,
        class: c.class,
        analytic: c.analytic,
        regs,
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
                pulses: 0,
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
/// [`GateProgram`](xlmc_netlist::GateProgram), and a run of a group the
/// worker's [`StrikeMemo`] knows untimed takes the group's result without
/// a lane. Which runs share a sweep, and so the [`KernelCounters`],
/// depends on what the worker struck before; no result does.
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
    if let Some((lo, hi)) = draw_and_stratify(runner, strategy, seed, start, end, scratch) {
        scratch.strike_memo.cover(lo, hi);
    }
    drop(draw_span);

    let period = runner.model.transient.config().clock_period_ps;
    let program = runner
        .model
        .mpu
        .netlist()
        .program()
        .expect("model netlist was levelized at construction");
    let mut kc = KernelCounters::default();
    let mut pulses = 0usize;
    let mut next = 0;
    loop {
        // Fill a sweep: first the held runs whose group the last sweep
        // resolved, then the chunk's runs in `(T_e, index)` order.
        let strike_span = sink.span_on(tid, "chunk", "strike");
        scratch.lane_strikes.clear();
        scratch.lanes.clear();
        scratch.recalled.clear();
        while scratch.lanes.len() < WIDE_LANES {
            let ri = match scratch.ready.pop_front() {
                Some(ri) => ri,
                None if next < scratch.order.len() => {
                    next += 1;
                    scratch.order[next - 1]
                }
                None => break,
            };
            pulses += strike_or_recall(runner, scratch, program, period, ri);
        }
        if !scratch.lanes.is_empty() {
            sweep(runner, scratch, cycles, program, &mut kc, &mut pulses);
        }
        drop(strike_span);

        let _conclude_span = sink.span_on(tid, "chunk", "conclude");
        for lane in 0..scratch.lanes.len() {
            let (ri, e) = scratch.lanes[lane];
            if e != NO_ENTRY {
                let untimed = !scratch.strike_out.timed(lane);
                let pulses = untimed.then(|| scratch.lane_pulses[lane]);
                scratch.strike_memo.settle(e, pulses);
            }
            let regs = DffMask::from_words(scratch.strike_out.faulty_words(lane));
            conclude_lane(runner, scratch, memo, chunk, ri as usize, regs);
        }
        for k in 0..scratch.recalled.len() {
            let ri = scratch.recalled[k] as usize;
            let regs = scratch.records[ri].regs;
            conclude_lane(runner, scratch, memo, chunk, ri, regs);
        }
        if scratch.lanes.is_empty() {
            break;
        }
        let BatchChunkScratch { held, ready, .. } = scratch;
        ready.extend(held.drain(..));
    }

    // Fold in run-index order, exactly like the scalar kernel. The pulse
    // counter is a chunk sum, so it takes the sweeps' totals and the
    // recalled groups' counts rather than per-run counts.
    let _fold_span = sink.span_on(tid, "chunk", "fold");
    let mut p = fold_records(runner, scratch, ctr, start, m, kc, record_provenance);
    p.counters.pulses_propagated += pulses;
    p
}

/// Give run `ri` a lane in the sweep being filled, or hold it until that
/// sweep resolves its group, or recall its group's untimed result into
/// `scratch.recalled`. Returns the pulses a recalled run propagates.
fn strike_or_recall(
    runner: &FaultRunner<'_>,
    scratch: &mut BatchChunkScratch,
    program: &GateProgram,
    period: f64,
    ri: u32,
) -> usize {
    let placement = &runner.model.placement;
    let draw = &mut scratch.draws[ri as usize];
    if let Some(mf) = runner.multi_fault {
        // The double glitch bypasses the memo. Its second-spot entropy word
        // comes off the run's own stream here — the same stream position
        // as the scalar engine, which draws it right after the primary
        // spot query and before the hardening draws in
        // `FaultRunner::harden`.
        let spot2 = mf.second_spot(draw.rng.next_u64());
        let lanes = &mut scratch.lane_strikes;
        lanes.push_sample_with(&draw.sample, Some(&spot2), placement, program, period);
        scratch.lanes.push((ri, NO_ENTRY));
        return 0;
    }
    let te = scratch.te[ri as usize].expect("struck runs inject inside the run");
    let spot = RadiationSpot {
        center: draw.sample.center,
        radius: draw.sample.radius,
    };
    let spot = scratch.lane_strikes.spot_id(&spot, placement, program);
    let e = scratch.strike_memo.entry(te, spot);
    let entry = &mut scratch.strike_memo.table[e as usize];
    let settles = match *entry {
        UNSEEN => {
            *entry = PENDING;
            e
        }
        PENDING => {
            scratch.held.push(ri);
            return 0;
        }
        TIMED => NO_ENTRY,
        v => {
            scratch.strike_memo.hits += 1;
            let upset = scratch.lane_strikes.footprint(spot).dffs().iter();
            scratch.records[ri as usize].regs = upset.map(|&i| i as usize).collect();
            scratch.recalled.push(ri);
            return usize::from(v - 1);
        }
    };
    let time = draw.sample.strike_time_ps(period);
    scratch.lane_strikes.push_lane(spot, None, time);
    scratch.lanes.push((ri, settles));
    0
}

/// Strike the filled sweep's lanes, count the sweep into `kc` and
/// `pulses`, and leave each lane's pulse count in `scratch.lane_pulses`
/// when an untimed lane settles a strike-memo entry.
fn sweep(
    runner: &FaultRunner<'_>,
    scratch: &mut BatchChunkScratch,
    cycles: &CycleWindow,
    program: &GateProgram,
    kc: &mut KernelCounters,
    pulses: &mut usize,
) {
    let n = scratch.lanes.len();
    let groups = cycle_groups(cycles, &scratch.te, scratch.lanes.iter().map(|&(ri, _)| ri));
    let lanes = batch_lanes(&scratch.lane_strikes);
    let t_sweep = Instant::now();
    runner.model.transient.strike_compiled_with(
        runner.model.mpu.netlist(),
        program,
        &groups,
        &lanes,
        &mut scratch.transient,
        &mut scratch.strike_out,
    );
    scratch.sweep_hist.record(t_sweep.elapsed().as_secs_f64());
    drop(lanes);
    let out = &scratch.strike_out;
    kc.lane_batches += 1;
    kc.lanes_occupied += n;
    kc.frame_groups += groups.len();
    kc.gates_visited += out.gates_visited();
    kc.timed_lanes += out.timed_lanes();
    kc.resimulated_lanes += out.resimulated_lanes();
    *pulses += out.pulses_total();
    let untimed_entry = |(l, &(_, e)): (usize, &(u32, u32))| e != NO_ENTRY && !out.timed(l);
    if scratch.lanes.iter().enumerate().any(untimed_entry) {
        scratch.lane_pulses.resize(n, 0);
        out.pulses_per_lane(&mut scratch.lane_pulses[..n]);
    }
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
                    let groups = cycle_groups(&cycles, &scratch.te, batch.iter().copied());
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

    /// Widening the strike memo's `T_e` range keeps every entry under its
    /// group, rows grow by footprint id, and a pulse count that does not
    /// fit an entry is stored as timed.
    #[test]
    fn strike_memo_keeps_entries_as_it_grows() {
        let mut memo = StrikeMemo::default();
        memo.cover(10, 12);
        let e = memo.entry(11, 2);
        memo.settle(e, Some(7));
        let f = memo.entry(12, 0);
        memo.settle(f, None);
        memo.cover(8, 9);
        memo.cover(8, 15);
        assert_eq!((memo.te_lo, memo.te_len), (8, 8));
        let e = memo.entry(11, 2) as usize;
        assert_eq!(memo.table[e], 8);
        let f = memo.entry(12, 0) as usize;
        assert_eq!(memo.table[f], TIMED);
        let unseen = (memo.table.iter().filter(|&&v| v == UNSEEN)).count();
        assert_eq!(unseen, memo.table.len() - 2);
        let g = memo.entry(15, 40);
        assert_eq!(memo.table.len(), 41 * 8);
        assert!(memo.table.capacity() <= 64 * 8);
        memo.settle(g, Some(usize::from(PENDING) - 2));
        assert_eq!(memo.table[g as usize], PENDING - 1);
        memo.settle(g, Some(usize::from(PENDING) - 1));
        assert_eq!(memo.table[g as usize], TIMED);
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

    /// The strike memo's exactness on `f`'s support: for every
    /// `(t, center, radius)` group of all five goals whose compiled lane is
    /// untimed, the scalar kernel at each phase bin gives the footprint's
    /// DFFs as the registers in error (nothing latched) and the lane's
    /// pulse count. Debug builds check `t` in {1, 2, 25, 50}; release
    /// builds every `t`.
    #[test]
    fn strike_memo_phase_collapse_oracle() {
        let model = SystemModel::with_defaults().unwrap();
        let cfg = ExperimentConfig::default();
        let f = baseline_distribution(&model, &cfg);
        let cells = match &f.spatial {
            xlmc_fault::SpatialDist::UniformOverCells(cells) => cells.clone(),
            xlmc_fault::SpatialDist::Delta(g) => vec![*g],
        };
        let (t_min, t_max) = f.temporal.support();
        let frames: Vec<i64> = if cfg!(debug_assertions) {
            vec![1, 2, 25, 50]
        } else {
            (t_min..=t_max).collect()
        };
        let netlist = model.mpu.netlist();
        let program = netlist.program().unwrap();
        let transient = &model.transient;
        let period = transient.config().clock_period_ps;
        let mut out = CompiledStrikeOutcome::default();
        let (mut sscratch, mut sout) = (TransientScratch::default(), StrikeOutcome::default());
        let (mut struck, mut faulty) = (Vec::new(), Vec::new());
        let mut pulses = vec![0; WIDE_LANES];
        for workload in [
            workloads::illegal_write(),
            workloads::illegal_read(),
            workloads::dma_exfiltration(),
            workloads::trap_escalation(),
            workloads::instruction_skip(),
        ] {
            let eval = Evaluation::new(workload).unwrap();
            let window = model.golden_window(&eval.golden);
            // Cycle slots are named by `T_e`: one kernel scratch per run.
            let mut scratch = CompiledTransientScratch::default();
            let mut samples = Vec::new();
            for &t in &frames {
                for &center in &cells {
                    for &radius in f.radius.options() {
                        let s = AttackSample {
                            t,
                            center,
                            radius,
                            phase: 0,
                        };
                        let te = s.injection_cycle(eval.target_cycle);
                        if te.is_some_and(|te| te < eval.golden.cycles) {
                            samples.push(s);
                        }
                    }
                }
            }
            assert_eq!(samples.len(), frames.len() * cells.len() * 2);
            let (mut untimed, mut timed) = (0, 0);
            let mut lane_strikes = LaneStrikes::default();
            let mut values = CycleValues::default();
            for batch in samples.chunks(WIDE_LANES) {
                lane_strikes.clear();
                for s in batch {
                    lane_strikes.push_sample(s, &model.placement, program, period);
                }
                let te: Vec<Option<u64>> = batch
                    .iter()
                    .map(|s| s.injection_cycle(eval.target_cycle))
                    .collect();
                let groups = cycle_groups(&window, &te, 0..batch.len() as u32);
                let lanes = batch_lanes(&lane_strikes);
                transient.strike_compiled_with(
                    netlist,
                    program,
                    &groups,
                    &lanes,
                    &mut scratch,
                    &mut out,
                );
                out.pulses_per_lane(&mut pulses[..batch.len()]);
                for (l, s) in batch.iter().enumerate() {
                    if out.timed(l) {
                        timed += 1;
                        continue;
                    }
                    untimed += 1;
                    let (words, bit) = window.block(te[l].unwrap() as usize);
                    values.unpack_into(netlist, words, bit);
                    lane_strikes.struck_into(l, program, &mut struck);
                    let (fp, _) = lane_strikes.footprints(l);
                    let want: Vec<GateId> = fp
                        .dffs()
                        .iter()
                        .map(|&i| netlist.dffs()[i as usize])
                        .collect();
                    for phase in 0..xlmc_fault::sample::PHASE_BINS {
                        let at = AttackSample { phase, ..*s }.strike_time_ps(period);
                        transient.strike_with(
                            netlist,
                            &values,
                            &struck,
                            at,
                            &mut sscratch,
                            &mut sout,
                        );
                        let ctx = format!("{} {s:?} phase {phase}", eval.workload.name);
                        assert!(sout.latched_dffs.is_empty(), "{ctx}: latched");
                        sout.faulty_registers_into(&mut faulty);
                        assert_eq!(faulty, want, "{ctx}: registers in error");
                        assert_eq!(sout.pulses_propagated, pulses[l], "{ctx}: pulses");
                    }
                }
            }
            assert!(untimed > 0 && timed > 0, "{untimed} untimed, {timed} timed");
        }
    }

    /// Over a whole campaign's chunks on one worker scratch, as the strike
    /// memo warms up, every compiled partial equals the scalar partial, on
    /// all five goals under importance sampling: sweeps recall, hold and
    /// strike in every mix, and late sweeps strike few new groups.
    #[test]
    fn warm_strike_memo_chunks_match_scalar_chunks() {
        let model = SystemModel::with_defaults().unwrap();
        let cfg = ExperimentConfig::default();
        let prechar = Precharacterization::run(&model, cfg.t_max, cfg.max_radius());
        let strat = ImportanceSampling::new(
            baseline_distribution(&model, &cfg),
            &model,
            &prechar,
            cfg.alpha,
            cfg.beta,
            cfg.radius_options.clone(),
        );
        let chunks = if cfg!(debug_assertions) { 16 } else { 400 };
        for workload in [
            workloads::illegal_write(),
            workloads::illegal_read(),
            workloads::dma_exfiltration(),
            workloads::trap_escalation(),
            workloads::instruction_skip(),
        ] {
            let eval = Evaluation::new(workload).unwrap();
            let runner = FaultRunner {
                model: &model,
                eval: &eval,
                prechar: &prechar,
                hardening: None,
                multi_fault: None,
            };
            let window = model.golden_window(&eval.golden);
            let mut memo = ConclusionMemo::default();
            let mut scratch = BatchChunkScratch::default();
            let mut flow = FlowScratch::default();
            let mut ctr = CounterScratch::default();
            let sink = TraceSink::disabled();
            let (mut lanes, mut m) = (0, 0);
            for chunk in 0..chunks {
                let (start, end) = (chunk * 512, (chunk + 1) * 512);
                let c = run_chunk_compiled(
                    &runner,
                    &strat,
                    11,
                    start,
                    end,
                    &mut scratch,
                    &window,
                    &mut memo,
                    chunk as u32,
                    &mut ctr,
                    false,
                    &sink,
                    0,
                );
                let s = crate::estimator::scalar_chunk_for_tests(
                    &runner, &strat, 11, start, end, &mut flow,
                );
                let ctx = format!("{} chunk {chunk}", eval.workload.name);
                assert!(c.stats.mean() == s.stats.mean(), "{ctx} mean");
                assert!(c.stats.variance() == s.stats.variance(), "{ctx} var");
                assert_eq!(c.class_counts, s.class_counts, "{ctx}");
                assert_eq!(c.attribution, s.attribution, "{ctx}");
                assert_eq!(c.counters, s.counters, "{ctx}");
                lanes += c.kernel_counters.lanes_occupied;
                m += end - start - c.counters.out_of_run;
            }
            let hits = scratch.strike_memo_hits() as usize;
            assert!(hits > 0, "{}: the memo never engaged", eval.workload.name);
            assert_eq!(lanes + hits, m, "every in-run run is a lane or a hit");
        }
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
