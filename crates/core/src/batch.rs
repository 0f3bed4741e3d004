//! Packed campaign chunk execution over the compiled transient kernel.
//!
//! One chunk of runs is executed in five phases, each timed into the
//! chunk's [`PhaseTimes`]:
//!
//! 1. **Draw**: the strategy's
//!    [`draw_chunk`](crate::sampling::SamplingStrategy::draw_chunk) gives
//!    each run its sample, weight and RNG from `SplitMix64::for_run(seed,
//!    run_index)`, exactly as in the scalar engine — lane packing never
//!    touches the per-run random streams. In-run samples are then
//!    stratified by injection cycle, in `(T_e, run_index)` order, so runs
//!    sharing a frame land in the same sweep.
//! 2. **Lanes**: sweeps of up to [`WIDE_LANES`](xlmc_gatesim::WIDE_LANES)
//!    lanes are filled in that order. A run whose outcome the
//!    [`StrikeMemo`] already knows takes no lane: from a settled handle it
//!    writes its record at once, and under stochastic hardening an
//!    untimed group's run takes its registers.
//! 3. **Sweep**: each sweep propagates its lanes through
//!    [`TransientSim::strike_compiled_with`](xlmc_gatesim::transient::TransientSim)
//!    in one pass over the netlist's compiled program.
//! 4. **Conclude**: each lane's faulty registers, a packed set, go through
//!    the hardening/classification/resume pipeline with its own RNG, into
//!    the run's record: its verdict flags and conclusion-memo slot.
//! 5. **Fold**: the records are folded into the chunk partial by
//!    [`fold_chunk`], the scalar engine's fold, which takes the
//!    floating-point sums **in run-index order**, so the Welford/Chan
//!    statistics are bit-identical to the scalar engine's at any thread
//!    count and any lane assignment.

use std::time::Instant;

use xlmc_fault::sample::PHASE_BINS;
use xlmc_fault::{LaneStrikes, RadiationSpot};
use xlmc_gatesim::bitparallel::CycleWindow;
use xlmc_gatesim::{
    BatchLane, CompiledStrikeOutcome, CompiledTransientScratch, CycleGroup, CycleValues,
    StrikeOutcome, TransientScratch, WIDE_LANES,
};
use xlmc_netlist::{GateId, GateProgram};

use crate::estimator::{fold_chunk, lap, CampaignKernel, ChunkPartial, ChunkRuns};
use crate::flow::{DffMask, FaultRunner, RunRecord, MASKED_SLOT};
use crate::metrics::{LatencyHist, LatencyShard, PhaseTimes};
use crate::resume::{ConclusionMemo, ResumeStats, RtlResume};
use crate::sampling::SamplingStrategy;
use crate::trace::{CounterScratch, KernelCounters, TraceSink};
use rand::RngCore;

/// A lane that records nothing in the strike memo.
const NO_ENTRY: u32 = u32::MAX;
/// Footprint rows the strike memo grows by.
const MEMO_ROW_BLOCK: usize = 32;

/// What the strike memo knows of one `(T_e, footprint)` group, or of one
/// phase bin of a timed group.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Outcome {
    /// No sweep has struck it yet.
    #[default]
    Unseen,
    /// Its first lane is in the sweep being filled, which settles it
    /// before the chunk goes on.
    Pending,
    /// Every run of it ends the same way: its pulse count, and the
    /// conclusion-memo slot of its post-hardening registers
    /// ([`MASKED_SLOT`] for none). Only where the outcome is a fixed
    /// function of the sample ([`FaultRunner::outcome_is_fixed`]).
    Settled { pulses: u16, slot: u32 },
    /// An untimed group under stochastic hardening: its pulse count. Each
    /// run takes the footprint's upset DFFs as its registers and draws its
    /// own hardening filter.
    Untimed { pulses: u16 },
    /// A timed group whose outcome is fixed: the row of its per-phase
    /// outcomes.
    Timed { row: u32 },
    /// Every run of it takes a lane: a timed group under stochastic
    /// hardening, or a pulse count too large for an entry.
    Sweep,
}

const _: () = assert!(std::mem::size_of::<Outcome>() == 8);

/// The outcome memo of the compiled kernel: what the sweeps found per
/// `(T_e, footprint)` group, and, once a group's first lane is concluded,
/// a handle to how its runs end.
///
/// Whether a lane is timed is decided by the kernel's logical pass from
/// the golden values at `T_e` and the footprint alone, never from the
/// strike phase, and an untimed lane latches nothing
/// ([`CompiledStrikeOutcome::timed`]). So every run of an untimed group
/// has the footprint's upset DFFs as its registers in error and the
/// group's pulse count, whatever its phase; a timed group's registers and
/// pulses are a function of its phase bin. Where the hardening is absent
/// or deterministic and there is one glitch spot, the post-hardening
/// registers, and so the conclusion, follow too: a later run of the group
/// (of the same phase, for a timed group) writes its record from the
/// [`Outcome::Settled`] handle, a conclusion-memo slot, with no lane,
/// filter or hash probe. Under stochastic hardening an untimed group's
/// runs skip only the lane, and a timed group always sweeps.
///
/// The table is dense, one row per footprint id of the worker's
/// [`LaneStrikes`] and one column per `T_e` in the range the campaign's
/// chunks have drawn: a hundred kilobytes or so for a whole campaign. One
/// per worker and campaign, like the footprint ids it is indexed by and
/// the conclusion memo its slots name.
#[derive(Debug, Default)]
struct StrikeMemo {
    /// The `T_e` of column 0.
    te_lo: u64,
    /// Columns per row.
    te_len: usize,
    table: Vec<Outcome>,
    /// Per timed group with a fixed outcome, its outcome per phase bin.
    phases: Vec<[Outcome; PHASE_BINS as usize]>,
    /// Runs concluded without a lane.
    hits: u64,
    /// Of those, runs whose record came from a [`Outcome::Settled`] handle.
    handle_recalls: u64,
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
        table.resize(rows * len, Outcome::Unseen);
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
            self.table.resize(rows * self.te_len, Outcome::Unseen);
        }
        (spot as usize * self.te_len + (te - self.te_lo) as usize) as u32
    }

    /// The outcome a run of phase `phase` meets at entry `e`: the group's,
    /// or its phase bin's for a timed group with a fixed outcome.
    fn outcome(&mut self, e: u32, phase: u8) -> &mut Outcome {
        match self.table[e as usize] {
            Outcome::Timed { row } => &mut self.phases[row as usize][usize::from(phase)],
            _ => &mut self.table[e as usize],
        }
    }

    /// Record what a swept lane of phase `phase` found for entry `e`: its
    /// pulse count, whether it was timed, and, when the outcome is fixed,
    /// the conclusion slot of its registers (`None` under stochastic
    /// hardening).
    fn settle(&mut self, e: u32, phase: u8, pulses: usize, timed: bool, slot: Option<u32>) {
        let pulses = u16::try_from(pulses).ok();
        let settled = match (slot, pulses) {
            (Some(slot), Some(pulses)) => Outcome::Settled { pulses, slot },
            (None, Some(pulses)) if !timed => Outcome::Untimed { pulses },
            _ => Outcome::Sweep,
        };
        let entry = &mut self.table[e as usize];
        if *entry == Outcome::Pending && timed && slot.is_some() {
            // A timed group's first lane: its other phases start unseen.
            let mut row = [Outcome::Unseen; PHASE_BINS as usize];
            row[usize::from(phase)] = settled;
            *entry = Outcome::Timed {
                row: u32::try_from(self.phases.len()).expect("timed groups beyond u32"),
            };
            self.phases.push(row);
            return;
        }
        let at = self.outcome(e, phase);
        debug_assert_eq!(*at, Outcome::Pending, "a lane settles a pending outcome");
        *at = settled;
    }
}

/// Reusable per-worker buffers for [`run_chunk_compiled`]. Like
/// [`FlowScratch`](crate::flow::FlowScratch), the RTL resume state —
/// and the compiled kernel's cycle slots, named by `T_e` — is valid against
/// one `(model, evaluation, prechar)` triple only.
#[derive(Default)]
pub(crate) struct BatchChunkScratch {
    runs: ChunkRuns,
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
    /// Runs of the sweep being filled that recall an untimed group's
    /// registers under stochastic hardening, each with its registers in
    /// error.
    recalled: Vec<(u32, DffMask)>,
    /// Per lane of the last sweep: its pulse count.
    lane_pulses: Vec<usize>,
    strike_memo: StrikeMemo,
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

    /// Of [`strike_memo_hits`](Self::strike_memo_hits), the runs whose
    /// record came from a settled outcome handle.
    pub(crate) fn handle_recalls(&self) -> u64 {
        self.strike_memo.handle_recalls
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

/// Phase 1: the chunk's draws, identical to the scalar engine's, then
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
    let ChunkRuns { draws, te, records } = &mut scratch.runs;
    strategy.draw_chunk(seed, start as u64..end as u64, draws);
    let (target, golden_cycles) = (runner.eval.target_cycle, runner.eval.golden.cycles);
    te.clear();
    te.extend(draws.iter().map(|d| {
        let te = d.sample.injection_cycle(target);
        te.filter(|&te| te < golden_cycles)
    }));
    // Out-of-run: masked without a strike, like the scalar path. Every
    // in-run record is written when its run concludes.
    records.clear();
    records.resize(draws.len(), RunRecord::MASKED);
    stratify(te, &mut scratch.order, &mut scratch.te_counts)
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
/// into its record. Returns the conclusion-memo slot of its post-hardening
/// registers, [`MASKED_SLOT`] for none.
fn conclude_lane(
    runner: &FaultRunner<'_>,
    scratch: &mut BatchChunkScratch,
    memo: &mut ConclusionMemo,
    chunk: u32,
    ri: usize,
    mut regs: DffMask,
) -> u32 {
    let runs = &mut scratch.runs;
    let te = runs.te[ri].expect("struck runs inject inside the run");
    runner.harden(&mut regs, &mut runs.draws[ri].rng);
    let record = runner.conclude_with(te, regs, &mut scratch.ff, memo, Some(chunk));
    runs.records[ri] = record;
    record.slot
}

/// Execute runs `start..end` through the 256-wide compiled-program kernel.
///
/// Produces the same [`ChunkPartial`] as the scalar
/// [`run_chunk`](crate::estimator) bit-for-bit: per-run samples, weights,
/// strike outcomes, hardening draws and the fold order are all identical;
/// only the transient propagation is shared across lanes, up to
/// [`WIDE_LANES`] runs per sweep of the netlist's levelized
/// [`GateProgram`](xlmc_netlist::GateProgram), and a run whose outcome the
/// worker's [`StrikeMemo`] already knows takes it without a lane. Which
/// runs share a sweep, and so the [`KernelCounters`], depends on what the
/// worker struck before; no result does. `memo` must be the conclusion
/// memo of every earlier chunk on `scratch`: the strike memo's handles
/// are its slots.
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
    let mut clock = Instant::now();
    let mut phases = PhaseTimes::default();
    let draw_span = sink.span_on(tid, "chunk", "draw");
    if let Some((lo, hi)) = draw_and_stratify(runner, strategy, seed, start, end, scratch) {
        scratch.strike_memo.cover(lo, hi);
    }
    drop(draw_span);
    phases.draw_s = lap(&mut clock);

    let period = runner.model.transient.config().clock_period_ps;
    let program = runner
        .model
        .mpu
        .netlist()
        .program()
        .expect("model netlist was levelized at construction");
    let fixed = runner.outcome_is_fixed();
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
            pulses += strike_or_recall(runner, scratch, memo, chunk, program, period, ri);
        }
        phases.lanes_s += lap(&mut clock);
        if !scratch.lanes.is_empty() {
            sweep(runner, scratch, cycles, program, &mut kc, &mut pulses);
        }
        drop(strike_span);
        phases.sweep_s += lap(&mut clock);

        let conclude_span = sink.span_on(tid, "chunk", "conclude");
        for lane in 0..scratch.lanes.len() {
            let (ri, e) = scratch.lanes[lane];
            let regs = DffMask::from_words(scratch.strike_out.faulty_words(lane));
            let slot = conclude_lane(runner, scratch, memo, chunk, ri as usize, regs);
            if e != NO_ENTRY {
                let phase = scratch.runs.draws[ri as usize].sample.phase;
                let timed = scratch.strike_out.timed(lane);
                let pulses = scratch.lane_pulses[lane];
                let slot = fixed.then_some(slot);
                scratch.strike_memo.settle(e, phase, pulses, timed, slot);
            }
        }
        for k in 0..scratch.recalled.len() {
            let (ri, regs) = scratch.recalled[k];
            conclude_lane(runner, scratch, memo, chunk, ri as usize, regs);
        }
        drop(conclude_span);
        phases.conclude_s += lap(&mut clock);
        if scratch.lanes.is_empty() {
            break;
        }
        let BatchChunkScratch { held, ready, .. } = scratch;
        ready.extend(held.drain(..));
    }

    // The scalar kernel's fold. The pulse counter takes the sweeps' totals
    // and the recalled groups' counts rather than per-run counts.
    let fold_span = sink.span_on(tid, "chunk", "fold");
    let dff_bits = runner.model.mpu.dff_bits();
    let first = start as u64;
    let mut p = fold_chunk(ctr, &scratch.runs, first, memo, dff_bits, record_provenance);
    p.counters.pulses_propagated = pulses;
    p.kernel_counters = kc;
    drop(fold_span);
    phases.fold_s = lap(&mut clock);
    p.latency.phases = phases;
    p
}

/// Give run `ri` a lane in the sweep being filled, or hold it until that
/// sweep resolves its group, or recall its outcome: from a settled handle
/// straight into its record, or, under stochastic hardening, an untimed
/// group's registers into `scratch.recalled`. Returns the pulses a
/// recalled run propagates.
fn strike_or_recall(
    runner: &FaultRunner<'_>,
    scratch: &mut BatchChunkScratch,
    memo: &mut ConclusionMemo,
    chunk: u32,
    program: &GateProgram,
    period: f64,
    ri: u32,
) -> usize {
    let placement = &runner.model.placement;
    let draw = &mut scratch.runs.draws[ri as usize];
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
    let te = scratch.runs.te[ri as usize].expect("struck runs inject inside the run");
    let spot = RadiationSpot {
        center: draw.sample.center,
        radius: draw.sample.radius,
    };
    let spot = scratch.lane_strikes.spot_id(&spot, placement, program);
    let e = scratch.strike_memo.entry(te, spot);
    let outcome = scratch.strike_memo.outcome(e, draw.sample.phase);
    let settles = match *outcome {
        Outcome::Unseen => {
            *outcome = Outcome::Pending;
            e
        }
        Outcome::Pending => {
            scratch.held.push(ri);
            return 0;
        }
        Outcome::Sweep => NO_ENTRY,
        Outcome::Timed { .. } => unreachable!("a timed entry resolves to its phase bin"),
        Outcome::Settled { pulses, slot } => {
            scratch.strike_memo.hits += 1;
            scratch.strike_memo.handle_recalls += 1;
            scratch.runs.records[ri as usize] = match slot {
                MASKED_SLOT => RunRecord::MASKED,
                slot => {
                    let (s, first) = memo.recall(slot, chunk);
                    RunRecord::concluded(slot, s.verdict, first)
                }
            };
            return usize::from(pulses);
        }
        Outcome::Untimed { pulses } => {
            scratch.strike_memo.hits += 1;
            let upset = scratch.lane_strikes.footprint(spot).dffs().iter();
            let regs = upset.map(|&i| i as usize).collect();
            scratch.recalled.push((ri, regs));
            return usize::from(pulses);
        }
    };
    let time = draw.sample.strike_time_ps(period);
    scratch.lane_strikes.push_lane(spot, None, time);
    scratch.lanes.push((ri, settles));
    0
}

/// Strike the filled sweep's lanes, count the sweep into `kc` and
/// `pulses`, and leave each lane's pulse count in `scratch.lane_pulses`
/// when a lane settles a strike-memo entry.
fn sweep(
    runner: &FaultRunner<'_>,
    scratch: &mut BatchChunkScratch,
    cycles: &CycleWindow,
    program: &GateProgram,
    kc: &mut KernelCounters,
    pulses: &mut usize,
) {
    let n = scratch.lanes.len();
    let groups = cycle_groups(
        cycles,
        &scratch.runs.te,
        scratch.lanes.iter().map(|&(ri, _)| ri),
    );
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
    if scratch.lanes.iter().any(|&(_, e)| e != NO_ENTRY) {
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
            let te = scratch.runs.te[ri as usize].unwrap() as usize;
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
                    let te = scratch.runs.te[ri].unwrap();
                    scratch.lane_strikes.clear();
                    scratch.lane_strikes.push_sample(
                        &scratch.runs.draws[ri].sample,
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
                            &scratch.runs.draws[ri as usize].sample,
                            &runner.model.placement,
                            program,
                            period,
                        );
                    }
                    let groups = cycle_groups(&cycles, &scratch.runs.te, batch.iter().copied());
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
    use crate::flow::{FlowScratch, StrikeClass};
    use crate::harden::{DupConfigVote, HardenedSet, HardenedVariant, HardeningModel, ScfiFsm};
    use crate::model::{Evaluation, SystemModel};
    use crate::precharacterize::Precharacterization;
    use crate::rng::SplitMix64;
    use crate::sampling::{
        baseline_distribution, ConeSampling, ExperimentConfig, ImportanceSampling, RandomSampling,
    };
    use xlmc_fault::AttackSample;
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
    /// group, rows grow by footprint id, a timed group's first lane opens
    /// its per-phase row, and an outcome that cannot be kept is swept.
    #[test]
    fn strike_memo_keeps_entries_as_it_grows() {
        let mut memo = StrikeMemo::default();
        let settle = |memo: &mut StrikeMemo, e, phase, pulses, timed, slot| {
            *memo.outcome(e, phase) = Outcome::Pending;
            memo.settle(e, phase, pulses, timed, slot);
        };
        memo.cover(10, 12);
        let e = memo.entry(11, 2);
        settle(&mut memo, e, 0, 7, false, Some(3));
        let f = memo.entry(12, 0);
        settle(&mut memo, f, 5, 9, true, Some(4));
        memo.cover(8, 9);
        memo.cover(8, 15);
        assert_eq!((memo.te_lo, memo.te_len), (8, 8));
        // An untimed group answers every phase; a timed one per phase.
        let e = memo.entry(11, 2);
        let untimed = Outcome::Settled { pulses: 7, slot: 3 };
        assert_eq!(memo.table[e as usize], untimed);
        assert_eq!(*memo.outcome(e, 6), untimed);
        let f = memo.entry(12, 0);
        assert_eq!(memo.table[f as usize], Outcome::Timed { row: 0 });
        assert_eq!(*memo.outcome(f, 5), Outcome::Settled { pulses: 9, slot: 4 });
        assert_eq!(*memo.outcome(f, 4), Outcome::Unseen);
        settle(&mut memo, f, 4, 2, true, Some(MASKED_SLOT));
        let masked = Outcome::Settled {
            pulses: 2,
            slot: MASKED_SLOT,
        };
        assert_eq!(*memo.outcome(f, 4), masked);
        assert_eq!(memo.phases.len(), 1);
        let unseen = (memo.table.iter().filter(|&&v| v == Outcome::Unseen)).count();
        assert_eq!(unseen, memo.table.len() - 2);
        let g = memo.entry(15, 40);
        assert_eq!(memo.table.len(), 41 * 8);
        assert!(memo.table.capacity() <= 64 * 8);
        // Stochastic hardening keeps an untimed group's pulses and sweeps a
        // timed one; so does a pulse count too large for an entry.
        settle(&mut memo, g, 1, usize::from(u16::MAX), false, None);
        assert_eq!(
            memo.table[g as usize],
            Outcome::Untimed { pulses: u16::MAX }
        );
        let h = memo.entry(14, 40);
        settle(&mut memo, h, 1, 3, true, None);
        assert_eq!(memo.table[h as usize], Outcome::Sweep);
        let k = memo.entry(13, 40);
        settle(&mut memo, k, 1, usize::from(u16::MAX) + 1, false, Some(0));
        assert_eq!(memo.table[k as usize], Outcome::Sweep);
        assert_eq!(memo.phases.len(), 1);
    }

    /// One run's observables as the lane-equivalence tests compare them:
    /// `(success, class, analytic, post-hardening bits, weight)`.
    type Observed = (bool, StrikeClass, bool, Vec<xlmc_soc::MpuBit>, f64);

    /// Runs `0..n` of `strat` at `seed` on the scalar engine, one at a time.
    fn scalar_runs(
        runner: &FaultRunner<'_>,
        strat: &dyn SamplingStrategy,
        seed: u64,
        n: usize,
    ) -> Vec<Observed> {
        let mut flow = FlowScratch::default();
        (0..n)
            .map(|i| {
                let mut rng = SplitMix64::for_run(seed, i as u64);
                let sample = strat.draw(&mut rng);
                let w = strat.weight(&sample);
                let out = runner.run_with(&sample, &mut rng, &mut flow);
                let bits = out.faulty_bits.to_vec();
                (out.success, out.class, out.analytic, bits, w)
            })
            .collect()
    }

    /// Run `i` of the last chunk executed on `scratch` as the
    /// lane-equivalence tests compare it; `memo` is the chunk's conclusion
    /// memo.
    fn recorded(
        scratch: &BatchChunkScratch,
        runner: &FaultRunner<'_>,
        memo: &ConclusionMemo,
        i: usize,
    ) -> Observed {
        let r = &scratch.runs.records[i];
        let mut bits = Vec::new();
        if r.slot != MASKED_SLOT {
            runner.bits_into(memo.slot(r.slot).regs, &mut bits);
        }
        (
            r.success,
            r.class,
            r.analytic,
            bits,
            scratch.runs.draws[i].w,
        )
    }

    /// Runs `0..n` of `strat` at `seed` through one compiled scratch and
    /// conclusion memo twice, as chunks 0 and 1, so the second pass meets
    /// every group the first one settled. Returns both passes' runs and the
    /// runs the second pass took from an outcome handle.
    fn compiled_twice(
        runner: &FaultRunner<'_>,
        strat: &dyn SamplingStrategy,
        seed: u64,
        n: usize,
    ) -> ([Vec<Observed>; 2], u64) {
        let window = runner.model.golden_window(&runner.eval.golden);
        let mut memo = ConclusionMemo::default();
        let mut scratch = BatchChunkScratch::default();
        let mut ctr = CounterScratch::default();
        let sink = TraceSink::disabled();
        let mut pass = |chunk| {
            run_chunk_compiled(
                runner,
                strat,
                seed,
                0,
                n,
                &mut scratch,
                &window,
                &mut memo,
                chunk,
                &mut ctr,
                false,
                &sink,
                0,
            );
            let runs = (0..n)
                .map(|i| recorded(&scratch, runner, &memo, i))
                .collect();
            (runs, scratch.handle_recalls())
        };
        let (first, before) = pass(0);
        let (second, after) = pass(1);
        ([first, second], after - before)
    }

    /// Both compiled passes of [`compiled_twice`] equal `want` run by run,
    /// and outcome handles engage exactly where the outcome is fixed.
    fn check_twice(
        runner: &FaultRunner<'_>,
        strat: &dyn SamplingStrategy,
        seed: u64,
        want: &[Observed],
        ctx: &str,
    ) {
        let (passes, recalls) = compiled_twice(runner, strat, seed, want.len());
        for (pass, got) in passes.iter().enumerate() {
            for (i, (got, want)) in got.iter().zip(want).enumerate() {
                assert_eq!(got, want, "{ctx} pass {pass} run {i}");
            }
        }
        assert_eq!(recalls > 0, runner.outcome_is_fixed(), "{ctx}: {recalls}");
    }

    /// The lane-equivalence property at system level: for every run of a
    /// full chunk, the compiled kernel's (outcome, weight) is bit-identical
    /// to the scalar engine's — across all three sampling strategies, with
    /// and without the randomized hardening countermeasure (which exercises
    /// the per-lane RNG hand-off), cold and with every group settled.
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
                    let want = scalar_runs(&runner, strat.as_ref(), seed, 200);
                    let ctx = format!(
                        "strategy {} seed {seed} hardened {}",
                        strat.name(),
                        hardening.is_some()
                    );
                    check_twice(&runner, strat.as_ref(), seed, &want, &ctx);
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
                // 300 runs crosses the 256-lane boundary.
                let want = scalar_runs(&runner, &strat, 41, 300);
                let ctx = format!(
                    "workload {} hardened {}",
                    runner.eval.workload.name,
                    hardening.is_some()
                );
                check_twice(&runner, &strat, 41, &want, &ctx);
            }
        }
    }

    /// Under the double-glitch mode the compiled kernel still reproduces
    /// the scalar engine run by run: the second-spot entropy word is drawn
    /// at the same per-run stream position in both kernels, so lane
    /// packing never perturbs the second strike (or the hardening draws
    /// that follow it on the same stream). The double glitch takes no
    /// outcome handle.
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
            let want = scalar_runs(&runner, &strat, 23, 300);
            let ctx = format!("hardened={}", hardening.is_some());
            check_twice(&runner, &strat, 23, &want, &ctx);
        }
    }

    /// The compiled engine reproduces the scalar engine run by run on all
    /// five goals under the deterministic voter (the sweep grid's defense,
    /// whose runs take outcome handles) and the stochastic SCFI code (whose
    /// runs do not), with one and two glitch spots. Both keep the hardening
    /// filter's draw order: one `flip_survives` per candidate bit in
    /// ascending DFF `GateId` order, checked against that filter applied to
    /// the unhardened strike's bits.
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
                    let bare = FaultRunner {
                        hardening: None,
                        ..runner
                    };
                    let want = scalar_runs(&runner, &strat, seed, n);
                    let ctx = format!(
                        "workload {} {} double={}",
                        runner.eval.workload.name,
                        defense.name(),
                        multi_fault.is_some()
                    );
                    let mut flow = FlowScratch::default();
                    for (i, want) in want.iter().enumerate() {
                        // The filter's oracle: the unhardened strike's bits
                        // by DFF gate id, one survival draw per candidate
                        // right after the strike's own stream use.
                        let mut rng = SplitMix64::for_run(seed, i as u64);
                        let sample = strat.draw(&mut rng);
                        let mut filtered = bare
                            .run_with(&sample, &mut rng, &mut flow)
                            .faulty_bits
                            .to_vec();
                        filtered.sort_by_key(|&b| model.mpu.dff(b));
                        multi_bit_candidates += usize::from(filtered.len() > 1);
                        filtered.retain(|&b| defense.flip_survives(b, &mut rng));
                        assert_eq!(want.3, filtered, "{ctx} run {i}");
                    }
                    check_twice(&runner, &strat, seed, &want, &ctx);
                }
            }
        }
        assert!(
            multi_bit_candidates > 0,
            "some run must put several registers through the filter"
        );
    }

    /// The outcome memo's exactness on `f`'s support, on all five goals.
    /// For every `(t, center, radius)` group whose compiled lane is
    /// untimed, the scalar kernel at each phase bin gives the footprint's
    /// DFFs as the registers in error (nothing latched) and the lane's
    /// pulse count: one outcome for the whole group. For every timed
    /// group, the compiled lane of each phase bin gives the scalar
    /// kernel's registers in error and pulse count at that phase: one
    /// outcome per phase bin. Debug builds check `t` in {1, 2, 25, 50};
    /// release builds every `t`.
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
        let (mut struck, mut faulty, mut lane_faulty) = (Vec::new(), Vec::new(), Vec::new());
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
            let mut timed = Vec::new();
            let mut lane_strikes = LaneStrikes::default();
            let mut values = CycleValues::default();
            // Strike `batch` in one sweep; per lane, its `T_e`.
            let mut sweep_batch = |batch: &[AttackSample],
                                   lane_strikes: &mut LaneStrikes,
                                   out: &mut CompiledStrikeOutcome,
                                   pulses: &mut [usize]| {
                lane_strikes.clear();
                for s in batch {
                    lane_strikes.push_sample(s, &model.placement, program, period);
                }
                let te: Vec<Option<u64>> = batch
                    .iter()
                    .map(|s| s.injection_cycle(eval.target_cycle))
                    .collect();
                let groups = cycle_groups(&window, &te, 0..batch.len() as u32);
                let lanes = batch_lanes(lane_strikes);
                transient.strike_compiled_with(
                    netlist,
                    program,
                    &groups,
                    &lanes,
                    &mut scratch,
                    out,
                );
                out.pulses_per_lane(&mut pulses[..batch.len()]);
                te
            };
            for batch in samples.chunks(WIDE_LANES) {
                let te = sweep_batch(batch, &mut lane_strikes, &mut out, &mut pulses);
                for (l, s) in batch.iter().enumerate() {
                    if out.timed(l) {
                        timed.push(*s);
                        continue;
                    }
                    let (words, bit) = window.block(te[l].unwrap() as usize);
                    values.unpack_into(netlist, words, bit);
                    lane_strikes.struck_into(l, program, &mut struck);
                    let (fp, _) = lane_strikes.footprints(l);
                    let want: Vec<GateId> = fp
                        .dffs()
                        .iter()
                        .map(|&i| netlist.dffs()[i as usize])
                        .collect();
                    for phase in 0..PHASE_BINS {
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
            let untimed = samples.len() - timed.len();
            assert!(
                untimed > 0 && !timed.is_empty(),
                "{untimed} untimed, {}",
                timed.len()
            );
            // Every phase bin of every timed group, consecutive so each
            // group's `T_e` stays contiguous in a sweep.
            let per_phase: Vec<AttackSample> = timed
                .iter()
                .flat_map(|s| (0..PHASE_BINS).map(move |phase| AttackSample { phase, ..*s }))
                .collect();
            for batch in per_phase.chunks(WIDE_LANES) {
                let te = sweep_batch(batch, &mut lane_strikes, &mut out, &mut pulses);
                for (l, s) in batch.iter().enumerate() {
                    let ctx = format!("{} {s:?}", eval.workload.name);
                    assert!(out.timed(l), "{ctx}: timed at every phase");
                    let (words, bit) = window.block(te[l].unwrap() as usize);
                    values.unpack_into(netlist, words, bit);
                    lane_strikes.struck_into(l, program, &mut struck);
                    let at = s.strike_time_ps(period);
                    transient.strike_with(netlist, &values, &struck, at, &mut sscratch, &mut sout);
                    sout.faulty_registers_into(&mut faulty);
                    out.faulty_registers_into(netlist, l, &mut lane_faulty);
                    assert_eq!(lane_faulty, faulty, "{ctx}: registers in error");
                    assert_eq!(sout.pulses_propagated, pulses[l], "{ctx}: pulses");
                }
            }
        }
    }

    /// Over a whole campaign's chunks on one worker scratch, as the strike
    /// memo warms up, every compiled partial equals the scalar partial, on
    /// all five goals under importance sampling, with no defense and the
    /// voter (outcome handles) and the stochastic SCFI code (register
    /// recalls): sweeps recall, hold and strike in every mix, and late
    /// sweeps strike few new groups.
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
        let vote = HardenedVariant::DupConfigVote(DupConfigVote::new());
        let scfi = HardenedVariant::ScfiFsm(ScfiFsm::with_miss_rate(0.5));
        let chunks = if cfg!(debug_assertions) { 16 } else { 400 };
        for workload in [
            workloads::illegal_write(),
            workloads::illegal_read(),
            workloads::dma_exfiltration(),
            workloads::trap_escalation(),
            workloads::instruction_skip(),
        ] {
            let eval = Evaluation::new(workload).unwrap();
            for hardening in [None, Some(&vote), Some(&scfi)] {
                let runner = FaultRunner {
                    model: &model,
                    eval: &eval,
                    prechar: &prechar,
                    hardening,
                    multi_fault: None,
                };
                let window = model.golden_window(&eval.golden);
                let mut memo = ConclusionMemo::default();
                let mut scratch = BatchChunkScratch::default();
                let mut flow = FlowScratch::default();
                let mut ctr = CounterScratch::default();
                let sink = TraceSink::disabled();
                let (mut lanes, mut m) = (0, 0);
                let name = format!(
                    "{} {}",
                    eval.workload.name,
                    hardening.map_or("none", HardenedVariant::name)
                );
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
                    let ctx = format!("{name} chunk {chunk}");
                    assert!(c.stats.mean() == s.stats.mean(), "{ctx} mean");
                    assert!(c.stats.variance() == s.stats.variance(), "{ctx} var");
                    assert_eq!(c.class_counts, s.class_counts, "{ctx}");
                    assert_eq!(c.attribution, s.attribution, "{ctx}");
                    assert_eq!(c.counters, s.counters, "{ctx}");
                    lanes += c.kernel_counters.lanes_occupied;
                    m += end - start - c.counters.out_of_run;
                }
                let hits = scratch.strike_memo_hits() as usize;
                let recalls = scratch.handle_recalls() as usize;
                assert!(hits > 0, "{name}: the memo never engaged");
                assert_eq!(
                    lanes + hits,
                    m,
                    "{name}: every in-run run is a lane or a hit"
                );
                let want = if runner.outcome_is_fixed() { hits } else { 0 };
                assert_eq!(recalls, want, "{name}: handle recalls");
            }
        }
    }

    /// Every field of two chunk partials, `f64`s by bits.
    fn assert_same_partial(got: &ChunkPartial, want: &ChunkPartial, ctx: &str) {
        let raw = |s: &crate::stats::RunningStats| {
            let (n, mean, m2) = s.to_raw();
            (n, mean.to_bits(), m2.to_bits())
        };
        let attribution = |p: &ChunkPartial| {
            let mut map = std::collections::BTreeMap::new();
            p.attribution.merge_into(&mut map);
            map.into_iter()
                .map(|(b, w)| (b, w.to_bits()))
                .collect::<Vec<_>>()
        };
        let weights = |p: &ChunkPartial| {
            let w: Vec<u64> = p.provenance.iter().map(|r| r.weight.to_bits()).collect();
            (w, p.w_sum.to_bits(), p.w_sq_sum.to_bits())
        };
        assert_eq!(got.level, want.level, "{ctx}: level");
        assert_eq!(raw(&got.stats), raw(&want.stats), "{ctx}: stats");
        assert_eq!(raw(&got.gate_stats), raw(&want.gate_stats), "{ctx}");
        assert_eq!(raw(&got.rtl_stats), raw(&want.rtl_stats), "{ctx}");
        assert_eq!(got.class_counts, want.class_counts, "{ctx}: classes");
        assert_eq!(got.analytic_runs, want.analytic_runs, "{ctx}: analytic");
        assert_eq!(got.rtl_runs, want.rtl_runs, "{ctx}: rtl");
        assert_eq!(got.successes, want.successes, "{ctx}: successes");
        assert_eq!(attribution(got), attribution(want), "{ctx}: attribution");
        assert_eq!(weights(got), weights(want), "{ctx}: weights");
        assert_eq!(got.counters, want.counters, "{ctx}: counters");
        assert_eq!(got.kernel_counters, want.kernel_counters, "{ctx}");
        assert_eq!(got.first_success, want.first_success, "{ctx}");
        assert_eq!(got.provenance, want.provenance, "{ctx}: provenance");
    }

    /// The chunk fold equals the per-run fold it replaced, field by field
    /// and `f64`s by bits, on the compiled chunks of all five goals under
    /// no defense, the voter, the uniform hardened set, the SCFI code and
    /// the double glitch: a cold chunk, then warm ones on the same worker's
    /// memos (outcome handles engaged where the outcome is fixed), each
    /// folded with provenance off and on. The kernel's own partial is the
    /// fold without provenance plus its pulse and kernel counters.
    #[test]
    fn fold_chunk_matches_the_per_run_fold() {
        let model = SystemModel::with_defaults().unwrap();
        let cfg = ExperimentConfig::default();
        let prechar = Precharacterization::run(&model, cfg.t_max, cfg.max_radius());
        let fd = baseline_distribution(&model, &cfg);
        let strat = ImportanceSampling::new(
            fd.clone(),
            &model,
            &prechar,
            cfg.alpha,
            cfg.beta,
            cfg.radius_options.clone(),
        );
        let glitch = xlmc_fault::DoubleGlitch::new(fd.spatial.clone(), fd.radius.clone());
        let vote = HardenedVariant::DupConfigVote(DupConfigVote::new());
        let uniform = HardenedVariant::Uniform(HardenedSet::new(
            [xlmc_soc::MpuBit::Violation, xlmc_soc::MpuBit::Enable],
            HardeningModel::default(),
        ));
        let scfi = HardenedVariant::ScfiFsm(ScfiFsm::with_miss_rate(0.5));
        let cases = [
            ("none", None, None),
            ("dup_config_vote", Some(&vote), None),
            ("uniform", Some(&uniform), None),
            ("scfi_fsm", Some(&scfi), None),
            ("double", None, Some(&glitch)),
        ];
        let dff_bits = model.mpu.dff_bits();
        let mut attributed = 0;
        for workload in [
            workloads::illegal_write(),
            workloads::illegal_read(),
            workloads::dma_exfiltration(),
            workloads::trap_escalation(),
            workloads::instruction_skip(),
        ] {
            let eval = Evaluation::new(workload).unwrap();
            let window = model.golden_window(&eval.golden);
            for (defense, hardening, multi_fault) in cases {
                let runner = FaultRunner {
                    model: &model,
                    eval: &eval,
                    prechar: &prechar,
                    hardening,
                    multi_fault,
                };
                let mut memo = ConclusionMemo::default();
                let mut scratch = BatchChunkScratch::default();
                let mut ctr = CounterScratch::default();
                let sink = TraceSink::disabled();
                for chunk in 0..3u32 {
                    let start = chunk as usize * 512;
                    let kernel = run_chunk_compiled(
                        &runner,
                        &strat,
                        5,
                        start,
                        start + 512,
                        &mut scratch,
                        &window,
                        &mut memo,
                        chunk,
                        &mut ctr,
                        false,
                        &sink,
                        0,
                    );
                    let runs = &scratch.runs;
                    for provenance in [false, true] {
                        let ctx = format!(
                            "{} {defense} chunk {chunk} provenance {provenance}",
                            eval.workload.name
                        );
                        let mut fresh = CounterScratch::default();
                        let first = start as u64;
                        let got = fold_chunk(&mut fresh, runs, first, &memo, dff_bits, provenance);
                        let mut want = ChunkPartial {
                            level: crate::multilevel::LEVEL_GATE,
                            ..ChunkPartial::default()
                        };
                        fresh.begin_chunk();
                        for (i, r) in runs.records.iter().enumerate() {
                            let regs = match r.slot {
                                MASKED_SLOT => DffMask::EMPTY,
                                slot => memo.slot(slot).regs,
                            };
                            crate::estimator::fold_run(
                                &mut want,
                                &mut fresh,
                                (start + i) as u64,
                                &runs.draws[i],
                                runs.te[i],
                                r,
                                regs,
                                dff_bits,
                                provenance,
                            );
                        }
                        assert_same_partial(&got, &want, &ctx);
                        if !provenance {
                            want.counters.pulses_propagated = kernel.counters.pulses_propagated;
                            want.kernel_counters = kernel.kernel_counters;
                            assert_same_partial(&kernel, &want, &format!("{ctx} kernel"));
                        }
                    }
                    attributed += usize::from(kernel.successes > 0);
                }
                let name = format!("{} {defense}", eval.workload.name);
                let recalls = scratch.handle_recalls() > 0;
                assert_eq!(recalls, runner.outcome_is_fixed(), "{name}: handles");
            }
        }
        assert!(
            attributed >= 50,
            "{attributed} of 75 chunks attribute a success"
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
